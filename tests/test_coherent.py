"""Coherent states: cascade, expansions, pairing limit, T-operators, AF."""

import random
from fractions import Fraction

import pytest

from padic_cuntz import (CapExceededError, CoherentState,
                         NotStabilizedError, ParameterError, Q, Scalar,
                         StepFunction, af_annihilate, af_create,
                         af_relation_residual, af_state_value,
                         apply_annihilation, apply_creation,
                         build_X_truncated, eigen_residual,
                         gram_matrices, indicator,
                         indicator_state, l2_inner, leibnitz_residuals,
                         pairing_series, phi_map, renormalized_pairing,
                         t_dagger, t_dagger_fock, t_op, t_op_fock,
                         to_fock_truncated, words_of_length, words_up_to)
from padic_cuntz import stepfunctions
from padic_cuntz.suites import (random_coherent_state, random_step_function,
                                run_suites)
from test_fock import ref_inner_by_length, ref_terms


def test_coefficient_examples():
    xe = indicator_state(2, ())
    for k in range(4):
        for w in words_of_length(2, k):
            assert xe.coefficient(w) == Scalar.rational(2, Q(1, 2 ** k))
    x0 = indicator_state(2, (0,))
    # oracle: ∫ 2θ₁ over Z₂ by brute fractions = 2·(1/2) = 1
    assert Fraction(2, 2) == 1
    assert x0.coefficient(()) == Scalar.one(2)
    assert x0.coefficient((1,)) == Scalar.zero(2)
    zero = CoherentState(StepFunction.constant(2, 0))
    assert zero.coefficient((0, 1)) == Scalar.zero(2)
    assert zero.is_zero()


def test_cascade_condition():
    rng = random.Random(31)
    for p in (2, 3):
        for _ in range(15):
            s = random_coherent_state(rng, p)
            for I in words_up_to(p, 3):
                total = None
                for i in range(p):
                    c = s.coefficient(I + (i,))
                    total = c if total is None else total + c
                assert s.coefficient(I) == total


def test_cascade_condition_deep():
    # table-based sweep through |I| ≤ 6 (coefficient-by-coefficient above)
    rng = random.Random(30)
    for p in (2, 3):
        s = random_coherent_state(rng, p)
        tables = [s.coefficients_of_length(k) for k in range(8)]
        for k in range(7):
            zero = Scalar.zero(p)
            for I in words_of_length(p, k):
                total = None
                for i in range(p):
                    c = tables[k + 1].get(I + (i,), zero)
                    total = c if total is None else total + c
                assert tables[k].get(I, zero) == total


def test_coefficients_of_length_matches_pointwise():
    rng = random.Random(32)
    s = random_coherent_state(rng, 3)
    for k in range(4):
        table = s.coefficients_of_length(k)
        for w in words_of_length(3, k):
            assert table.get(w, Scalar.zero(3)) == s.coefficient(w)


def test_build_X_examples():
    one = Scalar.one(2)
    v = build_X_truncated(2, (), 2)
    for k in range(3):
        for w in words_of_length(2, k):
            assert v.coefficient(w) == (
                k, Scalar.rational(2, Q(1, 2 ** k)))
    v0 = build_X_truncated(2, (0,), 4)
    assert v0.coefficient(()) == (0, one)
    assert v0.coefficient((0, 1)) == (2, Scalar.rational(2, Q(1, 2)))
    with pytest.raises(ValueError):
        build_X_truncated(2, (0, 1), 1)


def test_build_X_keeps_layers_at_the_word_depth():
    # Σ_i A†_i lifts a layer without deepening it, so X_I at p = 13 holds
    # p^{|I|} values per layer, not 13^6
    p, I = 13, (5,)
    v = build_X_truncated(p, I, 6)
    assert max(len(f.raw) for f in v.layers.values()) <= p
    s = indicator_state(p, I)
    rng = random.Random(13)
    nonzero = 0
    for _ in range(200):
        head = rng.choice([(), I])   # half of the words inside disk I
        w = head + tuple(rng.randrange(p) for _ in range(rng.randint(0, 5)))
        n, c = v.coefficient(w)
        assert c == s.coefficient(w)
        assert c.is_zero() or n == len(w)
        nonzero += not c.is_zero()
    assert nonzero > 50


def test_build_X_at_a_depth_past_the_word_cap():
    # 2^31 words: the layers stay small, only materializing them is capped
    v = build_X_truncated(2, (0, 1), 30)
    assert v.support_lengths() == set(range(31))
    with pytest.raises(CapExceededError):
        v.to_json()


def test_to_fock_examples():
    zero = CoherentState(StepFunction.constant(2, 0))
    assert to_fock_truncated(zero, 3).is_zero()
    xe = indicator_state(2, ())
    v = to_fock_truncated(xe, 1)
    assert v.coefficient(()) == (0, Scalar.one(2))
    half = Scalar.rational(2, Q(1, 2))
    assert v.coefficient((0,)) == (1, half)
    assert v.coefficient((1,)) == (1, half)
    # linearity
    rng = random.Random(33)
    s = random_coherent_state(rng, 2)
    t = random_coherent_state(rng, 2)
    a = Scalar(2, 2, 1)
    b = Scalar(2, 0, 0, 1, 0)
    lhs = to_fock_truncated(CoherentState(s.generator.scale(a))
                            + CoherentState(t.generator.scale(b)), 4)
    rhs = to_fock_truncated(s, 4).scale(a) + to_fock_truncated(t, 4).scale(b)
    assert lhs == rhs


def test_eigen_residual_examples():
    xe = indicator_state(2, ())
    r = eigen_residual(xe, 3)
    assert r.support_lengths() <= {3}
    want = (4, Scalar.rational(2, Q(-1, 8)))
    for w in words_of_length(2, 3):
        assert r.coefficient(w) == want
    zero = CoherentState(StepFunction.constant(2, 0))
    assert eigen_residual(zero, 3).is_zero()
    rng = random.Random(34)
    for p in (2, 3):
        s = random_coherent_state(rng, p)
        res = eigen_residual(s, 5)
        assert all(len(w) == 5 for w in res.terms)
        for w, psi in s.coefficients_of_length(5).items():
            assert res.coefficient(w) == (6, -psi)


def test_pairing_examples():
    xe = indicator_state(2, ())
    x0 = indicator_state(2, (0,))
    x1 = indicator_state(2, (1,))
    x01 = indicator_state(2, (0, 1))
    assert renormalized_pairing(xe, xe) == Scalar.one(2)
    assert renormalized_pairing(x0, x0) == Scalar.rational(2, 2)
    assert renormalized_pairing(x0, x1) == Scalar.zero(2)
    # oracle: ⟨4θ₂(x−2), 2θ₁(x)⟩ by brute fractions over depth 2:
    # overlap is the single depth-2 coset of index 2 → 8·(1/4) = 2
    assert Fraction(4 * 2, 4) == 2
    assert renormalized_pairing(x01, x0) == Scalar.rational(2, 2)


def test_pairing_equals_l2_and_stabilization_bound():
    rng = random.Random(35)
    for p in (2, 3):
        pool = [indicator_state(p, w) for w in words_up_to(p, 3)]
        pool += [random_coherent_state(rng, p) for _ in range(10)]
        for _ in range(40):
            a = rng.choice(pool)
            b = rng.choice(pool)
            series = pairing_series(a, b)
            assert series.value == l2_inner(phi_map(a), phi_map(b))
            assert series.stabilized_at <= max(a.depth, b.depth)
            assert series.terms[-1] == series.terms[series.stabilized_at]


def test_pairing_series_matches_the_fock_inner_product():
    # the layer route against the word reference's λ-polynomial inner
    # product of the two truncated expansions, each length at λ = √p
    rng = random.Random(36)
    for p in (2, 3, 5):
        for _ in range(8):
            a = random_coherent_state(rng, p)
            b = random_coherent_state(rng, p)
            kmax = max(a.depth, b.depth) + 2
            by_len = ref_inner_by_length(
                ref_terms(to_fock_truncated(a, kmax)),
                ref_terms(to_fock_truncated(b, kmax)))
            terms = pairing_series(a, b).terms
            assert len(terms) == kmax + 1
            for k in range(kmax + 1):
                assert terms[k] == Scalar.sum(
                    p, [c.mul_root_p_power(n)
                        for n, c in by_len.get(k, {}).items()])
    basis, ren, _, _, _ = gram_matrices(2, 3)
    states = [indicator_state(2, w) for w in basis]
    for a, row in zip(states, ren):
        for b, value in zip(states, row):
            assert value == pairing_series(a, b).value


def test_phi_round_trip():
    x1 = indicator_state(2, (1,))
    assert phi_map(x1) == indicator(2, [1]).scale(Scalar.rational(2, 2))
    xe = indicator_state(2, ())
    assert phi_map(xe) == StepFunction.constant(2, 1)
    rng = random.Random(36)
    s = random_coherent_state(rng, 3)
    assert CoherentState(phi_map(s)) == s


def test_t_dagger_examples():
    inv_root = Scalar.root_p_power(2, -1)
    xe = indicator_state(2, ())
    assert t_dagger(0, xe) == \
        CoherentState(indicator_state(2, (0,)).generator.scale(inv_root))
    x0 = indicator_state(2, (0,))
    assert t_dagger(1, x0) == \
        CoherentState(indicator_state(2, (1, 0)).generator.scale(inv_root))
    rng = random.Random(37)
    for p in (2, 3):
        s = random_coherent_state(rng, p)
        for i in range(p):
            assert phi_map(t_dagger(i, s)) == apply_creation(i, phi_map(s))
            assert phi_map(t_op(i, s)) == apply_annihilation(i, phi_map(s))


def test_t_op_examples():
    # T_i on the constant-generator state scales by p^{-1/2}: the defining
    # coefficient formula forces this (√p·Ψ_{iI} = √p·p^{-|I|-1}), and it
    # is the only value compatible with Σ T†_iT_i = 1.
    xe = indicator_state(2, ())
    inv_root = Scalar.root_p_power(2, -1)
    assert t_op(0, xe) == CoherentState(xe.generator.scale(inv_root))
    x0 = indicator_state(2, (0,))
    assert t_op(1, x0).is_zero()
    x01 = indicator_state(2, (0, 1))
    assert t_op(0, x01) == CoherentState(
        indicator_state(2, (1,)).generator.scale(
            Scalar.root_p_power(2, 1)))
    # coefficient contract Ψ'_I = √p·Ψ_{iI}
    rng = random.Random(38)
    s = random_coherent_state(rng, 3)
    moved = t_op(2, s)
    for w in words_up_to(3, 3):
        assert moved.coefficient(w) == \
            s.coefficient((2,) + w).mul_root_p_power(1)


def test_t_adjointness_in_pairing():
    rng = random.Random(40)
    for p in (2, 3):
        for _ in range(15):
            a = random_coherent_state(rng, p)
            b = random_coherent_state(rng, p)
            for i in range(p):
                assert renormalized_pairing(t_op(i, a), b) == \
                    renormalized_pairing(a, t_dagger(i, b))


def test_t_word_level_cross_check():
    rng = random.Random(41)
    for p in (2, 3):
        for _ in range(8):
            s = random_coherent_state(rng, p, max_depth=2)
            for i in range(p):
                assert t_dagger_fock(i, s, 5) == \
                    to_fock_truncated(t_dagger(i, s), 5)
                assert t_op_fock(i, s, 5) == \
                    to_fock_truncated(t_op(i, s), 5)
                omega_coef = t_dagger_fock(i, s, 5).coefficient(())
                assert omega_coef == (
                    0, s.vacuum_coefficient().mul_root_p_power(-1))


def test_leibnitz_residuals():
    xe = indicator_state(2, ())
    residuals = leibnitz_residuals(xe, 3)
    assert len(residuals) == 3  # vacuum + one per letter
    assert residuals[0] == eigen_residual(xe, 3)
    for r in residuals:
        assert all(len(w) == 3 for w in r.terms)
    zero = CoherentState(StepFunction.constant(2, 0))
    assert all(r.is_zero() for r in leibnitz_residuals(zero, 3))
    x0 = indicator_state(2, (0,))
    for r in leibnitz_residuals(x0, 4):
        assert all(len(w) == 4 for w in r.terms)
    rng = random.Random(42)
    for p in (2, 3):
        s = random_coherent_state(rng, p)
        for r in leibnitz_residuals(s, 5):
            assert all(len(w) == 5 for w in r.terms)


def test_af_state_examples():
    assert af_state_value(2, (), ()) == Scalar.one(2)
    assert af_state_value(2, (0,), ()) == Scalar(2, 0, Fraction(1, 2))
    assert af_state_value(2, (0,), (1,)) == Scalar.rational(2, Q(1, 2))
    with pytest.raises(NotStabilizedError) as err:
        af_state_value(3, (0, 1), (2,), N=2)
    assert "need N ≥" in str(err.value)
    with pytest.raises(NotStabilizedError, match="need N ≥ 3"):
        af_state_value(2, (), (), 0)   # a single term has no tail


@pytest.mark.parametrize("N", [-1, True, False, 2.0, "3"])
def test_af_state_value_refuses_a_truncation_that_is_no_count(N):
    with pytest.raises(ValueError, match="truncation"):
        af_state_value(2, (), (), N)


def test_af_state_value_matches_the_fock_inner_product():
    # the layer route against the word reference's λ-polynomial inner
    # product ⟨1̂, v⟩ with v = AF(A†_I A_J)1̂, each length at λ = √p
    for p, longest in ((2, 2), (3, 2), (5, 1)):
        for I in words_up_to(p, longest):
            for J in words_up_to(p, longest):
                one_hat = v = to_fock_truncated(
                    indicator_state(p, ()), len(I) + len(J) + 3)
                for j in reversed(J):
                    v = af_annihilate(j, v)
                for i in I:
                    v = af_create(i, v)
                by_len = ref_inner_by_length(ref_terms(one_hat),
                                             ref_terms(v))
                terms = [Scalar.sum(p, [c.mul_root_p_power(n)
                                        for n, c in by_len.get(k, {}).items()])
                         for k in range(max(by_len) + 1)]
                assert terms[-2] == terms[-1] == af_state_value(p, I, J)


def test_af_relation_residuals():
    rng = random.Random(43)
    xe = indicator_state(2, ())
    first, second = af_relation_residual(0, xe, 4)
    assert not [w for w in first.terms if len(w) < 4]
    assert not [w for w in second.terms if len(w) < 4]
    zero = CoherentState(StepFunction.constant(2, 0))
    fz, sz = af_relation_residual(1, zero, 4)
    assert fz.is_zero() and sz.is_zero()
    x1 = indicator_state(2, (1,))
    f1, s1 = af_relation_residual(1, x1, 4)
    assert not [w for w in s1.terms if len(w) < 3]
    for p in (2, 3):
        for _ in range(8):
            s = random_coherent_state(rng, p)
            i = rng.randrange(p)
            first, second = af_relation_residual(i, s, 5)
            assert not [w for w in first.terms if len(w) < 5]
            assert not [w for w in second.terms if len(w) < 5]


def test_each_route_pins_its_lambda_shift():
    # every route's words carry λ^{k+shift} for the shift the λ bookkeeping
    # of the route predicts; only nonzero results have a shift to pin
    rng = random.Random(47)
    seen = set()

    def pin(route, v, shift):
        if not v.is_zero():
            assert v.shift == shift, route
            seen.add(route)

    for p in (2, 3):
        for I in words_up_to(p, 2):
            pin("build_X", build_X_truncated(p, I, 4), 0)
            for J in words_up_to(p, 2):
                v = to_fock_truncated(indicator_state(p, ()), 7)
                for j in reversed(J):
                    v = af_annihilate(j, v)
                for i in I:
                    v = af_create(i, v)
                pin("AF(A†_I A_J)·1̂", v, len(J) - len(I))
        for _ in range(6):
            s = random_coherent_state(rng, p)
            i = rng.randrange(p)
            pin("to_fock", to_fock_truncated(s, 4), 0)
            pin("t_dagger_fock", t_dagger_fock(i, s, 4), 0)
            pin("t_op_fock", t_op_fock(i, s, 4), 0)
            eigen, *leibnitz = leibnitz_residuals(s, 4)
            assert eigen == eigen_residual(s, 4)
            pin("eigen_residual", eigen, 1)
            for r in leibnitz:
                pin("leibnitz", r, 0)
            first, second = af_relation_residual(i, s, 4)
            # the first cancels on every word (both T† routes agree), and
            # keeps its operands' shift 0
            assert first.is_zero() and first.shift == 0
            pin("af_relation second", second, 1)
    assert len(seen) == 8   # each route gave a nonzero result somewhere


def test_gram_example():
    basis, ren, l2, equal, max_stab = gram_matrices(2, 1)
    assert [len(w) for w in basis] == [0, 1, 1]
    expect = [[1, 1, 1], [1, 2, 0], [1, 0, 2]]
    for a in range(3):
        for b in range(3):
            assert ren[a][b] == Scalar.rational(2, expect[a][b])
    assert equal
    assert max_stab <= 1


def test_expansion_layers_follow_the_generator_depth():
    # p = 13, N = 5: 13^5 = 371,293 words at the boundary, but every layer
    # of a depth-2 state holds at most 13^2 raw values
    rng = random.Random(13)
    s = CoherentState(random_step_function(rng, 13, 2))
    v = to_fock_truncated(s, 5)
    assert max(len(f.raw) for f in v.layers.values()) <= 13 ** 2
    assert v.support_lengths() <= set(range(6))
    for _ in range(200):
        w = tuple(rng.randrange(13) for _ in range(rng.randint(0, 5)))
        psi = s.coefficient(w)
        want = (len(w), psi) if not psi.is_zero() else (0, Scalar.zero(13))
        assert v.coefficient(w) == want


def test_expansion_cap_follows_what_is_built():
    # 2^31 − 1 words through length 30, but only depth-0 layers are built;
    # materializing the words is what the cap refuses
    s = indicator_state(2, ())
    v = to_fock_truncated(s, 30)
    assert max(len(f.raw) for f in v.layers.values()) == 1
    r = eigen_residual(s, 30)
    boundary = -Scalar.rational(2, Q(1, 2 ** 30))
    assert r.support_lengths() == {30}
    assert r.coefficient((1, 0) * 15) == (31, boundary)
    # ⟨v, v⟩ per length, from the layers: p^k words of value 2^-k each
    assert {k: f.inner(f).mul_root_p_power(2 * k)
            for k, f in v.layers.items()} == {
        k: Scalar.rational(2, Q(1, 2 ** k)) for k in range(31)}
    with pytest.raises(CapExceededError):
        v.to_json()
    with pytest.raises(CapExceededError):
        r.terms


def test_every_cap_is_read_at_call_time(monkeypatch):
    # a cap lowered after import binds the Gram, gns-depth and word limits
    monkeypatch.setattr(stepfunctions, "VALUE_CAP", 100)
    with pytest.raises(ParameterError):
        gram_matrices(2, 3)             # |B|² = 15² entries
    with pytest.raises(ParameterError):
        run_suites("gns", 2, depth=7)   # 2^7 boundary values
    v = to_fock_truncated(indicator_state(2, ()), 7)
    with pytest.raises(CapExceededError):
        v.terms                         # 2^8 − 1 = 255 words
