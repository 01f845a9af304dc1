"""The representation on step functions: ladder action, state, cyclicity."""

import random
from fractions import Fraction

import pytest

from padic_cuntz import (InvalidLetterError, OperatorParseError, Scalar,
                         StepFunction, apply_annihilation,
                         apply_creation, apply_operator_word, creation_chain,
                         cyclicity_basis, gns_state, indicator, l2_inner,
                         parse_operator_word, words_up_to)
from padic_cuntz.representation import ANNIHILATE, CREATE
from padic_cuntz.suites import random_step_function


def test_creation_examples():
    one = StepFunction.constant(2, 1)
    f = apply_creation(0, one)
    assert [v.pretty() for v in f.values] == ["√2", "0"]
    g = apply_creation(1, f)
    assert [v.pretty() for v in g.values] == ["0", "2", "0", "0"]
    z = StepFunction.zero(2, 1)
    assert apply_creation(0, z).is_zero()
    for bad in (2, True):   # a bool is not a letter
        with pytest.raises(InvalidLetterError):
            apply_creation(bad, one)


def test_creation_moves_disks():
    # indicator of D(c, p^{-k}) ↦ √p × indicator of D(i + pc, p^{-(k+1)})
    f = indicator(3, [2])          # center 2, depth 1
    g = apply_creation(1, f)
    expected = indicator(3, [1, 2]).scale(Scalar.root_p_power(3, 1))
    assert g == expected


def test_annihilation_examples():
    one = StepFunction.constant(2, 1)
    out = apply_annihilation(0, one)
    assert out.depth == 0
    assert out.values[0] == Scalar.root_p_power(2, -1)
    theta = indicator(2, [0])
    assert apply_annihilation(1, theta).is_zero()
    assert apply_annihilation(0, theta) == StepFunction.constant(
        2, Scalar.root_p_power(2, -1))


def test_operator_word_parsing():
    assert parse_operator_word("a1* a0* a1") == \
        ((CREATE, 1), (CREATE, 0), (ANNIHILATE, 1))
    assert parse_operator_word("") == ()
    with pytest.raises(OperatorParseError) as err:
        parse_operator_word("a1* b0")
    assert err.value.position == 4
    with pytest.raises(OperatorParseError):
        parse_operator_word("a* a1")
    with pytest.raises(OperatorParseError):
        parse_operator_word("a1*x")
    for text in ("a²", "a١*"):   # only ASCII digits are letter indices
        with pytest.raises(OperatorParseError) as err:
            parse_operator_word(text)
        assert err.value.position == 1


def test_apply_operator_word_examples():
    rng = random.Random(21)
    f = random_step_function(rng, 2, 2)
    ident = parse_operator_word("a0 a0*")
    assert apply_operator_word(ident, f) == f
    mismatch = parse_operator_word("a1 a0*")
    assert apply_operator_word(mismatch, f).is_zero()
    chain = parse_operator_word("a1* a0*")  # A†_I for I = (0,1)
    out = apply_operator_word(chain, StepFunction.constant(2, 1))
    assert out == indicator(2, [1, 0]).scale(Scalar.rational(2, 2))
    with pytest.raises(InvalidLetterError):
        apply_operator_word(parse_operator_word("a7"), f)
    with pytest.raises(ValueError, match="unknown factor kind"):
        apply_operator_word((("bogus", 0),), f)


def test_cuntz_relation_one():
    rng = random.Random(22)
    for p in (2, 3):
        for _ in range(30):
            f = random_step_function(rng, p, rng.randint(0, 4))
            for j in range(p):
                g = apply_creation(j, f)
                for i in range(p):
                    out = apply_annihilation(i, g)
                    if i == j:
                        assert out == f
                    else:
                        assert out.is_zero()


def test_cuntz_relation_two():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(30):
            f = random_step_function(rng, p, rng.randint(0, 4))
            total = None
            for i in range(p):
                term = apply_creation(i, apply_annihilation(i, f))
                total = term if total is None else total + term
            assert total == f  # depth-0 inputs compare after auto-refinement


def test_adjointness_and_isometry():
    rng = random.Random(24)
    for p in (2, 3):
        for _ in range(30):
            f = random_step_function(rng, p, rng.randint(0, 3))
            g = random_step_function(rng, p, rng.randint(0, 3))
            for i in range(p):
                assert l2_inner(apply_creation(i, f), g) == \
                    l2_inner(f, apply_annihilation(i, g))
            cf = apply_creation(rng.randrange(p), f)
            assert l2_inner(cf, cf) == l2_inner(f, f)


def test_gns_state_examples():
    assert gns_state(2, (), ()) == Scalar.one(2)
    assert gns_state(2, (0,), ()) == Scalar(2, 0, Fraction(1, 2))
    assert gns_state(3, (0, 1), (1,)) == Scalar(3, 0, Fraction(1, 9))


def test_gns_state_exhaustive_small():
    for p in (2, 3):
        for I in words_up_to(p, 2):
            for J in words_up_to(p, 2):
                assert gns_state(p, I, J) == \
                    Scalar.root_p_power(p, -(len(I) + len(J)))


def test_state_positivity():
    # random finite combinations v = Σ c_m A†_{I_m} A_{J_m} applied to 1
    rng = random.Random(25)
    for p in (2, 3):
        words = list(words_up_to(p, 2))
        for _ in range(25):
            v = StepFunction.zero(p)
            for _ in range(rng.randint(1, 4)):
                I = rng.choice(words)
                J = rng.choice(words)
                c = Scalar(p, Fraction(rng.randint(-5, 5)),
                           Fraction(rng.randint(-2, 2)),
                           Fraction(rng.randint(-3, 3)), 0)
                w = tuple((CREATE, i) for i in reversed(I)) + \
                    tuple((ANNIHILATE, j) for j in J)   # A†_I A_J
                one = StepFunction.constant(p, 1)
                v = v + apply_operator_word(w, one).scale(c)
            norm = l2_inner(v, v)
            assert norm.is_real()
            assert norm.real_sign() >= 0


def test_cyclicity_examples():
    basis0 = cyclicity_basis(2, 0)
    assert len(basis0) == 1 and basis0[0] == StepFunction.constant(2, 1)
    basis1 = cyclicity_basis(2, 1)
    root2 = Scalar.root_p_power(2, 1)
    assert basis1[0] == indicator(2, [0]).scale(root2)
    assert basis1[1] == indicator(2, [1]).scale(root2)
    basis2 = cyclicity_basis(2, 2)
    assert len(basis2) == 4
    for a in range(4):
        for b in range(4):
            inner = l2_inner(basis2[a], basis2[b])
            assert inner == (Scalar.one(2) if a == b else Scalar.zero(2))


def test_creation_chain_matches_word_application():
    for p in (2, 3):
        for I in words_up_to(p, 3):
            w = tuple((CREATE, i) for i in reversed(I))   # A†_I
            assert creation_chain(p, I) == \
                apply_operator_word(w, StepFunction.constant(p, 1))


def test_creation_chain_refuses_a_function_over_another_prime():
    # as StepFunction arithmetic refuses mixed primes
    with pytest.raises(ValueError, match="over p = 3"):
        creation_chain(3, (1,), StepFunction.constant(2, 1))
    assert creation_chain(2, (1,), StepFunction.constant(2, 1)) == \
        creation_chain(2, (1,))


def _created_by_hand(i, f):
    """A†_i f from the formula, as a function with explicit values."""
    p = f.p
    vals = [Scalar.zero(p)] * (p ** (f.depth + 1))
    for m, v in enumerate(f.values):
        vals[i + p * m] = Scalar.root_p_power(p, 1) * v
    return StepFunction(p, f.depth + 1, vals)


def test_scaled_storage_equality_and_sum():
    # the ladder operators keep √p powers on the function; comparing or
    # adding against explicitly valued functions must rescale exactly
    rng = random.Random(26)
    for p in (2, 3, 5):
        one = StepFunction.constant(p, 1)
        assert one == apply_annihilation(0, apply_creation(0, one))
        assert apply_annihilation(0, one) == \
            StepFunction.constant(p, Scalar.root_p_power(p, -1))
        for _ in range(10):
            f = random_step_function(rng, p, rng.randint(0, 2))
            i = rng.randrange(p)
            created = apply_creation(i, f)
            by_hand = _created_by_hand(i, f)
            assert created.exp != by_hand.exp
            assert created == by_hand and by_hand == created
            assert created + by_hand == by_hand.scale(2)
            assert (created - by_hand).is_zero()
            assert created.integrate() == by_hand.integrate()
            twice = apply_creation(i, created)
            assert twice == _created_by_hand(i, by_hand)
            assert twice + f == _created_by_hand(i, by_hand) + f
            assert (created == by_hand.scale(2)) == f.is_zero()


def test_json_after_creation():
    rng = random.Random(27)
    for p in (2, 3, 5):
        f = random_step_function(rng, p, 1)
        created = apply_creation(p - 1, apply_creation(0, f))
        data = created.to_json()
        by_hand = _created_by_hand(p - 1, _created_by_hand(0, f))
        assert data == by_hand.to_json()
        back = StepFunction.from_json(data)
        assert back == created
        assert back.values == created.values


def test_ladder_operators_do_no_scalar_arithmetic(monkeypatch):
    rng = random.Random(28)
    f = random_step_function(rng, 3, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("ladder operator did scalar arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "_reduced", "mul_root_p_power",
                 "conjugate"):
        monkeypatch.setattr(Scalar, name, forbidden)
    created = apply_creation(2, f)
    back = apply_annihilation(2, created)
    assert back.raw == f.raw and back.exp == f.exp
    assert apply_annihilation(0, created).is_zero()
