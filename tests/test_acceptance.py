"""Acceptance gate: every headline identity at exact equality (tolerance 0).

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion; each test also enforces its runtime budget.
"""

import random
import time

from padic_cuntz import (Scalar, af_relation_residual, af_state_value,
                         apply_annihilation, apply_creation,
                         build_X_truncated, cyclicity_basis, eigen_residual,
                         gns_state, gram_matrices, indicator_state, l2_inner,
                         leibnitz_residuals, make_indicator, phi_map,
                         renormalized_pairing, t_dagger, t_op, word_to_center,
                         words_of_length, words_up_to)
from padic_cuntz.suites import (random_coherent_state, random_depth,
                                random_step_function)


def _report(num: int, label: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    if elapsed < budget:
        print(f"[PASS] criterion {num}: {label} "
              f"({elapsed:.2f}s < {budget:.0f}s)")
    else:
        print(f"[FAIL] criterion {num}: {label} "
              f"({elapsed:.2f}s ≥ {budget:.0f}s budget)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_cuntz_relations():
    start = time.perf_counter()
    for p in (2, 3, 5):
        rng = random.Random(100 + p)
        for _ in range(200):
            f = random_step_function(rng, p, random_depth(rng, p, 5))
            for j in range(p):
                created = apply_creation(j, f)
                for i in range(p):
                    out = apply_annihilation(i, created)
                    if i == j:
                        assert out == f
                    else:
                        assert out.is_zero()
            total = None
            for i in range(p):
                term = apply_creation(i, apply_annihilation(i, f))
                total = term if total is None else total + term
            assert total == f
    _report(1, "Cuntz relations exact on 200 random functions per p", start, 5)


def test_criterion_2_adjointness():
    start = time.perf_counter()
    for p in (2, 3, 5):
        rng = random.Random(200 + p)
        for _ in range(200):
            f = random_step_function(rng, p, random_depth(rng, p, 5))
            g = random_step_function(rng, p, random_depth(rng, p, 5))
            i = rng.randrange(p)
            assert l2_inner(apply_creation(i, f), g) == \
                l2_inner(f, apply_annihilation(i, g))
    _report(2, "creation/annihilation adjoint for the Haar L² pairing",
            start, 5)


def test_criterion_3_gns_state_table():
    start = time.perf_counter()
    for p in (2, 3):
        rng = random.Random(300 + p)
        small = list(words_up_to(p, 3))
        for I in small:
            for J in small:
                assert gns_state(p, I, J) == \
                    Scalar.root_p_power(p, -(len(I) + len(J)))
        boundary = list(words_of_length(p, 4))
        anything = list(words_up_to(p, 4))
        for _ in range(10_000):
            I, J = rng.choice(boundary), rng.choice(anything)
            if rng.random() < 0.5:
                I, J = J, I
            assert gns_state(p, I, J) == \
                Scalar.root_p_power(p, -(len(I) + len(J)))
    _report(3, "state table p^{-(|I|+|J|)/2} via integration", start, 30)


def test_criterion_4_gram_isomorphism():
    start = time.perf_counter()
    for p in (2, 3):
        basis, ren, l2, equal, max_stab = gram_matrices(p, 3)
        assert equal
        assert max_stab <= 3
        n = len(basis)
        assert n == sum(p ** k for k in range(4))
        for a in range(n):
            for b in range(n):
                assert ren[a][b] == l2[a][b]
    _report(4, "pairing Gram equals L² Gram on {X_I : |I| ≤ 3}", start, 10)


def test_criterion_5_expansion_consistency():
    start = time.perf_counter()
    for p in (2, 3):
        for I in words_up_to(p, 3):
            v = build_X_truncated(p, I, 6)  # self-checks vs generator route
            state = indicator_state(p, I)
            for k in range(7):
                for w, psi in state.coefficients_of_length(k).items():
                    assert v.coefficient(w) == (k, psi)
    _report(5, "truncated expansions match generator coefficients", start, 10)


def test_criterion_6_eigenvector_property():
    start = time.perf_counter()
    for p in (2, 3):
        rng = random.Random(600 + p)
        for _ in range(25):
            s = random_coherent_state(rng, p)
            r = eigen_residual(s, 8)
            assert not [w for w in r.terms if len(w) < 8]
            boundary = s.coefficients_of_length(8)
            assert set(r.terms) == set(boundary)
            for w, psi in boundary.items():
                assert r.coefficient(w) == (9, -psi)
    _report(6, "eigen residual −λ⁹Ψ_J confined to the N=8 boundary",
            start, 20)


def test_criterion_7_t_representation():
    start = time.perf_counter()
    for p in (2, 3):
        rng = random.Random(700 + p)
        pool = [indicator_state(p, w) for w in words_up_to(p, 3)]
        pool += [random_coherent_state(rng, p) for _ in range(25)]
        for s in pool:
            for i in range(p):
                for j in range(p):
                    out = t_op(i, t_dagger(j, s))
                    if i == j:
                        assert out == s
                    else:
                        assert out.is_zero()
            total = None
            for i in range(p):
                term = t_dagger(i, t_op(i, s))
                total = term if total is None else total + term
            assert total == s
            i = rng.randrange(p)
            assert phi_map(t_dagger(i, s)) == apply_creation(i, phi_map(s))
            assert phi_map(t_op(i, s)) == apply_annihilation(i, phi_map(s))
        for _ in range(25):
            a, b = rng.choice(pool), rng.choice(pool)
            i = rng.randrange(p)
            assert renormalized_pairing(t_op(i, a), b) == \
                renormalized_pairing(a, t_dagger(i, b))
    _report(7, "T-operators: Cuntz relations, intertwining, adjointness",
            start, 10)


def test_criterion_8_leibnitz_and_af_relations():
    start = time.perf_counter()
    for p in (2, 3):
        rng = random.Random(800 + p)
        for _ in range(25):
            s = random_coherent_state(rng, p)
            for r in leibnitz_residuals(s, 6):
                assert not [w for w in r.terms if len(w) < 6]
            i = rng.randrange(p)
            first, second = af_relation_residual(i, s, 6)
            assert not [w for w in first.terms if len(w) < 6]
            assert not [w for w in second.terms if len(w) < 6]
    _report(8, "Leibnitz and AF-bridge residuals only at the N=6 boundary",
            start, 10)


def test_criterion_9_antifock_state():
    start = time.perf_counter()
    for p in (2, 3):
        for I in words_up_to(p, 3):
            for J in words_up_to(p, 3):
                value = af_state_value(p, I, J, N=len(I) + len(J) + 3)
                assert value == Scalar.root_p_power(p, -(len(I) + len(J)))
    _report(9, "antifock pairing reproduces the state values", start, 20)


def test_criterion_10_cyclicity():
    start = time.perf_counter()
    for p in (2, 3):
        for k in range(5):
            basis = cyclicity_basis(p, k)  # self-checks vs indicators
            assert len(basis) == p ** k
            scale = Scalar.root_p_power(p, -k)
            seen = set()
            for I, g in zip(words_of_length(p, k), basis):
                f = g.scale(scale)
                addr = word_to_center(p, I, "msd")
                assert f == make_indicator(addr)
                seen.add(addr.center)
            assert seen == set(range(p ** k))
    _report(10, "depth-k indicators are exactly p^{-k/2}·A†_I·1", start, 5)
