"""Free Fock space: ladder pairs on both word ends, inner product, spill."""

import random

import pytest

from padic_cuntz import (FockVector, InvalidLetterError, Q, Scalar,
                         SelfCheckError, af_annihilate, af_create,
                         annihilate_sum, fock_annihilate, fock_create,
                         fock_inner, fock_inner_by_length)
from padic_cuntz.suites import random_scalar


def one_term(p):
    return (0, Scalar.one(p))


def random_vector(rng, p, max_len=3, trunc=None):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.randrange(p) for _ in range(rng.randint(0, max_len)))
        terms[w] = (rng.randint(0, 2), random_scalar(rng, p))
    return FockVector(p, terms, truncation=trunc)


def poly_add(a, b):
    """Sum of two λ-polynomials {exponent: Scalar}, zeros dropped."""
    out = dict(a)
    for n, c in b.items():
        out[n] = out[n] + c if n in out else c
    return {n: c for n, c in out.items() if not c.is_zero()}


def poly_mul(a, b):
    out = {}
    for n1, c1 in a.items():
        for n2, c2 in b.items():
            out = poly_add(out, {n1 + n2: c1 * c2})
    return out


def split_by_power(p, spec):
    """Single-power vectors, one per λ-exponent, summing to the vector whose
    word coefficients are the polynomials spec {word: {n: c}}."""
    by_n = {}
    for w, poly in spec.items():
        for n, c in poly.items():
            by_n.setdefault(n, {})[w] = (n, c)
    return [FockVector(p, terms) for terms in by_n.values()]


def inner_by_length_of_sums(vs, ws):
    """⟨Σ vs, Σ ws⟩ per word length: the inner product is bilinear, so it
    is the sum of fock_inner_by_length over all pairs."""
    out = {}
    for v in vs:
        for w in ws:
            for k, poly in fock_inner_by_length(v, w).items():
                out[k] = poly_add(out.get(k, {}), poly)
    return out


def test_create_examples():
    omega = FockVector.vacuum(2)
    v = fock_create(0, omega)
    assert v.terms == {(0,): one_term(2)}
    w = fock_create(1, v)
    assert w.terms == {(0, 1): one_term(2)}
    c = Scalar(2, 0, 1)  # √2
    scaled = fock_create(1, omega.scale(c))
    assert scaled.coefficient((1,)) == (0, c)
    assert scaled.coefficient((0,)) == (0, Scalar.zero(2))


def test_annihilate_examples():
    omega = FockVector.vacuum(2)
    assert fock_annihilate(0, omega).is_zero()
    v = FockVector.basis(2, (0, 1))
    assert fock_annihilate(1, v).terms == {(0,): one_term(2)}
    assert fock_annihilate(0, v).is_zero()


def test_af_examples():
    omega = FockVector.vacuum(2)
    assert af_create(0, omega).terms == {(0,): one_term(2)}
    v = af_create(1, FockVector.basis(2, (0,)))
    assert v.terms == {(1, 0): one_term(2)}
    w = FockVector.basis(2, (0, 1))
    assert af_annihilate(0, w).terms == {(1,): one_term(2)}
    assert af_annihilate(1, w).is_zero()
    assert af_annihilate(0, omega).is_zero()


def test_invalid_letters():
    omega = FockVector.vacuum(2)
    for op in (fock_create, fock_annihilate, af_create, af_annihilate):
        with pytest.raises(InvalidLetterError):
            op(2, omega)


def test_inner_examples():
    e0 = FockVector.basis(2, (0,))
    e1 = FockVector.basis(2, (1,))
    assert fock_inner(e0, e0) == {0: Scalar.one(2)}
    assert fock_inner(e0, e1) == {}
    v = FockVector.vacuum(2).shift_lambda(1)
    assert fock_inner(v, v) == {2: Scalar.one(2)}


def test_inner_conjugates_first_slot():
    i = Scalar(3, 0, 0, 1, 0)
    v = FockVector.vacuum(3).scale(i)
    w = FockVector.vacuum(3)
    assert fock_inner(v, w) == {0: -i}
    assert fock_inner(w, v) == {0: i}


def test_delta_relation_random():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(25):
            v = random_vector(rng, p)
            for j in range(p):
                created = fock_create(j, v)
                for i in range(p):
                    out = fock_annihilate(i, created)
                    assert out == (v if i == j else FockVector.zero(p))


def test_af_delta_relation_random():
    rng = random.Random(12)
    for p in (2, 3):
        for _ in range(25):
            v = random_vector(rng, p)
            for j in range(p):
                created = af_create(j, v)
                for i in range(p):
                    out = af_annihilate(i, created)
                    assert out == (v if i == j else FockVector.zero(p))


def test_number_identity_off_vacuum():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(20):
            v = random_vector(rng, p)
            total = FockVector.zero(p)
            for i in range(p):
                total = total + fock_create(i, fock_annihilate(i, v))
            vac = FockVector(p, {(): v.coefficient(())})
            assert total == v - vac
            total = FockVector.zero(p)
            for i in range(p):
                total = total + af_create(i, af_annihilate(i, v))
            assert total == v - vac


def test_adjointness_below_truncation():
    rng = random.Random(14)
    for p in (2, 3):
        for _ in range(20):
            v = random_vector(rng, p, max_len=3)
            w = random_vector(rng, p, max_len=3)
            for i in range(p):
                assert fock_inner(fock_create(i, v), w) == \
                    fock_inner(v, fock_annihilate(i, w))
                assert fock_inner(af_create(i, v), w) == \
                    fock_inner(v, af_annihilate(i, w))


def test_left_right_commute():
    rng = random.Random(15)
    for p in (2, 3):
        for _ in range(15):
            v = random_vector(rng, p)
            for i in range(p):
                for j in range(p):
                    assert af_create(i, fock_create(j, v)) == \
                        fock_create(j, af_create(i, v))
            # mixed pairs agree on words of length ≥ 1
            body = v.restrict_lengths(lo=1)
            for i in range(p):
                for j in range(p):
                    assert fock_annihilate(j, af_create(i, body)) == \
                        af_create(i, fock_annihilate(j, body))
                    assert af_annihilate(i, fock_create(j, body)) == \
                        fock_create(j, af_annihilate(i, body))


def test_annihilate_sum_matches_componentwise():
    rng = random.Random(16)
    for p in (2, 3):
        v = random_vector(rng, p)
        total = FockVector.zero(p)
        for i in range(p):
            total = total + fock_annihilate(i, v)
        assert annihilate_sum(v) == total


def test_truncation_spill_tally():
    v = FockVector.basis(2, (0, 1), truncation=2)
    kept = fock_create(0, v)
    assert kept.is_zero()
    assert kept.spilled == 1
    again = af_create(1, fock_create(0, FockVector.basis(2, (0,),
                                                         truncation=2)))
    assert again.spilled == 1
    assert again.terms == {}  # second creation spilled the lone word
    # spill is bookkeeping: equality looks at terms only
    assert kept == FockVector.zero(2)


def test_inner_by_length_partitions_inner():
    rng = random.Random(17)
    for p in (2, 3):
        v = random_vector(rng, p)
        w = random_vector(rng, p)
        parts = fock_inner_by_length(v, w)
        total = {}
        for poly in parts.values():
            total = poly_add(total, poly)
        assert total == fock_inner(v, w)


def test_lambda_monomials():
    one = Scalar.one(2)
    half = Scalar.rational(2, Q(1, 2))
    # shift_lambda moves each word's power of λ
    mixed = FockVector(2, {(0,): (1, one), (): (0, half)})
    assert mixed.shift_lambda(2).coefficient((0,)) == (3, one)
    assert mixed.shift_lambda(2).coefficient(()) == (2, half)
    assert mixed.shift_lambda(2).shift_lambda(-2) == mixed
    with pytest.raises(ValueError):
        mixed.shift_lambda(-1)
    # fock_inner conjugates the first slot's scalar, never λ
    i = Scalar(2, 0, 0, 1, 0)
    lam_i = FockVector(2, {(1,): (1, i)})
    lam = FockVector.basis(2, (1,)).shift_lambda(1)
    assert fock_inner(lam_i, lam) == {2: -i}
    assert fock_inner(lam, lam_i) == {2: i}
    assert fock_inner(lam_i, lam_i) == {2: one}
    # exponents are nonnegative integers
    for bad in (-1, 1.0, "1"):
        with pytest.raises(ValueError):
            FockVector(2, {(0,): (bad, one)})
    # one word never carries two powers of λ
    linear = FockVector(2, {(0,): (1, one), (1,): (1, one)})
    square = FockVector(2, {(0,): (2, one)})
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(SelfCheckError) as err:
            combine(linear, square)
        assert str(err.value) == "word '0' would carry both λ^1 and λ^2"
    with pytest.raises(SelfCheckError):
        annihilate_sum(FockVector(2, {(0, 0): (1, one), (0, 1): (2, one)}))
    # matching powers add, and cancel to nothing
    assert square + square == square.scale(Scalar.rational(2, 2))
    assert (square - square).is_zero()


def test_json_round_trip():
    rng = random.Random(18)
    v = random_vector(rng, 3)
    data = v.to_json()
    assert FockVector.from_json(data) == v
    assert list(data["terms"]) == sorted(data["terms"],
                                         key=lambda w: (len(w), w))
    lam = FockVector.basis(2, (1, 0)).shift_lambda(3)
    assert lam.to_json() == {
        "p": 2, "terms": {"10": {"3": ["1/1", "0/1", "0/1", "0/1"]}}}
    two = {"p": 2, "terms": {"1": {"0": ["1/1", "0/1", "0/1", "0/1"],
                                   "2": ["1/1", "0/1", "0/1", "0/1"]}}}
    with pytest.raises(ValueError, match="one monomial"):
        FockVector.from_json(two)


def test_inner_by_length_multi_power_coefficients():
    # the vectors with these polynomial coefficients are sums of
    # single-power vectors, and the inner product is bilinear
    one = Scalar.one(2)
    two = Scalar.rational(2, 2)
    v = split_by_power(2, {(0,): {0: one, 1: one}, (0, 1): {2: two}})
    w = split_by_power(2, {(0,): {1: one, 2: two}, (0, 1): {0: one, 3: -one},
                           (1,): {0: one}})
    parts = inner_by_length_of_sums(v, w)
    # (1 + λ)(λ + 2λ²) and 2λ²(1 − λ³)
    assert parts == {1: {1: one, 2: Scalar.rational(2, 3), 3: two},
                     2: {2: two, 5: -two}}
    total = {}
    for a in v:
        for b in w:
            total = poly_add(total, fock_inner(a, b))
    assert total == poly_add(parts[1], parts[2])
    # contributions that cancel leave nothing at that power
    cancel = split_by_power(2, {(0,): {0: one, 1: -one}})
    flat = split_by_power(2, {(0,): {0: one, 1: one}})
    assert inner_by_length_of_sums(cancel, flat) == {1: {0: one, 2: -one}}
    assert inner_by_length_of_sums(
        cancel, [c.scale(Scalar.zero(2)) for c in cancel]) == {}


def test_inner_by_length_matches_polynomial_products():
    # coefficients drawn from a small pool, so words share objects the way
    # expansions and ladder operators share them
    rng = random.Random(19)
    for p in (2, 3):
        for _ in range(10):
            pool = [{n: c for n in rng.sample(range(4), 2)
                     if not (c := random_scalar(rng, p)).is_zero()}
                    for _ in range(3)]
            specs = [{
                tuple(rng.randrange(p) for _ in range(rng.randint(0, 2))):
                rng.choice(pool) for _ in range(8)} for _ in range(2)]
            v, w = ({word: poly for word, poly in spec.items() if poly}
                    for spec in specs)
            expected = {}
            for word, poly in v.items():
                if word in w:
                    conj = {n: c.conjugate() for n, c in poly.items()}
                    k = len(word)
                    expected[k] = poly_add(expected.get(k, {}),
                                           poly_mul(conj, w[word]))
            pieces_v, pieces_w = split_by_power(p, v), split_by_power(p, w)
            assert inner_by_length_of_sums(pieces_v, pieces_w) == expected
            total = {}
            for poly in expected.values():
                total = poly_add(total, poly)
            pair_sum = {}
            for a in pieces_v:
                for b in pieces_w:
                    pair_sum = poly_add(pair_sum, fock_inner(a, b))
            assert pair_sum == total
