"""Exact field arithmetic in Q(√p) ⊕ i·Q(√p)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_cuntz import (NotPrimeError, ParameterError, Q, Scalar, is_prime,
                         validate_prime)
from padic_cuntz.scalars import format_with_decimal

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
primes = st.sampled_from([2, 3, 5])


@st.composite
def scalars(draw, p=None):
    pp = p if p is not None else draw(primes)
    return Scalar(pp, draw(rationals), draw(rationals),
                  draw(rationals), draw(rationals))


def test_primality():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    with pytest.raises(NotPrimeError):
        validate_prime(4)
    assert validate_prime(101) == 101


def test_primality_matches_trial_division():
    small = [d for d in range(2, 448) if all(d % e for e in range(2, d))]
    for n in range(200_000):
        expect = n >= 2 and all(n % d for d in small
                                if d * d <= n and d < n)
        assert is_prime(n) == expect, n


def test_primality_of_large_numbers():
    # composites that are strong pseudoprimes to the bases up to 7, up to
    # 31, and up to 37 (twelve bases; only base 41 catches the last)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
    # past the proven bound the test refuses rather than guesses
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(ParameterError):
            is_prime(n)


def test_root_p_square_reduces():
    for p in (2, 3, 5, 7):
        r = Scalar.root_p_power(p, 1)
        assert r * r == Scalar.rational(p, p)


def test_root_p_powers():
    assert Scalar.root_p_power(2, 0) == Scalar.one(2)
    assert Scalar.root_p_power(2, 2) == Scalar.rational(2, 2)
    assert Scalar.root_p_power(2, 3) == Scalar(2, 0, 2)
    assert Scalar.root_p_power(2, -1) == Scalar(2, 0, Fraction(1, 2))
    assert Scalar.root_p_power(2, -4) == Scalar.rational(2, Fraction(1, 4))
    assert Scalar.root_p_power(3, -3) == Scalar(3, 0, Fraction(1, 9))


def test_conjugation_fixes_real_part():
    s = Scalar(5, 1, 2, 3, 4)
    c = s.conjugate()
    assert (c.ra, c.rb, c.ia, c.ib) == (1, 2, -3, -4)
    assert c.conjugate() == s


def test_mixed_prime_rejected():
    with pytest.raises(ValueError):
        Scalar.one(2) + Scalar.one(3)


def test_real_sign_exact():
    # 3 - 2·√2 > 0 because 9 > 8; 2 - 2·√2 < 0 because 4 < 8
    assert Scalar(2, 3, -2).real_sign() == 1
    assert Scalar(2, 2, -2).real_sign() == -1
    assert Scalar(2, -3, 2).real_sign() == -1
    assert Scalar(2, -2, 2).real_sign() == 1
    assert Scalar.zero(2).real_sign() == 0
    assert Scalar.root_p_power(7, 1).real_sign() == 1
    with pytest.raises(ValueError):
        Scalar(2, 0, 0, 1, 0).real_sign()


def test_pretty_and_decimal():
    assert Scalar.root_p_power(2, -1).pretty() == "1/2·√2"
    assert Scalar.root_p_power(3, -3).pretty() == "1/9·√3"
    assert Scalar.one(2).pretty() == "1"
    assert Scalar.zero(5).pretty() == "0"
    assert Scalar(2, 0, 0, 0, 1).pretty() == "i·(√2)"
    assert format_with_decimal(Scalar.root_p_power(2, -1)) == \
        "1/2·√2 ≈ 0.70710678"
    assert format_with_decimal(Scalar.one(2)) == "1"


def test_json_round_trip():
    s = Scalar(3, Fraction(1, 2), -2, Fraction(-3, 7), 0)
    data = s.to_json()
    assert data == ["1/2", "-2/1", "-3/7", "0/1"]
    assert Scalar.from_json(3, data) == s


@settings(deadline=None)
@given(st.data(), primes)
def test_field_axioms(data, p):
    a = data.draw(scalars(p))
    b = data.draw(scalars(p))
    c = data.draw(scalars(p))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (b + c) == (a + b) + c
    assert a - a == Scalar.zero(p)


@settings(deadline=None)
@given(st.data(), primes)
def test_conjugation_is_multiplicative(data, p):
    a = data.draw(scalars(p))
    b = data.draw(scalars(p))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(deadline=None)
@given(st.data(), primes)
def test_norm_is_real_and_nonnegative(data, p):
    a = data.draw(scalars(p))
    n = a * a.conjugate()
    assert n.is_real()
    assert n.real_sign() >= 0


@settings(deadline=None)
@given(st.data(), primes, st.integers(min_value=-6, max_value=6))
def test_root_p_power_multiplies(data, p, n):
    a = data.draw(scalars(p))
    assert a.mul_root_p_power(n) == a * Scalar.root_p_power(p, n)


def test_rational_coercions():
    s = Scalar.rational(2, "3/4")
    assert s == Scalar(2, Fraction(3, 4))
    assert s == Q(3, 4)
    assert hash(s) == hash(Q(3, 4)) and hash(Scalar.one(5)) == hash(1)
    assert len({Scalar.rational(3, 2), 2, Fraction(2)}) == 1
    assert Scalar.one(2) == 1
    assert Scalar.one(2) + 1 == Scalar.rational(2, 2)
    assert 2 * Scalar.root_p_power(2, 1) == Scalar(2, 0, 2)


# -- the kernel against an independent 4-tuple-of-Fraction reference -----------
#
# A reference value is (a, b, c, d) of Fractions, meaning a + b√p + i(c + d√p).


def ref_of(s):
    return (s.ra, s.rb, s.ia, s.ib)


def ref_mul(p, x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    # (r1 + i·m1)(r2 + i·m2) = (r1r2 − m1m2) + i(r1m2 + m1r2) in Q(√p)
    r = (a1 * a2 + p * b1 * b2 - (c1 * c2 + p * d1 * d2),
         a1 * b2 + b1 * a2 - (c1 * d2 + d1 * c2))
    m = (a1 * c2 + p * b1 * d2 + c1 * a2 + p * d1 * b2,
         a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)
    return r + m


def ref_mul_root_p_power(p, x, n):
    step = (Q(0), Q(1), Q(0), Q(0)) if n > 0 else (Q(0), Q(1, p), Q(0), Q(0))
    for _ in range(abs(n)):
        x = ref_mul(p, x, step)
    return x


def agrees(p, z, ref):
    """z has the reference's components and the canonical fields of the
    same value built from them, so == and hash see no route."""
    built = Scalar(p, *ref)
    return ref_of(z) == ref and z == built and hash(z) == hash(built)


@settings(deadline=None)
@given(st.data(), primes, st.integers(min_value=-6, max_value=6), rationals)
def test_kernel_matches_fraction_reference(data, p, n, r):
    x = data.draw(scalars(p))
    y = data.draw(scalars(p))
    rx, ry = ref_of(x), ref_of(y)
    assert agrees(p, x + y, tuple(u + v for u, v in zip(rx, ry)))
    assert agrees(p, x - y, tuple(u - v for u, v in zip(rx, ry)))
    assert agrees(p, x * y, ref_mul(p, rx, ry))
    assert agrees(p, -x, tuple(-u for u in rx))
    assert agrees(p, x.conjugate(), rx[:2] + (-rx[2], -rx[3]))
    assert agrees(p, x * r, tuple(u * r for u in rx))
    assert agrees(p, x.mul_root_p_power(n), ref_mul_root_p_power(p, rx, n))
    assert agrees(p, Scalar.root_p_power(p, n),
                  ref_mul_root_p_power(p, (Q(1), Q(0), Q(0), Q(0)), n))


@settings(deadline=None)
@given(st.data(), primes)
def test_canonical_form(data, p):
    x = data.draw(scalars(p))
    y = data.draw(scalars(p))
    routes = [(x + y) - y, (x * y + x) - x * y, x.mul_root_p_power(3)
              .mul_root_p_power(-3), Scalar.from_json(p, x.to_json()),
              Scalar(p, *ref_of(x))]
    for z in routes:
        assert z == x
        assert hash(z) == hash(x)
        assert z.to_json() == x.to_json()
    zero = x - x
    assert zero == Scalar.zero(p) and hash(zero) == hash(Scalar.zero(p))
    assert zero.to_json() == ["0/1"] * 4
    for u, text in zip(ref_of(x), x.to_json()):
        assert text == f"{u.numerator}/{u.denominator}"


def test_from_ints():
    assert Scalar.from_ints(3, 2, 4, 0, 6, 8) == \
        Scalar(3, Fraction(1, 4), Fraction(1, 2), 0, Fraction(3, 4))
    assert Scalar.from_ints(3, 1, q=-2) == Scalar.rational(3, Fraction(-1, 2))
    assert Scalar.from_ints(5, 0, 0, 0, 0, 7).to_json() == ["0/1"] * 4
    with pytest.raises(ZeroDivisionError):
        Scalar.from_ints(2, 1, q=0)
    s = Scalar(2, Fraction(1, 2), 0, Fraction(-1, 3))
    assert s.to_json() == ["1/2", "0/1", "-1/3", "0/1"]
    assert (s.ra, s.rb, s.ia, s.ib) == (Fraction(1, 2), 0, Fraction(-1, 3), 0)


# -- the reduction kernels against the same reference --------------------------


Q_ZERO = (Q(0),) * 4


def ref_sum(xs):
    return tuple(sum(parts, Q(0)) for parts in zip(Q_ZERO, *xs))


def conj_ref(x):
    return x[:2] + (-x[2], -x[3])


@st.composite
def operands(draw, p):
    """Mixed denominators, full-field values, and zeros both interned and
    built by arithmetic (x − x is a distinct zero object)."""
    x = draw(scalars(p))
    kind = draw(st.sampled_from(("value", "value", "zero", "made-zero",
                                 "one-part")))
    if kind == "zero":
        return Scalar.zero(p)
    if kind == "made-zero":
        return x - x
    if kind == "one-part":  # a lone nonzero component, any of the four
        parts = [Q(0)] * 4
        parts[draw(st.integers(0, 3))] = draw(rationals.filter(bool))
        return Scalar(p, *parts)
    return x


@settings(deadline=None)
@given(st.data(), primes)
def test_sum_and_dot_match_fraction_reference(data, p):
    xs = data.draw(st.lists(operands(p), max_size=8))
    ys = data.draw(st.lists(operands(p), min_size=len(xs),
                            max_size=len(xs)))
    rxs, rys = [ref_of(x) for x in xs], [ref_of(y) for y in ys]
    assert agrees(p, Scalar.sum(p, xs), ref_sum(rxs))
    assert agrees(p, Scalar.sum(p, iter(xs)), ref_sum(rxs))
    want = ref_sum([ref_mul(p, conj_ref(u), v) for u, v in zip(rxs, rys)])
    assert agrees(p, Scalar.dot(p, xs, ys), want)
    assert Scalar.sum(p, xs).to_json() == Scalar(p, *ref_sum(rxs)).to_json()
    assert Scalar.dot(p, xs, ys).to_json() == Scalar(p, *want).to_json()


def test_reductions_of_nothing_and_of_zeros_are_zero():
    for p in (2, 3, 5):
        made = Scalar.one(p) - Scalar.one(p)
        assert made is not Scalar.zero(p)
        for total in (Scalar.sum(p, []), Scalar.dot(p, [], []),
                      Scalar.sum(p, [made, Scalar.zero(p)]),
                      Scalar.dot(p, [made, Scalar.one(p)],
                                 [Scalar.root_p_power(p, 1), made])):
            assert total == Scalar.zero(p) and total.to_json() == ["0/1"] * 4
            assert hash(total) == hash(0)


def test_reductions_keep_every_component_and_conjugate_the_first_slot():
    p = 3
    units = [Scalar(p, *(Q(1, 2) if j == i else 0 for j in range(4)))
             for i in range(4)]
    third = Scalar.rational(p, Q(1, 3))
    # each component alone, after a value over another denominator
    for u in units:
        assert Scalar.sum(p, [third, u]) - third == u
        assert Scalar.sum(p, [Scalar.zero(p), u]) == u
        assert Scalar.dot(p, [Scalar.one(p)], [u]) == u
        assert Scalar.dot(p, [u, third], [Scalar.one(p)] * 2) == \
            u.conjugate() + third
    i = Scalar(p, 0, 0, 1, 0)
    assert Scalar.dot(p, [i], [i]) == Scalar.one(p)        # conj(i)·i = 1
    assert Scalar.dot(p, [i], [Scalar.one(p)]) == -i       # conj(i)·1 = −i
    # ½ + ⅓ + ¼ over a denominator that grows twice
    parts = [Scalar.rational(p, Q(1, n)) for n in (2, 3, 4)]
    assert Scalar.sum(p, parts) == Scalar.rational(p, Q(13, 12))
    assert Scalar.dot(p, parts, parts) == Scalar.rational(p, Q(61, 144))
