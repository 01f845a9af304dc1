"""Step functions on Z_p: indicators, refinement, Haar integral, L² pairing."""

import random
from fractions import Fraction

import pytest

from padic_cuntz import (CapExceededError, DiskAddress, InvalidDigitError,
                         Scalar, StepFunction, constant, indicator, integrate,
                         l2_inner, refine, word_to_center)
from padic_cuntz.representation import apply_creation, creation_chain
from padic_cuntz.suites import random_step_function


def test_indicator_examples():
    f = indicator(2, [1])
    assert [v.pretty() for v in f.values] == ["0", "1"]
    g = indicator(3, [])
    assert g.depth == 0 and g.values[0] == Scalar.one(3)
    h = indicator(2, [0, 1])
    assert [n for n, v in enumerate(h.values) if not v.is_zero()] == [2]


def test_indicator_invalid_digit():
    with pytest.raises(InvalidDigitError):
        indicator(2, [2])
    with pytest.raises(InvalidDigitError):
        DiskAddress(3, (0, 3))


def test_refine_examples():
    c = constant(2, Fraction(5, 7))
    assert [v for v in c.refine(1).values] == [c.values[0]] * 2
    f = StepFunction(2, 1, [0, 1])
    # children of coset n at depth k sit at n + m·p^k: coset 1 → indices 1, 3
    assert [v.pretty() for v in f.refine(2).values] == ["0", "1", "0", "1"]
    assert f.refine(2).refine(4) == f.refine(4)
    assert f.refine(2).refine(4).values == f.refine(4).values


def test_refine_errors():
    f = indicator(2, [0, 1])
    with pytest.raises(ValueError):
        f.refine(1)
    with pytest.raises(CapExceededError):
        f.refine(40)


def test_integrate_examples():
    assert integrate(indicator(2, [0])) == Scalar.rational(2, Fraction(1, 2))
    assert integrate(constant(3, 1)) == Scalar.one(3)
    assert integrate(indicator(2, [0, 1])) == \
        Scalar.rational(2, Fraction(1, 4))


def test_l2_examples():
    theta = indicator(2, [0])
    shifted = indicator(2, [1])
    assert l2_inner(theta, shifted) == Scalar.zero(2)
    two_theta = theta.scale(2)
    # oracle: brute sum over the depth-3 refinement with plain Fractions
    brute = Fraction(0)
    for n in range(8):
        v = Fraction(2) if n % 2 == 0 else Fraction(0)
        brute += v * v
    brute /= 8
    assert brute == 2
    assert l2_inner(two_theta, two_theta) == Scalar.rational(2, brute)
    assert l2_inner(constant(5, 1), constant(5, 1)) == Scalar.one(5)


def test_l2_conjugate_linear_first_slot():
    i = Scalar(2, 0, 0, 1, 0)
    f = constant(2, 1).scale(i)
    g = constant(2, 1)
    assert l2_inner(f, g) == -i
    assert l2_inner(g, f) == i


def test_refinement_invariance():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(20):
            f = random_step_function(rng, p, rng.randint(0, 3))
            g = random_step_function(rng, p, rng.randint(0, 3))
            k = max(f.depth, g.depth) + rng.randint(1, 2)
            assert integrate(refine(f, k)) == integrate(f)
            assert l2_inner(refine(f, k), refine(g, k)) == l2_inner(f, g)


def test_l2_self_inner_nonnegative():
    rng = random.Random(6)
    for p in (2, 3, 5):
        for _ in range(20):
            f = random_step_function(rng, p, rng.randint(0, 2))
            n = l2_inner(f, f)
            assert n.is_real()
            assert n.real_sign() >= 0


def test_depth_one_indicators_partition_unity():
    for p in (2, 3, 5):
        total = indicator(p, [0])
        for i in range(1, p):
            total = total + indicator(p, [i])
        assert total == constant(p, 1)


def test_word_to_center_conventions():
    lsd = word_to_center(2, (0, 1), "lsd")
    assert lsd.digits == (0, 1) and lsd.center == 2
    msd = word_to_center(2, (0, 1), "msd")
    assert msd.digits == (1, 0) and msd.center == 1
    # oracle for the msd convention: two creations on the constant function
    # give 2·θ₂ centered at the msd reading of the word
    chain = creation_chain(2, (0, 1))
    support = [n for n, v in enumerate(chain.values) if not v.is_zero()]
    assert support == [msd.center]
    empty = word_to_center(3, (), "lsd")
    assert empty.digits == () and empty.center == 0
    assert word_to_center(3, (), "msd").digits == ()
    with pytest.raises(ValueError):
        word_to_center(2, (0,), "bsd")


def test_semantic_equality_across_depths():
    f = constant(2, Fraction(1, 3))
    assert f == f.refine(3)
    assert not (indicator(2, [0]) == constant(2, 1))
    # the deeper operand has 2^24 values, past the default VALUE_CAP; the
    # shallower one is compared against its fibres, not refined to it
    deep = apply_creation(0, indicator(2, [0] * 23), cap=10**8)
    assert deep.depth == 24
    assert not (constant(2, 1) == deep)
    assert not (deep == constant(2, 1))
    # equal at different depths and different stored √p exponents:
    # A†_0 1 + A†_1 1 is the constant √2
    one = constant(2, 1)
    root = apply_creation(0, one) + apply_creation(1, one)
    assert (root.depth, root.exp) == (1, 1)
    assert root == constant(2, Scalar.root_p(2))
    assert constant(2, Scalar.root_p(2)) == root
    assert root != constant(2, 1)
    # one value off in the last fibre
    rng = random.Random(29)
    g = random_step_function(rng, 3, 1)
    fine = g.refine(3)
    assert fine == g and g == fine
    off = StepFunction(3, 3, fine.values[:-1] + (fine.values[-1] + 1,))
    assert off != g and g != off


def test_arithmetic_and_scaling():
    f = indicator(2, [0])
    g = indicator(2, [1])
    assert f + g == constant(2, 1)
    assert (f - f).is_zero()
    assert f.scale(Scalar.root_p(2)).values[0] == Scalar.root_p(2)
    assert (2 * f).values[0] == Scalar.rational(2, 2)
    assert (-f).values[0] == Scalar.rational(2, -1)


def test_json_round_trip():
    f = indicator(3, [2, 0]).scale(Scalar(3, 1, Fraction(1, 2)))
    data = f.to_json()
    assert data["p"] == 3 and data["depth"] == 2
    assert len(data["values"]) == 9
    assert StepFunction.from_json(data) == f
