"""Step functions on Z_p: indicators, refinement, Haar integral, L² pairing."""

import random
from fractions import Fraction

import pytest

import padic_cuntz.stepfunctions as stepfunctions
from padic_cuntz import (CapExceededError, InvalidDigitError, ParameterError,
                         Scalar, StepFunction, coset_index, cyclicity_basis,
                         indicator, l2_inner, word_to_center)
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
        indicator(3, (0, 3))
    with pytest.raises(InvalidDigitError):   # a bool is not a digit
        indicator(2, (True, False))


def test_refine_examples():
    c = StepFunction.constant(2, Fraction(5, 7))
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
    assert indicator(2, [0]).integrate() == Scalar.rational(2, Fraction(1, 2))
    assert StepFunction.constant(3, 1).integrate() == Scalar.one(3)
    assert indicator(2, [0, 1]).integrate() == \
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
    one = StepFunction.constant(5, 1)
    assert l2_inner(one, one) == Scalar.one(5)


def test_l2_conjugate_linear_first_slot():
    i = Scalar(2, 0, 0, 1, 0)
    f = StepFunction.constant(2, 1).scale(i)
    g = StepFunction.constant(2, 1)
    assert l2_inner(f, g) == -i
    assert l2_inner(g, f) == i


def test_refinement_invariance():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(20):
            f = random_step_function(rng, p, rng.randint(0, 3))
            g = random_step_function(rng, p, rng.randint(0, 3))
            k = max(f.depth, g.depth) + rng.randint(1, 2)
            assert f.refine(k).integrate() == f.integrate()
            assert l2_inner(f.refine(k), g.refine(k)) == l2_inner(f, g)


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
        assert total == StepFunction.constant(p, 1)


def test_zero_past_the_cap_is_refused():
    with pytest.raises(CapExceededError):
        StepFunction.zero(2, 40)


def test_random_step_function_checks_the_cap_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(CapExceededError):
        random_step_function(rng, 10007, 2)   # 10^8 values
    assert rng.getstate() == state   # refused before the first draw


def test_a_negative_depth_is_a_parameter_error():
    for build in (StepFunction.zero, cyclicity_basis):
        with pytest.raises(ParameterError,
                           match="depth must be nonnegative, got -1"):
            build(2, -1)


def test_value_prime_must_match_function_prime():
    for build in (lambda: StepFunction.constant(3, Scalar.one(2)),
                  lambda: StepFunction(3, 0, [Scalar.one(2)])):
        with pytest.raises(ValueError,
                           match="value prime does not match function prime"):
            build()


def test_word_to_center_conventions():
    lsd = word_to_center(2, (0, 1), "lsd")
    assert lsd == (0, 1) and coset_index(2, lsd) == 2
    msd = word_to_center(2, (0, 1), "msd")
    assert msd == (1, 0) and coset_index(2, msd) == 1
    # oracle for the msd convention: two creations on the constant function
    # give 2·θ₂ centered at the msd reading of the word
    chain = creation_chain(2, (0, 1))
    support = [n for n, v in enumerate(chain.values) if not v.is_zero()]
    assert support == [coset_index(2, msd)]
    empty = word_to_center(3, (), "lsd")
    assert empty == () and coset_index(3, empty) == 0
    assert word_to_center(3, (), "msd") == ()
    with pytest.raises(ValueError):
        word_to_center(2, (0,), "bsd")


def test_semantic_equality_across_depths(monkeypatch):
    f = StepFunction.constant(2, Fraction(1, 3))
    assert f == f.refine(3)
    assert not (indicator(2, [0]) == StepFunction.constant(2, 1))
    # the deeper operand has 2^24 values, past the default VALUE_CAP; the
    # shallower one is compared against its fibres, not refined to it
    with monkeypatch.context() as m:
        m.setattr(stepfunctions, "VALUE_CAP", 10**8)
        deep = apply_creation(0, indicator(2, [0] * 23))
    assert deep.depth == 24
    assert not (StepFunction.constant(2, 1) == deep)
    assert not (deep == StepFunction.constant(2, 1))
    # equal at different depths and different stored √p exponents:
    # A†_0 1 + A†_1 1 is the constant √2
    one = StepFunction.constant(2, 1)
    root = apply_creation(0, one) + apply_creation(1, one)
    assert (root.depth, root.exp) == (1, 1)
    assert root == StepFunction.constant(2, Scalar.root_p_power(2, 1))
    assert StepFunction.constant(2, Scalar.root_p_power(2, 1)) == root
    assert root != StepFunction.constant(2, 1)
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
    assert f + g == StepFunction.constant(2, 1)
    assert (f - f).is_zero()
    root = Scalar.root_p_power(2, 1)
    assert f.scale(root).values[0] == root
    assert (2 * f).values[0] == Scalar.rational(2, 2)
    assert (-f).values[0] == Scalar.rational(2, -1)


def test_json_round_trip():
    f = indicator(3, [2, 0]).scale(Scalar(3, 1, Fraction(1, 2)))
    data = f.to_json()
    assert data["p"] == 3 and data["depth"] == 2
    assert len(data["values"]) == 9
    assert StepFunction.from_json(data) == f
