"""A whole word as one strided move: each word move equals the letter-by-
letter composition of the single-letter operators, the reference."""

import random
from functools import reduce

from hypothesis import given, settings, strategies as st

from padic_cuntz import (FockVector, StepFunction, af_annihilate, af_create,
                         apply_annihilation, apply_creation,
                         apply_operator_word, creation_chain)
from padic_cuntz.fock import _af_annihilate_word, _af_create_word
from padic_cuntz.representation import ANNIHILATE, CREATE
from padic_cuntz.suites import random_step_function

PRIMES = (2, 3, 5, 11)
#: the largest function a drawn creation word may build
MAX_VALUES = 20_000


def stored(f: StepFunction):
    """Everything a step function stores, so equal means the same move."""
    return f.p, f.depth, f.exp, f.raw


def words(p, max_len=4):
    return st.lists(st.integers(0, p - 1), max_size=max_len).map(tuple)


@st.composite
def step_functions(draw, p):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = random_step_function(rng, p, draw(st.integers(0, 3)))
    return f.mul_root_p_power(draw(st.integers(-3, 3)))


@st.composite
def fock_vectors(draw, p):
    """Nonzero layers of drawn depths at lengths up to a drawn truncation,
    with a drawn shift and spill count."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    trunc = draw(st.integers(0, 5))
    layers = {}
    for k in draw(st.sets(st.integers(0, trunc), max_size=trunc + 1)):
        f = random_step_function(rng, p, rng.randint(0, min(k, 3)))
        if not f.is_zero():
            layers[k] = f.mul_root_p_power(rng.randint(-2, 2))
    return FockVector._raw(p, layers, trunc, rng.randint(0, 3),
                           draw(st.integers(0, 2)))


def layers_of(v: FockVector):
    return ({k: stored(f) for k, f in v.layers.items()}, v.shift, v.spilled,
            v.truncation)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_creation_word_is_its_letters_in_turn(data, p):
    f = data.draw(step_functions(p))
    longest = 0
    while longest < 4 and p ** (f.depth + longest + 1) <= MAX_VALUES:
        longest += 1
    I = data.draw(words(p, longest))
    by_letters = reduce(lambda g, i: apply_creation(i, g), I, f)
    assert stored(creation_chain(p, I, f)) == stored(by_letters)
    factors = tuple((CREATE, i) for i in reversed(I))   # A†_{i₀} acts first
    assert stored(apply_operator_word(factors, f)) == stored(by_letters)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_annihilation_word_is_its_letters_in_turn(data, p):
    # |J| may pass the depth: the function ends constant and only rescales
    f = data.draw(step_functions(p))
    J = data.draw(words(p))
    by_letters = reduce(lambda g, j: apply_annihilation(j, g), reversed(J), f)
    factors = tuple((ANNIHILATE, j) for j in J)   # A_J: the last acts first
    assert stored(apply_operator_word(factors, f)) == stored(by_letters)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_mixed_runs_are_their_letters_in_turn(data, p):
    f = data.draw(step_functions(p))
    kinds = st.sampled_from((CREATE, ANNIHILATE))
    factors = tuple(data.draw(st.lists(
        st.tuples(kinds, st.integers(0, p - 1)), max_size=6)))
    if p ** (f.depth + sum(k == CREATE for k, _ in factors)) > MAX_VALUES:
        factors = tuple((ANNIHILATE, i) for _, i in factors)
    by_letters = f
    for kind, i in reversed(factors):
        op = apply_creation if kind == CREATE else apply_annihilation
        by_letters = op(i, by_letters)
    assert stored(apply_operator_word(factors, f)) == stored(by_letters)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES[:3]))
def test_af_word_moves_are_their_letters_in_turn(data, p):
    # layers, shift and spill tally: a layer that passes the truncation
    # spills its words once, whichever letter takes it past
    v = data.draw(fock_vectors(p))
    I = data.draw(words(p, 3))
    J = data.draw(words(p, 3))
    created = reduce(lambda w, i: af_create(i, w), I, v)
    assert layers_of(_af_create_word(I, v)) == layers_of(created)
    stripped = reduce(lambda w, j: af_annihilate(j, w), reversed(J), v)
    assert layers_of(_af_annihilate_word(J, v)) == layers_of(stripped)
