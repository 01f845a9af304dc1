"""A whole word as one strided move: each word move equals the letter-by-
letter composition of the single-letter operators, the reference.  And
layers that share a raw tuple are moved and paired once per call, which
no output may show."""

import random
from functools import reduce

from hypothesis import given, settings, strategies as st

from padic_cuntz import (CoherentState, FockVector, NotStabilizedError,
                         StepFunction, af_annihilate, af_create,
                         af_state_value, annihilate_sum, apply_annihilation,
                         apply_creation, apply_operator_word, create_sum,
                         creation_chain, pairing_series,
                         to_fock_truncated)
from padic_cuntz import coherent
from padic_cuntz.coherent import _series
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


@st.composite
def coherent_states(draw, p):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = random_step_function(rng, p, draw(st.integers(0, 3)))
    return CoherentState(g.mul_root_p_power(draw(st.integers(-2, 2))))


def unshared(f: StepFunction) -> StepFunction:
    return StepFunction._raw(f.p, f.depth, tuple(list(f.raw)), f.exp)


def fresh(v: FockVector) -> FockVector:
    """The same vector with every layer on a raw tuple of its own."""
    out = FockVector._raw(v.p, {k: unshared(f) for k, f in v.layers.items()},
                          v.truncation, v.spilled, v.shift)
    assert len({id(f.raw) for f in out.layers.values()}) == len(out.layers)
    return out


def scalar(c):
    return c.p, c.a, c.b, c.c, c.d, c.q


def outcome(call, *args):
    """A value's stored parts, or the text of the error below the needed N."""
    try:
        return scalar(call(*args))
    except NotStabilizedError as e:
        return "NotStabilizedError", str(e)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES[:3]))
def test_layer_sharing_does_not_show_in_fock_moves(data, p):
    # every layer of to_fock_truncated past the generator's depth holds
    # the generator's own raw tuple
    s = data.draw(coherent_states(p))
    v = to_fock_truncated(s, data.draw(st.integers(0, 6)))
    w = fresh(v)
    I, J = data.draw(words(p, 3)), data.draw(words(p, 3))
    moves = [lambda u: _af_create_word(I, u),
             lambda u: _af_annihilate_word(J, u),
             lambda u: _af_create_word(I, _af_annihilate_word(J, u)),
             create_sum, annihilate_sum]
    for move in moves:
        assert layers_of(move(v)) == layers_of(move(w))


def series_parts(la, lb, kmax):
    """A series' terms and index, or the error text when it has no tail."""
    try:
        s = _series(la, lb, kmax)
    except NotStabilizedError as e:
        return str(e)
    return [scalar(c) for c in s.terms], s.stabilized_at, scalar(s.value)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES[:3]))
def test_layer_sharing_does_not_show_in_pairing_series(data, p):
    a, b = data.draw(coherent_states(p)), data.draw(coherent_states(p))
    kmax = max(a.depth, b.depth) + 2
    la = [a.layer(k) for k in range(kmax + 1)]
    lb = [b.layer(k) for k in range(kmax + 1)]
    shared = pairing_series(a, b)
    alone = [unshared(f) for f in la], [unshared(f) for f in lb]
    assert ([scalar(c) for c in shared.terms], shared.stabilized_at,
            scalar(shared.value)) == series_parts(*alone, kmax)
    # past its depth a state's layer k is its generator's tuple at exponent
    # −2k, which the p^{2k} of c_k cancels, so in two states' series every
    # repeat has gap 0; two head lengths at drawn exponents have others
    i, j = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    la = [la[kmax].mul_root_p_power(i), la[kmax].mul_root_p_power(j)] + la[2:]
    lb = [lb[kmax], lb[kmax]] + lb[2:]
    alone = [unshared(f) for f in la], [unshared(f) for f in lb]
    assert series_parts(la, lb, kmax) == series_parts(*alone, kmax)


@settings(deadline=None)
@given(st.data(), st.sampled_from(PRIMES[:3]))
def test_layer_sharing_does_not_show_in_antifock_values(data, p):
    # 1̂'s layers all hold (1,); the same value from a 1̂ that shares none
    I, J = data.draw(words(p, 3)), data.draw(words(p, 3))
    N = data.draw(st.integers(0, len(I) + len(J) + 5))
    shared = outcome(af_state_value, p, I, J, N)
    one_hat = coherent._one_hat
    try:
        coherent._one_hat = lambda p, N: fresh(one_hat(p, N))
        alone = outcome(af_state_value, p, I, J, N)
    finally:
        coherent._one_hat = one_hat
    assert shared == alone
