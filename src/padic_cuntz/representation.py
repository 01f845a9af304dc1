"""The Cuntz algebra acting on step functions over Z_p.

Creation sends ξ(x) to √p·θ₁(x−i)·ξ([x/p]) (depth goes up by one);
annihilation sends ξ(x) to p^{−1/2}·ξ(i+px) (depth goes down by one,
constants stay constants).  Under the coset index encoding n = Σ d_j p^j
both are pure index arithmetic on the raw values of a step function
p^{e/2}·raw: creation interleaves, (e+1, zeros with out[i::p] = raw), and
annihilation takes a stride-p slice, (e−1, raw[i::p]).  A word acts as
one contraction x ↦ c + p^k·x (c the coset index of the reversed word),
so A†_I is one interleave at stride p^{|I|} and A_J one slice.  None of
them does any scalar arithmetic.

These operators satisfy the Cuntz relations on the nose:
A_i A†_j = δ_ij and Σ_i A†_i A_i = 1, and are mutually adjoint for the
L² pairing with normalized Haar measure.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter

from .errors import OperatorParseError, SelfCheckError
from .scalars import Scalar, validate_prime
from .stepfunctions import StepFunction, _check_cap, coset_index, indicator
from .words import (Word, check_letter, validate_word, word_str,
                    words_of_length)

CREATE = "create"
ANNIHILATE = "annihilate"
_FACTOR = re.compile(r"a([0-9]*)(\*?)")   # ASCII digits only


def _offset(p: int, word: Word) -> int:
    """coset_index of the reversed word, each letter checked."""
    for i in word:
        check_letter(i, p)
    return coset_index(p, word[::-1])


def _interleave(f: StepFunction, offset: int, k: int, e: int) -> StepFunction:
    """A†_I f over p^{(exp+e)/2} for offset = _offset(I), k = |I|: the raw
    values at the indices offset + p^k·m, zeros elsewhere."""
    p = f.p
    out = [Scalar.zero(p)] * _check_cap(p, f.depth + k)
    out[offset::p ** k] = f.raw
    return StepFunction._raw(p, f.depth + k, tuple(out), f.exp + e)


def _slice(f: StepFunction, offset: int, k: int, e: int) -> StepFunction:
    """A_J f over p^{(exp+e)/2} for offset = _offset(J), k = |J|: the slice
    raw[offset::p^k], stopped at depth 0, where a constant only rescales."""
    k = min(k, f.depth)
    m = f.p ** k
    return StepFunction._raw(f.p, f.depth - k, f.raw[offset % m::m], f.exp + e)


def apply_creation(i: int, f: StepFunction) -> StepFunction:
    """A†_i f: value √p·f(m) at coset index i + p·m, zero elsewhere."""
    check_letter(i, f.p)
    return _interleave(f, i, 1, 1)


def apply_annihilation(i: int, f: StepFunction) -> StepFunction:
    """A_i f: value p^{−1/2}·f(i + p·m) at index m; constants scale."""
    check_letter(i, f.p)
    return _slice(f, i, 1, -1)


def parse_operator_word(text: str) -> tuple[tuple[str, int], ...]:
    """Parse 'a1* a0* a1' into (kind, letter) factors, leftmost outermost;
    * marks creators."""
    factors = []
    for token in re.finditer(r"\S+", text):
        m = _FACTOR.match(text, pos := token.start())
        if m is None:
            raise OperatorParseError(f"expected 'a', found {text[pos]!r}", pos)
        if not m[1]:
            raise OperatorParseError("expected a letter index after 'a'",
                                     pos + 1)
        if m.end() < token.end():
            raise OperatorParseError(
                f"unexpected character {text[m.end()]!r}", m.end())
        factors.append((CREATE if m[2] else ANNIHILATE, int(m[1])))
    return tuple(factors)


def apply_operator_word(factors: tuple[tuple[str, int], ...],
                        f: StepFunction) -> StepFunction:
    """Compose factors right-to-left, each run of one kind as one move."""
    for kind, run in groupby(reversed(factors), key=itemgetter(0)):
        w = tuple(letter for _, letter in run)   # first to act first
        if kind == CREATE:   # A†_I with I = w
            f = creation_chain(f.p, w, f)
        elif kind == ANNIHILATE:   # A_J with J = w reversed, as written
            f = _slice(f, _offset(f.p, w[::-1]), len(w), -len(w))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return f


def creation_chain(p: int, I: Word,
                   f: StepFunction | None = None) -> StepFunction:
    """A†_I f = A†_{i_{k−1}}···A†_{i₀} f (defaults to the constant 1), as
    one interleave at stride p^{|I|}."""
    if f is None:
        f = StepFunction.constant(p, 1)
    elif f.p != p:
        raise ValueError(f"a chain over p = {p} on a function over {f.p}")
    return _interleave(f, _offset(p, I), len(I), len(I))


def gns_state(p: int, I: Word, J: Word) -> Scalar:
    """⟨A†_I A_J⟩ computed as ∫ (A†_I A_J·1) dμ, self-checked.

    The integral of A†_I (one interleave) on A_J·1 (a constant) must be
    p^{−(|I|+|J|)/2}: each path is the other's oracle (SelfCheckError).
    """
    validate_prime(p)
    I = validate_word(I, p)
    J = validate_word(J, p)
    one = StepFunction._raw(p, 0, (Scalar.one(p),))   # I, J checked above
    f = _slice(one, coset_index(p, J[::-1]), len(J), -len(J))
    f = _interleave(f, coset_index(p, I[::-1]), len(I), len(I))
    value = f.integrate()
    expected = Scalar.root_p_power(p, -(len(I) + len(J)))
    if value != expected:
        raise SelfCheckError(
            f"state of A†_{word_str(I, p) or 'Ω'} A_{word_str(J, p) or 'Ω'}: "
            f"integral gave {value.pretty()}, closed form "
            f"{expected.pretty()}")
    return value


def cyclicity_basis(p: int, k: int) -> list[StepFunction]:
    """{A†_I·1 : |I| = k}, verified to be p^{k/2} × the depth-k indicators.

    The creation chain on the constant function reaches every depth-k
    coset (with msd-first centers), which is exactly why the constant
    function is cyclic at finite depth.
    """
    validate_prime(p)
    _check_cap(p, k)
    basis = []
    for I in words_of_length(p, k):
        g = creation_chain(p, I)
        expected = indicator(p, I[::-1]).mul_root_p_power(k)
        if g != expected:
            raise SelfCheckError(
                f"A†_{word_str(I, p)}·1 is not p^{k}/2-scaled indicator")
        basis.append(g)
    return basis
