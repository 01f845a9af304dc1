"""The Cuntz algebra acting on step functions over Z_p.

Creation sends ξ(x) to √p·θ₁(x−i)·ξ([x/p]) (depth goes up by one);
annihilation sends ξ(x) to p^{−1/2}·ξ(i+px) (depth goes down by one,
constants stay constants).  Under the coset index encoding n = Σ d_j p^j
both are pure index arithmetic on the raw values of a step function
p^{e/2}·raw: creation interleaves, (e+1, zeros with out[i::p] = raw), and
annihilation takes a stride-p slice, (e−1, raw[i::p]).  Neither does any
scalar arithmetic.

These operators satisfy the Cuntz relations on the nose:
A_i A†_j = δ_ij and Σ_i A†_i A_i = 1, and are mutually adjoint for the
L² pairing with normalized Haar measure.
"""

from __future__ import annotations

from .errors import OperatorParseError, SelfCheckError
from .scalars import Scalar, validate_prime
from .stepfunctions import StepFunction, _check_cap, indicator
from .words import (Word, check_letter, validate_word, word_str,
                    words_of_length)

CREATE = "create"
ANNIHILATE = "annihilate"


def apply_creation(i: int, f: StepFunction) -> StepFunction:
    """A†_i f: value √p·f(m) at coset index i + p·m, zero elsewhere."""
    p = f.p
    check_letter(i, p)
    out = [Scalar.zero(p)] * _check_cap(p, f.depth + 1)
    out[i::p] = f.raw
    return StepFunction._raw(p, f.depth + 1, tuple(out), f.exp + 1)


def apply_annihilation(i: int, f: StepFunction) -> StepFunction:
    """A_i f: value p^{−1/2}·f(i + p·m) at index m; constants scale."""
    p = f.p
    check_letter(i, p)
    if f.depth == 0:
        return StepFunction._raw(p, 0, f.raw, f.exp - 1)
    return StepFunction._raw(p, f.depth - 1, f.raw[i::p], f.exp - 1)


def parse_operator_word(text: str) -> tuple[tuple[str, int], ...]:
    """Parse 'a1* a0* a1' into (kind, letter) factors, leftmost outermost;
    * marks creators."""
    factors = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "a":
            raise OperatorParseError(
                f"expected 'a', found {text[pos]!r}", pos)
        pos += 1
        digits = ""
        while pos < n and "0" <= text[pos] <= "9":
            digits += text[pos]
            pos += 1
        if not digits:
            raise OperatorParseError("expected a letter index after 'a'", pos)
        kind = ANNIHILATE
        if pos < n and text[pos] == "*":
            kind = CREATE
            pos += 1
        if pos < n and not text[pos].isspace():
            raise OperatorParseError(
                f"unexpected character {text[pos]!r}", pos)
        factors.append((kind, int(digits)))
    return tuple(factors)


def apply_operator_word(factors: tuple[tuple[str, int], ...],
                        f: StepFunction) -> StepFunction:
    """Compose (kind, letter) factors right-to-left (last acts first)."""
    for kind, letter in reversed(factors):
        if kind == CREATE:
            f = apply_creation(letter, f)
        elif kind == ANNIHILATE:
            f = apply_annihilation(letter, f)
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return f


def creation_chain(p: int, I: Word,
                   f: StepFunction | None = None) -> StepFunction:
    """A†_I f = A†_{i_{k−1}}···A†_{i₀} f (defaults to the constant 1)."""
    if f is None:
        f = StepFunction.constant(p, 1)
    for i in I:  # rightmost factor A†_{i₀} acts first
        f = apply_creation(i, f)
    return f


def gns_state(p: int, I: Word, J: Word) -> Scalar:
    """⟨A†_I A_J⟩ computed as ∫ (A†_I A_J·1) dμ, self-checked.

    The integral must equal p^{−(|I|+|J|)/2} exactly; a disagreement
    raises SelfCheckError, since the two paths are each other's oracle.
    """
    validate_prime(p)
    I = validate_word(I, p)
    J = validate_word(J, p)
    f = StepFunction.constant(p, 1)
    for j in reversed(J):   # A_J: its last letter acts first
        f = apply_annihilation(j, f)
    value = creation_chain(p, I, f).integrate()
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
