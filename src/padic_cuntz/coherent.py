"""Free coherent states of finite type and their exact pairing limits.

A free coherent state is a formal eigenvector Ψ = Σ_I λ^{|I|} Ψ_I A†_I Ω
of the summed annihilator, determined by coefficients satisfying the
cascade condition Ψ_I = Σ_i Ψ_{Ii}.  Finite-type states are stored through
their generator: a step function whose disk integrals ARE the cascade
coefficients (first word letter = least significant disk digit).  The
generator is also the image of the state under the isomorphism onto test
functions, so the L² pairing of generators is the exact value of the
renormalized pairing limit — which this module computes independently as
the stabilized tail of per-word-length contributions evaluated at λ = √p,
turning the λ → √p−0 limit into an assertable identity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import stepfunctions
from .errors import NotStabilizedError, ParameterError, SelfCheckError
from .fock import (FockVector, _af_annihilate_word, _af_create_word,
                   af_annihilate, af_create, annihilate_sum, create_sum)
from .representation import apply_annihilation, apply_creation
from .scalars import Scalar, validate_prime
from .stepfunctions import StepFunction, _cap_exponent, coset_index, indicator
from .words import Word, validate_word, words_up_to


class CoherentState:
    """Finite-type free coherent state, stored as its generating step function."""

    __slots__ = ("generator",)

    def __init__(self, generator: StepFunction):
        if not isinstance(generator, StepFunction):
            raise TypeError("generator must be a StepFunction")
        self.generator = generator

    @property
    def p(self) -> int:
        return self.generator.p

    @property
    def depth(self) -> int:
        return self.generator.depth

    def coefficient(self, I: Word) -> Scalar:
        """Ψ_I: the integral of the generator over the disk addressed by I.

        Below the generator's depth the disk is a union of its cosets, whose
        values are summed; at or beyond it the generator is constant there.
        """
        I = validate_word(I, self.p)
        p, g = self.p, self.generator
        k = min(len(I), g.depth)
        total = Scalar.sum(p, g.raw[coset_index(p, I[:k])::p ** k])
        return total.mul_root_p_power(g.exp - 2 * max(g.depth, len(I)))

    def layer(self, k: int) -> StepFunction:
        """The Ψ_I with |I| = k, which read only the first min(k, depth)
        letters of I: the generator's coset sums at that depth."""
        g = self.generator
        j = min(k, g.depth)
        return StepFunction._raw(self.p, j, g.coset_sums(j),
                                 g.exp - 2 * max(g.depth, k))

    def coefficients_of_length(self, k: int) -> dict[Word, Scalar]:
        """All nonzero Ψ_I with |I| = k, keyed by word (capped as ``terms``)."""
        v = FockVector._raw(self.p, {k: self.layer(k)})
        return {w: c for w, (_, c) in v.terms.items()}

    def vacuum_coefficient(self) -> Scalar:
        return self.generator.integrate()

    def is_zero(self) -> bool:
        return self.generator.is_zero()

    def __add__(self, other):
        if not isinstance(other, CoherentState):
            return NotImplemented
        return CoherentState(self.generator + other.generator)

    def __eq__(self, other):
        if not isinstance(other, CoherentState):
            return NotImplemented
        return self.generator == other.generator

    def __repr__(self):
        return f"<CoherentState {self.generator!r}>"


def phi_map(s: CoherentState) -> StepFunction:
    """The isomorphism onto test functions: a finite-type state ↦ its generator."""
    return s.generator


def indicator_state(p: int, I: Word) -> CoherentState:
    """The distinguished state generated by p^{|I|} × the indicator of disk I."""
    gen = indicator(p, I)
    return CoherentState(gen.mul_root_p_power(2 * gen.depth))


def to_fock_truncated(s: CoherentState, N: int) -> FockVector:
    """Σ_{|I| ≤ N} λ^{|I|} Ψ_I · (word I), truncated at word length N.

    Layer k is ``s.layer(k)``, p^{min(k, depth)} values rather than p^k,
    and carries λ^k: shift 0.
    """
    layers = {k: f for k in range(N + 1) if not (f := s.layer(k)).is_zero()}
    return FockVector._raw(s.p, layers, N, 0, 0)


def build_X_truncated(p: int, I: Word, N: int) -> FockVector:
    """Literal expansion of the distinguished state X_I through length N.

    Sums λ^k(p^{−1}ΣA†_i)^k on top of λ^{|I|}A†_IΩ for k ≤ N−|I|, plus the
    annihilator tail λ^{−l}(ΣA_i)^l λ^{|I|}A†_IΩ for l = 1..|I|.  Both
    sums are layer moves (``create_sum``, ``annihilate_sum``), so every
    layer holds at most p^{|I|} values.  A disagreement with the generator
    route ``to_fock_truncated(indicator_state(p, I), N)`` raises
    SelfCheckError.
    """
    validate_prime(p)
    I = validate_word(I, p)
    if N < len(I):
        raise ValueError(f"truncation {N} below word length {len(I)}")
    seed = FockVector(p, {I: (len(I), Scalar.one(p))}, truncation=N)
    total = cur = seed
    for _ in range(N - len(I)):
        cur = create_sum(cur).mul_root_p_power(-2).shift_lambda(1)
        total = total + cur
    cur = seed
    for _ in range(len(I)):
        cur = annihilate_sum(cur).shift_lambda(-1)
        total = total + cur

    if total != to_fock_truncated(indicator_state(p, I), N):
        raise SelfCheckError(
            f"expansion of X_{I} disagrees with generator coefficients")
    return total


def eigen_residual(s: CoherentState, N: int) -> FockVector:
    """(Σ_i A_i − λ) on the truncated expansion of s.  The cascade
    condition cancels every word of length < N; what remains is −λ^{N+1}·Ψ_J
    on each length-N word J."""
    if N < 1:
        raise ValueError("truncation must be at least 1")
    v = to_fock_truncated(s, N)
    return annihilate_sum(v) - v.shift_lambda(1)


# -- the renormalized pairing as an exact stabilization limit -----------------


class PairingSeries(NamedTuple):
    """Per-word-length contributions c_k with λ² evaluated at p: constant
    from the larger generator depth on, where the stabilized value is the
    renormalized pairing (the Abel limit of an eventually constant series).
    """

    terms: tuple[Scalar, ...]
    stabilized_at: int
    value: Scalar


def pairing_series(a: CoherentState, b: CoherentState) -> PairingSeries:
    """c_k = p^k Σ_{|I|=k} conj(Ψᵃ_I)·Ψᵇ_I, through max depth + 2.

    c_k is the length-k part of ⟨a, b⟩ between the truncated expansions
    at λ = √p: p^{2k} times the L² pairing of the two length-k layers.
    """
    if a.p != b.p:
        raise ValueError("mixed primes in pairing")
    kmax = max(a.depth, b.depth) + 2
    return _series([a.layer(k) for k in range(kmax + 1)],
                   [b.layer(k) for k in range(kmax + 1)], kmax)


def _series(la: list, lb: list, kmax: int, shift: int = 0) -> PairingSeries:
    """The series of two layer lists through length kmax, c_k =
    p^{2k + shift/2}·⟨la[k], lb[k]⟩, stabilized at the smallest k₀ with
    c_{k₀} = … = c_kmax: ≥ 2 corroborating terms.  The factor joins lb[k]'s
    exponent; a pair of raw tuples met again is not paired again, its term
    is the first one's shifted by the √p exponent gap."""
    memo, terms = {}, []
    for k in range(kmax + 1):
        a, b = la[k], lb[k]
        e, key = a.exp + b.exp + 4 * k, (id(a.raw), id(b.raw))
        if (hit := memo.get(key)) is None:
            memo[key] = e, (c := a.inner(b.mul_root_p_power(4 * k + shift)))
        terms.append(c if hit is None else hit[1].mul_root_p_power(e - hit[0]))
    k0 = kmax
    while k0 > 0 and terms[k0 - 1] == terms[kmax]:
        k0 -= 1
    if k0 == kmax:
        raise NotStabilizedError(f"no constant tail in {kmax + 1} terms")
    return PairingSeries(tuple(terms), k0, terms[kmax])


def renormalized_pairing(a: CoherentState, b: CoherentState) -> Scalar:
    """The λ → √p−0 limit of (1 − λ²/p)⟨a, b⟩, exactly: the L² pairing of
    the two generators, computed without touching them."""
    return pairing_series(a, b).value


# -- the T-representation on coherent states ---------------------------------


def t_dagger(i: int, s: CoherentState) -> CoherentState:
    """T†_i: generator-level creation (coefficients gain p^{−1/2}, prepend i)."""
    return CoherentState(apply_creation(i, s.generator))


def t_op(i: int, s: CoherentState) -> CoherentState:
    """T_i: generator-level annihilation (Ψ'_I = √p·Ψ_{iI})."""
    return CoherentState(apply_annihilation(i, s.generator))


def t_dagger_fock(i: int, s: CoherentState, N: int) -> FockVector:
    """Word-level T†_i: p^{−1/2}(λ·[right A†_i on the expansion] + Ψ_∅·Ω),
    which ``to_fock_truncated(t_dagger(i, s), N)`` must equal exactly."""
    if N < 1:
        raise ValueError("truncation must be at least 1")
    p = s.p
    base = to_fock_truncated(s, N - 1).with_truncation(N)
    created = af_create(i, base).shift_lambda(1)
    omega = FockVector(p, {(): (0, s.vacuum_coefficient())}, N)
    return (created + omega).mul_root_p_power(-1)


def t_op_fock(i: int, s: CoherentState, N: int) -> FockVector:
    """Word-level T_i: √p·λ^{−1}·[right A_i on the expansion]."""
    base = to_fock_truncated(s, N + 1)
    stripped = af_annihilate(i, base)
    return stripped.shift_lambda(-1).mul_root_p_power(1).with_truncation(N)


def leibnitz_residuals(s: CoherentState, N: int) -> list[FockVector]:
    """Both sides of Σ_i A_i A†_Φ = λ A†_Φ + Φ_∅ Σ_i A_i, at truncation N.

    Evaluates the identity on the vacuum and on each length-1 basis word
    (p+1 residual vectors, in that order).  Each residual is supported
    only at the truncation boundary length N; everything shorter cancels
    exactly through the cascade condition.
    """
    residuals = [eigen_residual(s, N)]
    p, v = s.p, to_fock_truncated(s, N)
    omega_term = FockVector(p, {(): (0, s.vacuum_coefficient())}, N)
    for j in range(p):
        applied = af_create(j, v)  # A†_Φ on the basis word (j)
        lhs = annihilate_sum(applied)
        rhs = applied.shift_lambda(1) + omega_term
        residuals.append(lhs - rhs)
    return residuals


@lru_cache(maxsize=64)
def _one_hat(p: int, N: int) -> FockVector:
    """1̂, the constant state's expansion through N (shared: never mutated)."""
    return to_fock_truncated(indicator_state(p, ()), N)


def af_state_value(p: int, I: Word, J: Word, N: int | None = None) -> Scalar:
    """⟨1̂, AF(A†_I A_J) 1̂⟩ via the stabilized per-length series.

    1̂ is the truncated expansion of the constant-generator state; the
    right ladder operators realize AF, a word as one move per distinct
    layer, and a length costs at most one pairing.  The stabilized value
    equals p^{−(|I|+|J|)/2}, the same number the state integral produces.
    """
    validate_prime(p)
    I = validate_word(I, p)
    J = validate_word(J, p)
    needed = len(I) + len(J) + 3
    if N is None:
        N = needed
    elif not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise ValueError(f"truncation must be an integer ≥ 0, got {N!r}")
    one_hat = _one_hat(p, N)
    v = _af_create_word(I, _af_annihilate_word(J, one_hat))
    # length k carries λ^{k+shift}, which is p^{shift/2}·λ^k at λ = √p
    zero = StepFunction.zero(p)
    kmax = max(v.support_lengths(), default=0)   # ≤ N: 1̂ has every length
    lb = [v.layers.get(k, zero) for k in range(kmax + 1)]
    try:
        return _series(one_hat.layers, lb, kmax, v.shift).value
    except NotStabilizedError:
        raise NotStabilizedError(
            f"antifock series did not stabilize at N={N}; "
            f"need N ≥ {needed}") from None


def af_relation_residual(i: int, s: CoherentState,
                         N: int) -> tuple[FockVector, FockVector]:
    """Residuals of the two bridges between T-operators and the AF action.

    first:  to_fock(T†_i s) − p^{−1/2}λ·af_create(i, ·) − p^{−1/2}Ψ_∅·Ω;
    second: λ·to_fock(T_i s) − √p·af_annihilate(i, ·) (denominator cleared),
    the AF sides being ``t_dagger_fock`` and λ·``t_op_fock`` one length
    down.  The first vanishes at every length, the second on every word
    strictly below the truncation N.
    """
    first = to_fock_truncated(t_dagger(i, s), N) - t_dagger_fock(i, s, N)
    second = to_fock_truncated(t_op(i, s), N) - t_op_fock(i, s, N - 1)
    return first, second.shift_lambda(1)


def gram_matrices(p: int, maxlen: int):
    """Gram data for {X_I : |I| ≤ maxlen} along both routes: (basis words,
    stabilization Gram, L² Gram, equal flag, largest stabilization index).
    The two matrices agreeing is the finite-type isomorphism statement."""
    validate_prime(p)
    if maxlen < 0:
        raise ParameterError(f"basis length must be nonnegative, got {maxlen}")
    cap = stepfunctions.VALUE_CAP
    size = sum(p ** k for k in range(_cap_exponent(maxlen) + 1))
    if size * size > cap:
        raise ParameterError(f"basis length {maxlen}: the |B|² Gram entries "
                             f"exceed the cap {cap}")
    basis = list(words_up_to(p, maxlen))
    states = [indicator_state(p, w) for w in basis]
    layers = [[s.layer(k) for k in range(maxlen + 3)] for s in states]
    series = [[_series(la, lb, max(a.depth, b.depth) + 2)
               for b, lb in zip(states, layers)]
              for a, la in zip(states, layers)]
    ren = [[s.value for s in row] for row in series]
    l2 = [[phi_map(a).inner(phi_map(b)) for b in states] for a in states]
    max_stab = max(s.stabilized_at for row in series for s in row)
    return basis, ren, l2, ren == l2, max_stab
