"""Truncated free (Boltzmann) Fock space over p letters.

Basis words are tuples of letters (orthonormal).  A coherent-state
expansion Σ_I λ^{|I|} Ψ_I A†_I Ω puts one power of the formal eigenvalue
parameter λ on each word, so a vector stores each word's coefficient as
one λ-monomial: the pair (n, c) reads c·λ^n with c a nonzero exact scalar.
Inner products are true polynomials in λ and come back as plain
{exponent: Scalar} dicts.  λ stays formal everywhere — the pairing limits
evaluate at λ = √p only at the very end, inside Q(√p).

Two ladder pairs act on words:

* ``fock_create``/``fock_annihilate`` append / strip the LAST letter
  (latest-applied creator) — the left regular action;
* ``af_create``/``af_annihilate`` prepend / strip the FIRST letter
  (earliest-applied creator) — right multiplication, the "antifock"
  action used by the coherent-state T-operators.

Creation beyond a vector's truncation length drops the word and counts it
in the result's ``spilled`` tally (truncation artifacts are themselves
assertion targets, so they are data, not errors).
"""

from __future__ import annotations

from .errors import InvalidLetterError, SelfCheckError
from .scalars import Scalar, validate_prime
from .words import Word, check_letter, parse_word, word_str


def _merge(out: dict, items, negate: bool = False) -> dict:
    """Add (or subtract) word → (n, c) items into ``out`` in place.

    A word holds one power of λ, so coefficients on the same word add only
    when their exponents match; two different powers mean the identity
    being checked is wrong, and raise SelfCheckError.
    """
    for w, (n, c) in items:
        cur = out.get(w)
        if cur is None:
            out[w] = (n, -c if negate else c)
            continue
        if cur[0] != n:
            raise SelfCheckError(
                f"word {word_str(w)!r} would carry both λ^{cur[0]} and λ^{n}")
        s = cur[1] - c if negate else cur[1] + c
        if s.is_zero():
            del out[w]
        else:
            out[w] = (n, s)
    return out


class FockVector:
    """Finite-support map word → (λ-exponent, nonzero Scalar), with an
    optional truncation.

    ``truncation`` is the maximum word length kept by creation operators;
    ``spilled`` counts words dropped at that boundary so far.  Equality
    compares p and terms only (spill and truncation are bookkeeping).
    """

    __slots__ = ("p", "terms", "truncation", "spilled")

    def __init__(self, p: int,
                 terms: dict[Word, tuple[int, Scalar]] | None = None,
                 truncation: int | None = None, spilled: int = 0):
        validate_prime(p)
        cleaned: dict[Word, tuple[int, Scalar]] = {}
        for w, (n, c) in (terms or {}).items():
            w = tuple(w)
            for d in w:
                if not 0 <= d < p:
                    raise InvalidLetterError(
                        f"letter {d!r} out of range [0, {p})")
            if not isinstance(n, int) or n < 0:
                raise ValueError("λ exponents must be nonnegative integers")
            if not c.is_zero():
                cleaned[w] = (n, c)
        self.p = p
        self.terms = cleaned
        self.truncation = truncation
        self.spilled = spilled

    @classmethod
    def _raw(cls, p, terms, truncation, spilled) -> "FockVector":
        v = object.__new__(cls)
        v.p = p
        v.terms = terms
        v.truncation = truncation
        v.spilled = spilled
        return v

    @classmethod
    def zero(cls, p: int, truncation: int | None = None) -> "FockVector":
        return cls(p, {}, truncation)

    @classmethod
    def vacuum(cls, p: int, truncation: int | None = None) -> "FockVector":
        """Ω: the empty word with coefficient 1."""
        return cls.basis(p, (), truncation)

    @classmethod
    def basis(cls, p: int, word: Word,
              truncation: int | None = None) -> "FockVector":
        return cls(p, {tuple(word): (0, Scalar.one(p))}, truncation)

    def coefficient(self, word: Word) -> tuple[int, Scalar]:
        """(n, c) with the word's coefficient c·λ^n; (0, 0) if absent."""
        return self.terms.get(tuple(word), (0, Scalar.zero(self.p)))

    def is_zero(self) -> bool:
        return not self.terms

    def support_lengths(self) -> set[int]:
        return {len(w) for w in self.terms}

    def restrict_lengths(self, lo: int = 0,
                         hi: int | None = None) -> "FockVector":
        """Sub-vector with word lengths in [lo, hi]."""
        out = {w: c for w, c in self.terms.items()
               if len(w) >= lo and (hi is None or len(w) <= hi)}
        return FockVector._raw(self.p, out, self.truncation, self.spilled)

    def with_truncation(self, truncation: int | None) -> "FockVector":
        """Same terms under a different creation-truncation length."""
        return FockVector._raw(self.p, self.terms, truncation, self.spilled)

    # -- linear structure --------------------------------------------------

    def _combine(self, other: "FockVector", negate: bool) -> "FockVector":
        if other.p != self.p:
            raise ValueError("mixed primes in Fock sum")
        trunc = min((t for t in (self.truncation, other.truncation)
                     if t is not None), default=None)
        out = _merge(dict(self.terms), other.terms.items(), negate)
        return FockVector._raw(self.p, out, trunc,
                               self.spilled + other.spilled)

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._combine(other, False)

    def __sub__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._combine(other, True)

    def scale(self, c: Scalar) -> "FockVector":
        """Multiply every coefficient by the Scalar c (λ: ``shift_lambda``)."""
        if c.is_zero():
            return FockVector.zero(self.p, self.truncation)
        return FockVector._raw(
            self.p, {w: (n, v * c) for w, (n, v) in self.terms.items()},
            self.truncation, self.spilled)

    def shift_lambda(self, k: int) -> "FockVector":
        """Multiply by λ^k (k < 0 only if no exponent drops below 0)."""
        out = {w: (n + k, c) for w, (n, c) in self.terms.items()}
        if k < 0 and any(n < 0 for n, _ in out.values()):
            raise ValueError("λ shift would create a negative exponent")
        return FockVector._raw(self.p, out, self.truncation, self.spilled)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        shown = ", ".join(f"'{word_str(w)}': λ^{n}·({c.pretty()})"
                          for w, (n, c) in items[:6])
        if len(items) > 6:
            shown += ", …"
        return f"<FockVector p={self.p} {{{shown}}} spilled={self.spilled}>"

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        return {"p": self.p,
                "terms": {word_str(w): {str(n): c.to_json()}
                          for w, (n, c) in items}}

    @classmethod
    def from_json(cls, data: dict) -> "FockVector":
        p = validate_prime(data["p"])
        terms = {}
        for key, poly in data["terms"].items():
            if len(poly) > 1:
                raise ValueError(
                    f"word {key!r} has {len(poly)} λ-exponents "
                    f"{sorted(poly)}; a Fock term is one monomial")
            for n, c in poly.items():
                terms[parse_word(key, p)] = (int(n), Scalar.from_json(p, c))
        return cls(p, terms)


def fock_create(i: int, v: FockVector) -> FockVector:
    """A†_i: append i as the last (latest-applied) letter of every word."""
    check_letter(i, v.p)
    cap = v.truncation
    if cap is None:
        out = {w + (i,): c for w, c in v.terms.items()}
        spilled = v.spilled
    else:
        out = {w + (i,): c for w, c in v.terms.items() if len(w) < cap}
        spilled = v.spilled + len(v.terms) - len(out)
    return FockVector._raw(v.p, out, cap, spilled)


def fock_annihilate(i: int, v: FockVector) -> FockVector:
    """A_i: keep words whose last letter is i, stripped; Ω goes to 0."""
    check_letter(i, v.p)
    out = {w[:-1]: c for w, c in v.terms.items() if w and w[-1] == i}
    return FockVector._raw(v.p, out, v.truncation, v.spilled)


def af_create(i: int, v: FockVector) -> FockVector:
    """Right multiplication by A†_i: prepend i as the first letter."""
    check_letter(i, v.p)
    cap = v.truncation
    if cap is None:
        out = {(i,) + w: c for w, c in v.terms.items()}
        spilled = v.spilled
    else:
        out = {(i,) + w: c for w, c in v.terms.items() if len(w) < cap}
        spilled = v.spilled + len(v.terms) - len(out)
    return FockVector._raw(v.p, out, cap, spilled)


def af_annihilate(i: int, v: FockVector) -> FockVector:
    """Right action of A_i: keep words whose first letter is i, stripped."""
    check_letter(i, v.p)
    out = {w[1:]: c for w, c in v.terms.items() if w and w[0] == i}
    return FockVector._raw(v.p, out, v.truncation, v.spilled)


def annihilate_sum(v: FockVector) -> FockVector:
    """(Σ_i A_i)·v — every nonempty word stripped of its last letter."""
    out = _merge({}, ((w[:-1], c) for w, c in v.terms.items() if w))
    return FockVector._raw(v.p, out, v.truncation, v.spilled)


def fock_inner(v: FockVector, w: FockVector) -> dict[int, Scalar]:
    """⟨v, w⟩ = Σ_I conj(v_I)·w_I as a λ-polynomial {exponent: Scalar}."""
    total: dict[int, Scalar] = {}
    for coeffs in fock_inner_by_length(v, w).values():
        for n, c in coeffs.items():
            total[n] = total[n] + c if n in total else c
    return {n: c for n, c in total.items() if not c.is_zero()}


def fock_inner_by_length(v: FockVector,
                         w: FockVector) -> dict[int, dict[int, Scalar]]:
    """Per-word-length contributions {length: {exponent: Scalar}} to ⟨v, w⟩
    (for stabilization limits).

    Expansions share coefficient objects across words and the ladder
    operators move them without copying, so the products conj(c₁)·c₂ are
    tallied per (word length, λ-exponent, c₁, c₂) by identity and each
    distinct pair is multiplied once, times its count.  Sharing only
    saves work; unshared coefficients give one tally each.
    """
    if v.p != w.p:
        raise ValueError("mixed primes in Fock inner product")
    small, large, conj_small = ((v, w, True) if len(v.terms) <= len(w.terms)
                                else (w, v, False))
    tally: dict[tuple, list] = {}
    for key, (n1, c1) in small.terms.items():
        other = large.terms.get(key)
        if other is None:
            continue
        n2, c2 = other
        if not conj_small:
            c1, c2 = c2, c1
        slot = (len(key), n1 + n2, id(c1), id(c2))
        entry = tally.get(slot)
        if entry is None:
            tally[slot] = [c1, c2, 1]
        else:
            entry[2] += 1
    by_len: dict[int, dict[int, Scalar]] = {}
    for (k, n, _, _), (c1, c2, count) in tally.items():
        prod = (c1.conjugate() * c2).scale(count)
        coeffs = by_len.setdefault(k, {})
        coeffs[n] = coeffs[n] + prod if n in coeffs else prod
    return {k: {n: c for n, c in coeffs.items() if not c.is_zero()}
            for k, coeffs in by_len.items()}
