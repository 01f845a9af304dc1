"""Truncated free (Boltzmann) Fock space over p letters, stored by layers.

Basis words are orthonormal, and each carries one λ-monomial c·λ^n, as in
a coherent-state expansion Σ_I λ^{|I|} Ψ_I A†_I Ω, where each ladder
operator moves a word's length and keeps its power.  So all length-k
words carry λ^{k+shift} for one ``shift`` per vector, and a vector is
stored as nonzero layers {k: StepFunction} plus that shift; the word
i₀…i_{k−1} is the coset index Σ i_j p^j at depth k (first letter lowest).
A layer shallower than k reads only the first ``depth`` letters, so the
expansion of a depth-d state costs p^{min(k, d)} values at length k.

``af_create``/``af_annihilate`` prepend / strip the FIRST letter (lowest
digit; the right "antifock" action behind the T-operators), and
``_af_*_word`` a whole word, as one interleave or slice of
``representation`` per distinct raw tuple: layers that share one (a
state's layers past its depth do) differ only in √p exponent, so the
first result is shifted for the rest.  The left action enters only
summed over the LAST letter (top digit), which is a layer move:
``create_sum`` lifts a layer one length as is, and ``annihilate_sum``
sums out the top digit.  A layer that creation would move past the
truncation is dropped, and its words are counted once in ``spilled``:
data, not errors.
"""

from __future__ import annotations

from . import stepfunctions
from .errors import CapExceededError, SelfCheckError
from .scalars import Scalar, validate_prime
from .representation import _interleave, _offset, _slice
from .stepfunctions import StepFunction, _check_cap, coset_index
from .words import Word, check_letter, word_str, words_of_length


def _word(m: int, k: int, p: int) -> Word:
    return tuple((m // p ** j) % p for j in range(k))


class FockVector:
    """Layers {length k: StepFunction} whose words carry λ^{k+shift};
    creation keeps words up to ``truncation`` and counts the dropped ones
    in ``spilled``.  Equality compares p and coefficients only."""

    __slots__ = ("p", "layers", "truncation", "spilled", "shift")

    def __init__(self, p: int,
                 terms: dict[Word, tuple[int, Scalar]] | None = None,
                 truncation: int | None = None):
        validate_prime(p)
        grouped: dict[int, dict[int, Scalar]] = {}
        shifts = set()
        for w, (n, c) in (terms or {}).items():
            for d in w:
                check_letter(d, p)
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError("λ exponents must be nonnegative integers")
            if not c.is_zero():
                grouped.setdefault(len(w), {})[coset_index(p, w)] = c
                shifts.add(n - len(w))
        if len(shifts) > 1:
            raise ValueError(f"λ-exponents − lengths differ: {shifts}")
        zero = Scalar.zero(p)
        self.p, self.shift = p, shifts.pop() if shifts else 0
        self.layers = {k: StepFunction._raw(p, k, tuple(
            vals.get(m, zero) for m in range(_check_cap(p, k))))
            for k, vals in grouped.items()}
        self.truncation = truncation
        self.spilled = 0

    @classmethod
    def _raw(cls, p, layers, truncation=None, spilled=0, shift=0):
        v = object.__new__(cls)
        v.p, v.layers, v.truncation = p, layers, truncation
        v.spilled, v.shift = spilled, shift
        return v

    @classmethod
    def zero(cls, p: int, truncation: int | None = None) -> "FockVector":
        return cls(p, {}, truncation)

    @property
    def terms(self) -> dict[Word, tuple[int, Scalar]]:
        """word → (n, c) for each word with a nonzero coefficient c·λ^n,
        built on each access; materializing words is what the cap limits."""
        p = self.p
        count = sum(p ** k for k in self.support_lengths())
        if count > (cap := stepfunctions.VALUE_CAP):
            raise CapExceededError(f"{count} words exceed cap {cap}")
        out = {}
        for k, f in self.layers.items():
            n, tails = k + self.shift, list(words_of_length(p, k - f.depth))
            for m, c in enumerate(f.values):
                if c:
                    head = _word(m, f.depth, p)
                    out.update((head + tail, (n, c)) for tail in tails)
        return out

    def coefficient(self, word: Word) -> tuple[int, Scalar]:
        """(n, c) with the word's coefficient c·λ^n; (0, 0) if absent."""
        w = tuple(word)
        f = self.layers.get(len(w))
        if f is not None and all(type(d) is int and 0 <= d < self.p
                                 for d in w):
            c = f.raw[coset_index(f.p, w[:f.depth])]
            if c:
                return len(w) + self.shift, c.mul_root_p_power(f.exp)
        return 0, Scalar.zero(self.p)

    def is_zero(self) -> bool:
        return not self.layers

    def support_lengths(self) -> set[int]:
        return set(self.layers)

    def _with(self, layers: dict, moved: int = 0) -> "FockVector":
        return FockVector._raw(self.p, layers, self.truncation, self.spilled,
                               self.shift + moved)

    def restrict_lengths(self, lo: int) -> "FockVector":
        """Sub-vector with word lengths ≥ lo."""
        return self._with({k: f for k, f in self.layers.items() if lo <= k})

    def with_truncation(self, truncation: int | None) -> "FockVector":
        """Same coefficients under a different creation-truncation length."""
        return FockVector._raw(self.p, self.layers, truncation, self.spilled,
                               self.shift)

    # -- linear structure --------------------------------------------------

    def _combine(self, other: "FockVector", negate: bool) -> "FockVector":
        """Add (or subtract) layer by layer; two nonzero vectors with
        different shifts mean the identity being checked is wrong."""
        if other.p != self.p:
            raise ValueError("mixed primes in Fock sum")
        if self.layers and other.layers and self.shift != other.shift:
            raise SelfCheckError(f"a sum of λ^(k{self.shift:+}) and "
                                 f"λ^(k{other.shift:+}) words at length k")
        trunc = min((t for t in (self.truncation, other.truncation)
                     if t is not None), default=None)
        out = dict(self.layers)
        for k, g in other.layers.items():
            f = out.pop(k, None)
            s = (-g if negate else g) if f is None else \
                None if negate and f == g else f - g if negate else f + g
            if s is not None and not s.is_zero():
                out[k] = s
        shift = (self if self.layers else other).shift
        return FockVector._raw(self.p, out, trunc,
                               self.spilled + other.spilled, shift)

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, False) \
            if isinstance(other, FockVector) else NotImplemented

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, True) \
            if isinstance(other, FockVector) else NotImplemented

    def scale(self, c: Scalar) -> "FockVector":
        """Multiply every coefficient by the Scalar c (λ: ``shift_lambda``)."""
        if c.is_zero():
            return FockVector.zero(self.p, self.truncation)
        return self._with({k: f.scale(c) for k, f in self.layers.items()})

    def mul_root_p_power(self, e: int) -> "FockVector":
        """Multiply by p^{e/2}: a shift of each layer's √p scale."""
        return self._with({k: f.mul_root_p_power(e)
                           for k, f in self.layers.items()})

    def shift_lambda(self, j: int) -> "FockVector":
        """Multiply by λ^j (j < 0 only if no exponent drops below 0)."""
        if self.layers and min(self.layers) + self.shift + j < 0:
            raise ValueError("λ shift would create a negative exponent")
        return self._with(self.layers, j)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.p == other.p and self.layers == other.layers and (
            not self.layers or self.shift == other.shift)

    def __repr__(self):
        depths = {k: f.depth for k, f in sorted(self.layers.items())}
        return (f"<FockVector p={self.p} λ^(k{self.shift:+}) depths {depths}"
                f" spilled={self.spilled}>")

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        return {"p": self.p,
                "terms": {word_str(w, self.p): {str(n): c.to_json()}
                          for w, (n, c) in items}}


def _create(v: FockVector, layer, letters=1, copies=1) -> FockVector:
    """Move layers up ``letters`` lengths (the shift drops as much); one
    that would pass the truncation spills ``copies`` words per word."""
    out, spilled = {}, v.spilled
    for k, f in v.layers.items():
        if v.truncation is not None and k + letters > v.truncation:
            spilled += copies * sum(map(bool, f.raw)) * v.p ** (k - f.depth)
        else:
            out[k + letters] = layer(k, f)
    return FockVector._raw(v.p, out, v.truncation, spilled, v.shift - letters)


def _annihilate(v: FockVector, layer, letters=1) -> FockVector:
    """Move layers of length ≥ ``letters`` down as many (shift up as many)."""
    out = {}
    for k, f in v.layers.items():
        g = layer(k, f) if k >= letters else None
        if g is not None and (g.raw is f.raw or not g.is_zero()):
            out[k - letters] = g
    return v._with(out, letters)


def af_create(i: int, v: FockVector) -> FockVector:
    """Right multiplication by A†_i: prepend i as the first letter."""
    return _af_create_word((i,), v)


def af_annihilate(i: int, v: FockVector) -> FockVector:
    """Right action of A_i: keep words whose first letter is i, stripped."""
    return _af_annihilate_word((i,), v)


def _shared(move):
    """``move``, which reads only raw, depth and exp, once per raw tuple of
    one call (keyed by id; the input holds them); the rest shift its result."""
    memo = {}

    def layer(k, f):
        if (hit := memo.get(id(f.raw))) is None:
            memo[id(f.raw)] = f.exp, (g := move(f))
            return g
        return hit[1].mul_root_p_power(f.exp - hit[0])
    return layer


def _af_create_word(I: Word, v: FockVector) -> FockVector:
    """AF(A†_I): prepend I reversed to every word (no p^{|I|/2} factor)."""
    offset, k = _offset(v.p, I), len(I)
    return _create(v, _shared(lambda f: _interleave(f, offset, k, 0)), k)


def _af_annihilate_word(J: Word, v: FockVector) -> FockVector:
    """AF(A_J): keep the words that begin with J reversed, stripped."""
    offset, k = _offset(v.p, J), len(J)
    return _annihilate(v, _shared(lambda f: _slice(f, offset, k, 0)), k)


def create_sum(v: FockVector) -> FockVector:
    """(Σ_i A†_i)·v — every word extended by each last letter.  A layer
    reads only its first ``depth`` letters, so it moves up one length as
    is; one at the truncation spills p words per word."""
    return _create(v, lambda k, f: f, copies=v.p)


def annihilate_sum(v: FockVector) -> FockVector:
    """(Σ_i A_i)·v — every nonempty word stripped of its last letter: the
    top digit summed out, which is ×p = p^{2/2} for a shallower layer."""
    return _annihilate(v, lambda k, f: f.mul_root_p_power(2) if f.depth < k
                       else StepFunction._raw(v.p, k - 1, f.coset_sums(k - 1),
                                              f.exp))

