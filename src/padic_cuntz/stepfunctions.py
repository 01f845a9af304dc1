"""Locally constant functions on the p-adic integers Z_p at uniform depth.

A depth-k step function stores p^k exact values, one per coset
d₀ + d₁p + … + d_{k−1}p^{k−1} + p^k·Z_p, indexed by n = Σ d_j p^j with d₀
the least significant digit.  ``+`` and ``−`` refine both operands to a
common depth; refinement copies each value to its p children (children
of coset n at depth k are n + m·p^k, m ∈ [0, p)), which leaves the Haar
integral and the L² pairing unchanged.  ``inner`` and ``==`` sum or
compare the deeper operand over the shallower one's cosets instead.
"""

from __future__ import annotations

from operator import add, sub

from .errors import CapExceededError, ParameterError
from .scalars import Scalar, validate_prime
from .words import Word, validate_word

#: refuse to materialize more than this many values (refinement is exponential)
VALUE_CAP = 10_000_000


def _cap_exponent(e: int) -> int:
    """e clipped at VALUE_CAP.bit_length(): as p ≥ 2, p^e exceeds the cap
    exactly when p^(clipped e) does, and no huge power is built."""
    bits = VALUE_CAP.bit_length()   # read at call time
    return e if e < bits else bits   # min() is 0.1 µs slower on CPython 3.11


def _check_cap(p: int, depth: int) -> int:
    """p^depth, or CapExceededError past ``VALUE_CAP`` (read at call time).
    A negative depth raises ParameterError."""
    if depth < 0:
        raise ParameterError(f"depth must be nonnegative, got {depth}")
    size = p ** _cap_exponent(depth)
    if size > VALUE_CAP:
        raise CapExceededError(
            f"p^depth = {p}^{depth} values exceeds cap {VALUE_CAP}")
    return size


def coset_index(p: int, digits) -> int:
    """The coset index Σ d_j p^j of a digit tuple, lowest digit first."""
    return sum(d * p ** j for j, d in enumerate(digits))


def word_to_center(p: int, word: Word, convention: str) -> Word:
    """The disk digits (lowest first) a word addresses under one of the two
    digit orders, for ``indicator`` and ``coset_index``.

    'lsd' takes the first letter as the least significant digit (center
    Σ i_j p^j); 'msd' reverses the digits (center Σ i_j p^{k−1−j}).  The
    coherent-state side of the package uses lsd; creation chains acting
    on the constant function produce msd centers.
    """
    w = validate_word(word, p)
    if convention == "lsd":
        return w
    if convention == "msd":
        return w[::-1]
    raise ValueError(f"convention must be 'lsd' or 'msd', got {convention!r}")


class StepFunction:
    """Immutable depth-k step function on Z_p with exact scalar values.

    Stored as p^{exp/2}·raw: the ladder operators only move raw values and
    shift ``exp``, so the √p factors they carry are applied once, where a
    number leaves the function (integrals, pairings, ``values``, JSON).
    Code inside the package reads ``raw`` and ``exp``; ``values`` builds
    the actual values on access.
    """

    __slots__ = ("p", "depth", "raw", "exp")

    def __init__(self, p: int, depth: int, values):
        validate_prime(p)
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
            raise ValueError(f"depth must be an integer ≥ 0, got {depth!r}")
        size = _check_cap(p, depth)
        vals = tuple(v if isinstance(v, Scalar) else Scalar.rational(p, v)
                     for v in values)
        if len(vals) != size:
            raise ValueError(
                f"need {size} values at depth {depth}, got {len(vals)}")
        for v in vals:
            if v.p != p:
                raise ValueError("value prime does not match function prime")
        self.p = p
        self.depth = depth
        self.raw = vals
        self.exp = 0

    @classmethod
    def _raw(cls, p: int, depth: int, raw: tuple,
             exp: int = 0) -> "StepFunction":
        f = object.__new__(cls)
        f.p = p
        f.depth = depth
        f.raw = raw
        f.exp = exp
        return f

    @classmethod
    def constant(cls, p: int, value=1) -> "StepFunction":
        validate_prime(p)
        v = value if isinstance(value, Scalar) else Scalar.rational(p, value)
        if v.p != p:
            raise ValueError("value prime does not match function prime")
        return cls._raw(p, 0, (v,))

    @classmethod
    def zero(cls, p: int, depth: int = 0) -> "StepFunction":
        validate_prime(p)
        return cls._raw(p, depth, (Scalar.zero(p),) * _check_cap(p, depth))

    @property
    def values(self) -> tuple:
        """The function's values in coset-index order."""
        return self._raw_at(0)

    def mul_root_p_power(self, e: int) -> "StepFunction":
        """Multiply by p^{e/2}: a shift of the stored exponent."""
        return StepFunction._raw(self.p, self.depth, self.raw, self.exp + e)

    def _raw_at(self, exp: int) -> tuple:
        """Raw values re-expressed over the scale p^{exp/2}."""
        shift = self.exp - exp
        if shift == 0:
            return self.raw
        return tuple(v.mul_root_p_power(shift) for v in self.raw)

    # -- refinement -----------------------------------------------------

    def refine(self, k_new: int) -> "StepFunction":
        """Same function on Z_p represented at a deeper uniform depth."""
        if k_new < self.depth:
            raise ValueError(
                f"cannot refine depth {self.depth} down to {k_new}")
        if k_new == self.depth:
            return self
        _check_cap(self.p, k_new)
        # index n at depth k_new belongs to coset n mod p^depth, so the
        # refined array is the old one tiled p^(k_new-depth) times
        return StepFunction._raw(
            self.p, k_new, self.raw * (self.p ** (k_new - self.depth)),
            self.exp)

    def _aligned(self, other: "StepFunction"):
        """Common depth and exponent, and both raw tuples over it."""
        if other.p != self.p:
            raise ValueError("operands must be StepFunctions over the same p")
        k = max(self.depth, other.depth)
        e = min(self.exp, other.exp)
        f, g = self.refine(k), other.refine(k)
        return k, e, f._raw_at(e), g._raw_at(e)

    # -- integration / pairing -------------------------------------------

    def integrate(self) -> Scalar:
        """Normalized Haar integral: p^{−depth} · Σ values."""
        total = self.coset_sums(0)[0]
        return total.mul_root_p_power(self.exp - 2 * self.depth)

    def coset_sums(self, depth: int) -> tuple:
        """Raw values summed over each coset at a depth ≤ self.depth."""
        if depth == self.depth:
            return self.raw
        if depth == 0:
            return (Scalar.sum(self.p, self.raw),)
        m, raw = self.p ** depth, self.raw
        return tuple(Scalar.sum(self.p, raw[n::m]) for n in range(m))

    def inner(self, other: "StepFunction") -> Scalar:
        """L² pairing p^{−k} Σ conj(f_n)·g_n; conjugate-linear in self.

        The shallower operand is constant on the children of each of its
        cosets, so the deeper one is summed over them instead of refining.
        """
        if not isinstance(other, StepFunction) or other.p != self.p:
            raise ValueError("operands must be StepFunctions over the same p")
        k, depth = (self.depth, other.depth) if self.depth <= other.depth \
            else (other.depth, self.depth)
        total = Scalar.dot(self.p, self.coset_sums(k), other.coset_sums(k))
        return total.mul_root_p_power(self.exp + other.exp - 2 * depth)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        k, e, a, b = self._aligned(other)
        return StepFunction._raw(self.p, k, tuple(map(add, a, b)), e)

    def __sub__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        k, e, a, b = self._aligned(other)
        return StepFunction._raw(self.p, k, tuple(map(sub, a, b)), e)

    def __neg__(self):
        return StepFunction._raw(self.p, self.depth,
                                 tuple(-v for v in self.raw), self.exp)

    def scale(self, c) -> "StepFunction":
        s = c if isinstance(c, Scalar) else Scalar.rational(self.p, c)
        return StepFunction._raw(self.p, self.depth,
                                 tuple(v * s for v in self.raw), self.exp)

    def __mul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.raw == (Scalar.zero(self.p),) * len(self.raw)

    # -- equality (semantic: as functions on Z_p) ---------------------------

    def __eq__(self, other):
        """Equal as functions on Z_p, without refining: over the deeper
        operand's scale, each fibre raw[n::p^k] holds the shallower value."""
        if not isinstance(other, StepFunction):
            return NotImplemented
        if other.p != self.p:
            return False
        if self.depth == other.depth and self.exp == other.exp:
            return self.raw == other.raw
        low, high = sorted((self, other), key=lambda f: f.depth)
        vals = low._raw_at(high.exp)
        m = len(vals)
        copies = len(high.raw) // m
        return all(high.raw[n::m] == (v,) * copies
                   for n, v in enumerate(vals))

    def __repr__(self):
        shown = ", ".join(v.mul_root_p_power(self.exp).pretty()
                          for v in self.raw[:8])
        if len(self.raw) > 8:
            shown += ", …"
        return f"<StepFunction p={self.p} depth={self.depth} [{shown}]>"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "depth": self.depth,
                "values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, data: dict) -> "StepFunction":
        p = validate_prime(data["p"])
        depth = data["depth"]
        if type(data["values"]) is not list:
            raise ValueError("step function JSON values must be a list")
        return cls(p, depth, [Scalar.from_json(p, v) for v in data["values"]])


def indicator(p: int, digits) -> StepFunction:
    """Depth-k indicator of the coset with the k given digits (lowest
    first): 1 on it, 0 elsewhere."""
    digits = validate_word(digits, validate_prime(p))
    vals = [Scalar.zero(p)] * _check_cap(p, len(digits))
    vals[coset_index(p, digits)] = Scalar.one(p)
    return StepFunction._raw(p, len(digits), tuple(vals))


def l2_inner(f: StepFunction, g: StepFunction) -> Scalar:
    return f.inner(g)
