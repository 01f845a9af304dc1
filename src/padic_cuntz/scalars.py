"""Exact scalars of the form (a + b·√p) + i·(c + d·√p) with rational a,b,c,d.

Every coefficient the ladder operators, the Haar integrals, and the
renormalized-pairing limits can produce lives in this field, so all
identity checks in the package are exact equalities — no tolerances
anywhere.  A scalar is four integer numerators over one shared positive
denominator, kept in lowest terms, so arithmetic is integer arithmetic
plus one gcd, and equality is integer comparison.  Rationals
(``fractions.Fraction``) appear only at the boundary: constructor
arguments, the ``ra``/``rb``/``ia``/``ib`` accessors, and JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from math import gcd, lcm

from .errors import NotPrimeError, ParameterError


_new = object.__new__
_ZEROS: dict = {}
_EXACT = frozenset((int, Q))  # types whose as_integer_ratio() is exact


def _ratio(x) -> tuple[int, int]:
    """(numerator, positive denominator) of an int, Fraction or 'num/den'
    string, reduced."""
    if type(x) in _EXACT:
        return x.as_integer_ratio()
    if isinstance(x, (int, Q, str)):
        return Q(x).as_integer_ratio()
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _ratio_str(n: int, q: int) -> str:
    """Canonical 'num/den' of n/q (always with an explicit denominator)."""
    g = gcd(n, q)
    return f"{n // g}/{q // g}"


# Miller–Rabin with these thirteen bases is exact below the bound
# (Sorenson & Webster, Math. Comp. 86, 2017); twelve are not enough.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin: exact below ``_MR_BOUND``, past which an
    n with no factor among the bases raises ParameterError (unproved)."""
    if n < 2:
        return False
    if n in _MR_BASES:   # the common small p, without a division
        return True
    for b in _MR_BASES:
        if n % b == 0:
            return False
    if n >= _MR_BOUND:
        raise ParameterError(f"p = {n} is at or above {_MR_BOUND}, where "
                             "the primality test is not exact")
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n − 1 = d·2^s with d odd
    d = (n - 1) >> s
    return not any(pow(a, d, n) != 1
                   and all(pow(a, d << j, n) != n - 1 for j in range(s))
                   for a in _MR_BASES)


def validate_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"p must be prime, got {p!r}")
    return p


class Scalar:
    """An exact element of Q(√p) ⊕ i·Q(√p).

    Stored as integers (a, b, c, d, q) denoting
    (a + b·√p + i·(c + d·√p)) / q with q > 0 and gcd(a, b, c, d, q) = 1,
    so equal values have equal fields.  The rational components are
    readable as ``ra``, ``rb``, ``ia``, ``ib``.  Immutable by convention;
    all arithmetic returns new instances.  √p·√p reduces to p exactly, and
    conjugation negates the imaginary pair only (√p is real).
    """

    __slots__ = ("p", "a", "b", "c", "d", "q")

    def __init__(self, p: int, ra=0, rb=0, ia=0, ib=0):
        self.p = p
        if type(ra) is type(rb) is type(ia) is type(ib) is Q:
            # read Fraction's fields directly: its numerator and denominator
            # properties are Python-level calls, eight of them per value
            a, q = ra._numerator, ra._denominator
            b, qb, c, qc, d, qd = (rb._numerator, rb._denominator,
                                   ia._numerator, ia._denominator,
                                   ib._numerator, ib._denominator)
        else:
            (a, q), (b, qb), (c, qc), (d, qd) = map(_ratio, (ra, rb, ia, ib))
        if b or c or d:
            # over the lcm of reduced denominators no common factor is left
            m = lcm(q, qb, qc, qd)
            a, b, c, d, q = (a * (m // q), b * (m // qb), c * (m // qc),
                             d * (m // qd), m)
        self.a, self.b, self.c, self.d, self.q = a, b, c, d, q

    @staticmethod
    def _raw(p, a, b, c, d, q) -> "Scalar":
        """A scalar from fields already in canonical form."""
        s = _new(Scalar)
        s.p, s.a, s.b, s.c, s.d, s.q = p, a, b, c, d, q
        return s

    @staticmethod
    def _reduced(p, a, b, c, d, q) -> "Scalar":
        """(a + b√p + i(c + d√p))/q for q > 0, divided to lowest terms."""
        if q != 1:
            g = gcd(a, b, c, d, q)
            if g != 1:
                a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
        s = _new(Scalar)
        s.p, s.a, s.b, s.c, s.d, s.q = p, a, b, c, d, q
        return s

    @staticmethod
    def sum(p: int, values) -> "Scalar":
        """Σ values in one integer pass over a running common denominator."""
        zero, lone, ta, tb, tc, td, tq = Scalar.zero(p), None, 0, 0, 0, 0, 1
        for v in values:
            if v is zero:  # the shared zero of padding adds nothing
                continue
            a, b, c, d, q = v.a, v.b, v.c, v.d, v.q
            if q != tq:
                if tq % q:  # grow the running denominator to lcm(tq, q)
                    m = q // gcd(tq, q)
                    ta, tb, tc, td, tq = ta * m, tb * m, tc * m, td * m, tq * m
                f = tq // q
                a, b, c, d = a * f, b * f, c * f, d * f
            ta, tb, tc, td = ta + a, tb + b, tc + c, td + d
            lone = v if lone is None else False   # a lone value is its sum
        return lone or (Scalar._reduced(p, ta, tb, tc, td, tq)
                        if ta or tb or tc or td else zero)

    @staticmethod
    def dot(p: int, xs, ys) -> "Scalar":
        """Σ conj(x)·y, conjugate-linear in ``xs``, in one pass as ``sum``."""
        zero, ta, tb, tc, td, tq = Scalar.zero(p), 0, 0, 0, 0, 1
        for x, y in zip(xs, ys):
            if x is zero or y is zero:
                continue
            a1, b1, c1, d1, q = x.a, x.b, x.c, x.d, x.q * y.q
            a2, b2, c2, d2 = y.a, y.b, y.c, y.d   # times conj(x): c1, d1 → −
            a = a1 * a2 + c1 * c2 + p * (b1 * b2 + d1 * d2)
            b = a1 * b2 + b1 * a2 + c1 * d2 + d1 * c2
            c = a1 * c2 - c1 * a2 + p * (b1 * d2 - d1 * b2)
            d = a1 * d2 + b1 * c2 - c1 * b2 - d1 * a2
            if q != tq:
                if tq % q:
                    m = q // gcd(tq, q)
                    ta, tb, tc, td, tq = ta * m, tb * m, tc * m, td * m, tq * m
                f = tq // q
                a, b, c, d = a * f, b * f, c * f, d * f
            ta, tb, tc, td = ta + a, tb + b, tc + c, td + d
        return Scalar._reduced(p, ta, tb, tc, td, tq) \
            if ta or tb or tc or td else zero

    @classmethod
    def from_ints(cls, p: int, a: int, b: int = 0, c: int = 0, d: int = 0,
                  q: int = 1) -> "Scalar":
        """(a + b·√p + i·(c + d·√p)) / q from integers, q ≠ 0."""
        if not q:
            raise ZeroDivisionError("scalar with zero denominator")
        if q < 0:
            a, b, c, d, q = -a, -b, -c, -d, -q
        return cls._reduced(p, a, b, c, d, q)

    @classmethod
    def zero(cls, p: int) -> "Scalar":
        """0, one object per p: zero-padded arrays compare by identity."""
        if p not in _ZEROS:
            _ZEROS[p] = cls._raw(p, 0, 0, 0, 0, 1)
        return _ZEROS[p]

    @classmethod
    def one(cls, p: int) -> "Scalar":
        return cls._raw(p, 1, 0, 0, 0, 1)

    @classmethod
    def rational(cls, p: int, q) -> "Scalar":
        n, m = _ratio(q)
        return cls._raw(p, n, 0, 0, 0, m)

    @classmethod
    def root_p_power(cls, p: int, n: int) -> "Scalar":
        """p^(n/2) as an exact scalar: p^(n//2) for even n, ·√p extra for odd."""
        k, odd = divmod(n, 2)
        num, den = (p ** k, 1) if k >= 0 else (1, p ** -k)
        return cls._raw(p, 0, num, 0, 0, den) if odd else \
            cls._raw(p, num, 0, 0, 0, den)

    # -- rational components (the boundary) -----------------------------

    # (ra + rb·√p) + i·(ia + ib·√p), each a reduced Fraction
    ra = property(lambda s: Q(s.a, s.q))
    rb = property(lambda s: Q(s.b, s.q))
    ia = property(lambda s: Q(s.c, s.q))
    ib = property(lambda s: Q(s.d, s.q))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.p != self.p:
                raise ValueError(f"mixed primes {self.p} and {other.p}")
            return other
        try:
            return Scalar.rational(self.p, other)
        except TypeError:
            return None

    def __add__(self, other):
        if type(other) is not Scalar or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a2, b2, c2, d2, q2 = other.a, other.b, other.c, other.d, other.q
        if not (a2 or b2 or c2 or d2):
            return self
        a1, b1, c1, d1, q1 = self.a, self.b, self.c, self.d, self.q
        if not (a1 or b1 or c1 or d1):
            return other
        return Scalar._reduced(self.p, a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                               c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar._raw(self.p, -self.a, -self.b, -self.c, -self.d,
                           self.q)

    def __mul__(self, other):
        if type(other) is not Scalar or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p = self.p
        a1, b1, c1, d1, q1 = self.a, self.b, self.c, self.d, self.q
        a2, b2, c2, d2, q2 = other.a, other.b, other.c, other.d, other.q
        if not (a1 or b1 or c1 or d1) or not (a2 or b2 or c2 or d2):
            return Scalar.zero(p)
        # full product: (r1 + i·m1)(r2 + i·m2) with r, m in Q(√p)
        return Scalar._reduced(
            p,
            a1 * a2 + p * b1 * b2 - c1 * c2 - p * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + p * (b1 * d2 + d1 * b2),
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            q1 * q2)

    __rmul__ = __mul__

    def mul_root_p_power(self, n: int) -> "Scalar":
        """Multiply by p^(n/2) exactly (n may be negative)."""
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        if n == 0 or not (a or b or c or d):
            return self
        p = self.p
        k, odd = divmod(n, 2)
        if odd:  # (a + b√p)·√p = p·b + a·√p
            a, b, c, d = p * b, a, p * d, c
        if k > 0:
            f = p ** k
            a, b, c, d = a * f, b * f, c * f, d * f
        elif k < 0:
            q *= p ** -k
        return Scalar._reduced(p, a, b, c, d, q)

    def conjugate(self) -> "Scalar":
        return Scalar._raw(self.p, self.a, self.b, -self.c, -self.d, self.q)

    # -- order structure on the real part ------------------------------

    def real_sign(self) -> int:
        """Exact sign of a + b·√p; requires a real scalar."""
        if self.c or self.d:
            raise ValueError("real_sign of a non-real scalar")
        a, b = self.a, self.b  # over q > 0, which keeps the sign
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a² with p·b² (√p is irrational, no tie)
        lhs, rhs = a * a, self.p * b * b
        if a > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self.a == other.a and self.b == other.b
                    and self.c == other.c and self.d == other.d
                    and self.q == other.q and self.p == other.p)
        if isinstance(other, (int, Q)):
            n, m = _ratio(other)
            return (not (self.b or self.c or self.d)
                    and self.a == n and self.q == m)
        return NotImplemented

    def __hash__(self):
        if not (self.b or self.c or self.d):
            # a rational scalar hashes as the int or Fraction it equals
            return hash(self.a) if self.q == 1 else hash(Q(self.a, self.q))
        return hash((self.p, self.a, self.b, self.c, self.d, self.q))

    # -- display / serialization ----------------------------------------

    def to_complex(self) -> complex:
        """Floating approximation, for display only."""
        r = math.sqrt(self.p)
        return complex(float(self.ra) + float(self.rb) * r,
                       float(self.ia) + float(self.ib) * r)

    def _part_str(self, a, b) -> str:
        terms = []
        if a:
            terms.append(str(a))
        if b:
            if b == 1:
                terms.append(f"√{self.p}")
            elif b == -1:
                terms.append(f"-√{self.p}")
            else:
                terms.append(f"{b}·√{self.p}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def pretty(self) -> str:
        """Exact human-readable form, e.g. '1/2·√2' or '3 + i·(√5)'."""
        re = self._part_str(self.ra, self.rb)
        if self.is_real():
            return re
        im = self._part_str(self.ia, self.ib)
        if re == "0":
            return f"i·({im})"
        return f"{re} + i·({im})"

    def __repr__(self):
        return f"<Scalar p={self.p} {self.pretty()}>"

    def to_json(self) -> list[str]:
        q = self.q
        return [_ratio_str(self.a, q), _ratio_str(self.b, q),
                _ratio_str(self.c, q), _ratio_str(self.d, q)]

    @classmethod
    def from_json(cls, p: int, data) -> "Scalar":
        """Four rational components, each a 'num/den' string or an int."""
        if type(data) is not list or len(data) != 4 or any(
                type(x) not in (str, int) for x in data):
            raise ValueError("scalar JSON must be a list of four rational "
                             "components, each a string or an integer")
        return cls(p, *data)


def format_with_decimal(s: Scalar) -> str:
    """Exact form, with a decimal annotation when the value is irrational."""
    out = s.pretty()
    if not s.is_rational():
        z = s.to_complex()
        if z.imag == 0:
            out += f" ≈ {z.real:.8f}"
        else:
            out += f" ≈ {z.real:.8f}{z.imag:+.8f}i"
    return out
