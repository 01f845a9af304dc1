"""The benchmark's own exact reference values, independent of padic_cuntz.

An element (a + b·√p) + i·(c + d·√p) of Q(√p) ⊕ i·Q(√p) is a 4-tuple of
``fractions.Fraction``; its JSON form is the one ``Scalar.to_json`` writes,
four "num/den" strings.  Every closed form here is computed from the
benchmark's inputs alone, so a check against it does not trust the program.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

ZERO = (Fraction(0),) * 4


def add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def neg(x):
    return tuple(-u for u in x)


def conj(x):
    return (x[0], x[1], -x[2], -x[3])


def scale(x, q):
    return tuple(u * q for u in x)


def mul(p, x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + p * b1 * b2 - c1 * c2 - p * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + p * b1 * d2 + c1 * a2 + p * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def root_p_power(p, n):
    """p^{n/2}: p^{n/2} for even n, p^{⌊n/2⌋}·√p for odd n."""
    k, odd = divmod(n, 2)
    r = Fraction(p) ** k
    return (Fraction(0), r, Fraction(0), Fraction(0)) if odd else \
        (r, Fraction(0), Fraction(0), Fraction(0))


def rational(q):
    return (Fraction(q), Fraction(0), Fraction(0), Fraction(0))


def to_json(x):
    return [f"{u.numerator}/{u.denominator}" for u in x]


def from_json(data):
    return tuple(Fraction(s) for s in data)


def words_up_to(p, n):
    for k in range(n + 1):
        yield from product(range(p), repeat=k)


def word_str(w):
    return "".join(str(d) for d in w)


# -- step functions, as (p, depth, values) with coset index n = Σ d_j p^j -----


def inner(p, f, f_depth, g, g_depth):
    """L² pairing p^{−k} Σ conj(f_n)·g_n at the common depth k."""
    k = max(f_depth, g_depth)
    mf, mg = p ** f_depth, p ** g_depth
    total = ZERO
    for n in range(p ** k):
        x, y = f[n % mf], g[n % mg]
        if x != ZERO and y != ZERO:
            total = add(total, mul(p, conj(x), y))
    return scale(total, Fraction(1, p ** k))


def annihilate(p, f, depth, i):
    """A_i on values: p^{−1/2}·f(i + p·m) at depth − 1 (constants scale)."""
    vals = f if depth == 0 else f[i::p]
    factor = root_p_power(p, -1)
    return tuple(mul(p, v, factor) for v in vals), max(depth - 1, 0)


def psi(p, f, depth, w):
    """Ψ_w: the integral of the generator over the disk addressed by w."""
    m = min(len(w), depth)
    center = sum(d * p ** j for j, d in enumerate(w[:m]))
    total = ZERO
    for v in f[center::p ** m]:
        total = add(total, v)
    return scale(total, Fraction(1, p ** max(depth, len(w))))


# -- closed forms -------------------------------------------------------------


def state_value(p, I, J):
    """⟨A†_I A_J⟩ and the antifock value: p^{−(|I|+|J|)/2}."""
    return root_p_power(p, -(len(I) + len(J)))


def is_prefix(u, v):
    return v[:len(u)] == u


def gram_entry(p, I, J):
    """⟨X_I, X_J⟩ = p^{min(|I|,|J|)} if one word prefixes the other, else 0."""
    if is_prefix(I, J) or is_prefix(J, I):
        return rational(Fraction(p) ** min(len(I), len(J)))
    return ZERO


def x_terms(p, I, N):
    """JSON terms of X_I through length N: λ^{|w|}·p^{|I|−max(|I|,|w|)} on
    every word w that agrees with I on their common prefix."""
    out = {}
    for w in words_up_to(p, N):
        m = min(len(w), len(I))
        if w[:m] == I[:m]:
            c = Fraction(p) ** (len(I) - max(len(I), len(w)))
            out[word_str(w)] = {str(len(w)): to_json(rational(c))}
    return out


def eigen_terms(p, f, depth, N):
    """JSON terms of the eigen residual: −λ^{N+1}·Ψ_w on each length-N word."""
    out = {}
    for w in product(range(p), repeat=N):
        v = psi(p, f, depth, w)
        if v != ZERO:
            out[word_str(w)] = {str(N + 1): to_json(neg(v))}
    return out


def cyclicity_values(p, k):
    """JSON values of A†_I·1 for each |I| = k: p^{k/2} at the msd center."""
    zero, top = to_json(ZERO), to_json(root_p_power(p, k))
    out = []
    for I in product(range(p), repeat=k):
        center = sum(d * p ** (k - 1 - j) for j, d in enumerate(I))
        vals = [zero] * p ** k
        vals[center] = top
        out.append(vals)
    return out


def verify_case_counts(p):
    """Case count of each suite of `padic-cuntz verify --suite all --p p`
    at the default depth 4, truncation 6 and 25 random cases (p ≤ 3)."""
    w2 = sum(p ** k for k in range(3))
    w3 = sum(p ** k for k in range(4))
    return {"cuntz": 200 * (p + 3),
            "cyclicity": 5,
            "gns": w3 * w3 + 10_000,
            "pairing": 2 + w3 + 25 * (w2 + 4),
            "trep": (w3 + 25) * (p * p + 3) + 25 * 3,
            "af": w2 * w2 + 25 * 3}
