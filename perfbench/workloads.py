"""Inputs and cases of the library workload: the ladder and Fock case sets.

A workload's inputs come from its own ``random.Random(seed)``: the primes,
depths, truncations and word lengths follow a fixed schedule, so the work
of a round hardly depends on the seed, which draws the values and the
letters.  ``make_spec``
returns plain data (Fractions and tuples); ``build`` turns it into
padic_cuntz objects with the package's public constructors, which is the
timed set-up.  A case is one input and all of its checks; a round runs every
case once, in a fixed order.

Only calls into padic_cuntz are timed (``Tally.call``).  The reference
values of ``reference.py`` and the reading of outputs through ``to_json()``
are not.
"""

from __future__ import annotations

import operator
import random
import time
from contextlib import nullcontext
from fractions import Fraction

import reference as ref

#: the padic_cuntz package, bound by ``build`` (imported inside the set-up)
P = None

#: generator depths of step functions at p = 5, as the suites weight them
P5_DEPTHS = (0,) * 4 + (1,) * 4 + (2,) * 4 + (3,) * 3 + (4, 5)


class Tally:
    """Times the calls into padic_cuntz and counts the checks of one run.

    A check is one operation.  A wrong output is a failed operation and
    makes the run incorrect; an operation that raises is a failed
    operation too, but leaves no output to be wrong.
    """

    def __init__(self, pause=nullcontext):
        self._pause = pause      # suspends a tracer while outputs are read
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.case_seconds = 0.0
        self.notes: list[str] = []

    def call(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.case_seconds += time.perf_counter() - t0

    def read(self, x):
        """An output's JSON form (untimed, and untraced in a traced run)."""
        with self._pause():
            return x.to_json()

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(f"wrong output: {label}")

    def raised(self, label: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"raised: {label}: {type(exc).__name__}: {exc}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


class Case:
    __slots__ = ("kind", "label", "fn", "args", "memo")

    def __init__(self, kind, label, fn, *args):
        self.kind = kind
        self.label = label
        self.fn = fn
        self.args = args
        self.memo = None   # the case's reference values, built on first use


def run_case(t: Tally, case: Case) -> float:
    """Run one case; return the seconds spent inside padic_cuntz calls."""
    t.case_seconds = 0.0
    try:
        case.fn(t, case, *case.args)
    except Exception as exc:  # a raising operation is counted, not fatal
        t.raised(case.label, exc)
    return t.case_seconds


# -- input generation (plain data, untimed) -----------------------------------


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _step(rng, p, depth):
    """Random values; every fourth, from the first, carries √p and i too,
    so that the share of full-field values does not depend on the seed."""
    return (p, depth, tuple(
        tuple(_rational(rng) for _ in range(4)) if n % 4 == 0
        else ref.rational(_rational(rng)) for n in range(p ** depth)))


def _depths(p, per_depth, top=5):
    return P5_DEPTHS if p == 5 and top == 5 else \
        tuple(d for d in range(top + 1) for _ in range(per_depth))


def make_spec(workload: str, seed: int) -> dict:
    if workload != "library":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    return {**_ladder_spec(rng), **_fock_spec(rng)}


def _ladder_spec(rng):
    steps = []
    for p in (2, 3, 5):
        fd = _depths(p, 4)
        for df, dg in zip(fd, reversed(fd)):
            steps.append((_step(rng, p, df), _step(rng, p, dg),
                          rng.randrange(p)))
    states = [(p, _step(rng, p, d), rng.randrange(p))
              for p in (2, 3) for d in _depths(p, 3, top=3)]
    return {"steps": steps, "states": states}


def _fock_spec(rng):
    eigen = [(p, _step(rng, p, d), N)
             for p, top in ((2, 8), (3, 8), (5, 6))
             for N, d in zip(range(top - 4, top + 1), (0, 1, 2, 3, 3))]
    bridges = [(p, _step(rng, p, d), N, rng.randrange(p))
               for p, top in ((2, 6), (3, 6), (5, 5))
               for N, d in zip(range(top - 2, top + 1), (1, 2, 3))]
    tfock = [(p, _step(rng, p, d), 5, rng.randrange(p))
             for p in (2, 3) for d in _depths(p, 3, top=2)]
    pairs = []
    for p, per, top in ((2, 3, 3), (3, 3, 3), (5, 2, 2)):
        da = _depths(p, per, top)
        for a, b in zip(da, reversed(da)):
            pairs.append((p, _step(rng, p, a), _step(rng, p, b),
                          rng.randrange(p)))
    return {"eigen": eigen, "bridges": bridges, "tfock": tfock,
            "pairs": pairs}


# -- building the inputs with the public constructors (the timed set-up) ------


def _make_step(spec):
    p, depth, values = spec
    return P.StepFunction(p, depth, [P.Scalar(p, *v) for v in values])


def build(workload: str, spec: dict) -> list[Case]:
    """Import padic_cuntz and build one round of cases from the spec."""
    global P
    import padic_cuntz
    P = padic_cuntz
    return _ladder_cases(spec) + _fock_cases(spec)


def _ladder_cases(spec):
    cases = []
    for n, (fs, gs, i) in enumerate(spec["steps"]):
        cases.append(Case("cuntz", f"cuntz[{n}] p={fs[0]}", _cuntz_case,
                          fs, gs, _make_step(fs), _make_step(gs), i))
    for p in (2, 3):
        for I in ref.words_up_to(p, 3):
            cases.append(Case("gns", f"gns p={p} I={ref.word_str(I)!r}",
                              _gns_row, p, I))
        for k in range(5):
            cases.append(Case("cyclicity", f"cyclicity p={p} k={k}",
                              _cyclicity_case, p, k))
    for p in (2, 3):
        for w in ref.words_up_to(p, 2):
            cases.append(Case("trep", f"trep p={p} X_{ref.word_str(w)}",
                              _trep_case, P.indicator_state(p, w),
                              len(w) % p))
    for n, (p, gs, i) in enumerate(spec["states"]):
        cases.append(Case("trep", f"trep[{n}] p={p}", _trep_case,
                          P.CoherentState(_make_step(gs)), i))
    return cases


#: Gram matrices (p, longest word) and antifock tables (p, longest I)
GRAMS = ((2, 3), (3, 2), (5, 1))
AF_TABLES = ((2, 3), (3, 2))


def _fock_cases(spec):
    """Writes (expansions, residuals, T on words, X_I), then reads
    (pairings, Gram matrices, the antifock table)."""
    cases = []
    for n, (p, gs, N) in enumerate(spec["eigen"]):
        cases.append(Case("eigen", f"eigen[{n}] p={p} N={N}", _eigen_case,
                          gs, P.CoherentState(_make_step(gs)), N))
    for n, (p, gs, N, i) in enumerate(spec["bridges"]):
        s = P.CoherentState(_make_step(gs))
        cases.append(Case("leibnitz", f"leibnitz[{n}] p={p} N={N}",
                          _leibnitz_case, s, N))
        cases.append(Case("af-bridge", f"af-bridge[{n}] p={p} N={N}",
                          _af_bridge_case, s, N, i))
    for n, (p, gs, N, i) in enumerate(spec["tfock"]):
        cases.append(Case("t-fock", f"t-fock[{n}] p={p}", _tfock_case,
                          P.CoherentState(_make_step(gs)), N, i))
    for p in (2, 3):
        for I in ref.words_up_to(p, 3):
            cases.append(Case("expansion", f"X p={p} I={ref.word_str(I)!r}",
                              _x_case, p, I, 6))
    for n, (p, sa, sb, i) in enumerate(spec["pairs"]):
        a = P.CoherentState(_make_step(sa))
        b = P.CoherentState(_make_step(sb))
        cases.append(Case("pair", f"pair[{n}] p={p}", _pair_case,
                          sa, sb, a, b, i))
    for p, maxlen in GRAMS:
        cases.append(Case("gram", f"gram p={p} maxlen={maxlen}", _gram_case,
                          p, maxlen))
    for p, top in AF_TABLES:   # I-major, as the antifock criterion visits
        for I in ref.words_up_to(p, top):
            cases.append(Case("af-state", f"af p={p} I={ref.word_str(I)!r}",
                              _af_row, p, I))
    return cases


# -- cases --------------------------------------------------------------------


def _scalar(t, x):
    return ref.from_json(t.read(x))


def _cuntz_case(t, case, fs, gs, f, g, i):
    """Cuntz relations, adjointness, isometry, ‖f‖² and ⟨f, g⟩."""
    p = f.p
    for j in range(p):
        created = t.call(P.apply_creation, j, f)
        for k in range(p):
            out = t.call(P.apply_annihilation, k, created)
            ok = t.call(operator.eq, out, f) if k == j else \
                t.call(out.is_zero)
            t.check(ok, f"{case.label} A_{k}A†_{j}")
    total = None
    for k in range(p):
        term = t.call(P.apply_creation, k,
                      t.call(P.apply_annihilation, k, f))
        total = term if total is None else t.call(operator.add, total, term)
    t.check(t.call(operator.eq, total, f), f"{case.label} ΣA†A")
    lhs = t.call(P.l2_inner, t.call(P.apply_creation, i, f), g)
    rhs = t.call(P.l2_inner, f, t.call(P.apply_annihilation, i, g))
    t.check(t.call(operator.eq, lhs, rhs), f"{case.label} adjoint")
    cf = t.call(P.apply_creation, i, f)
    norm = t.call(P.l2_inner, f, f)
    t.check(t.call(operator.eq, t.call(P.l2_inner, cf, cf), norm),
            f"{case.label} isometry")
    fg = t.call(P.l2_inner, f, g)
    if case.memo is None:
        case.memo = (ref.inner(fs[0], fs[2], fs[1], fs[2], fs[1]),
                     ref.inner(fs[0], fs[2], fs[1], gs[2], gs[1]))
    t.check(_scalar(t, norm) == case.memo[0], f"{case.label} ‖f‖²")
    t.check(_scalar(t, fg) == case.memo[1], f"{case.label} ⟨f, g⟩")


def _gns_row(t, case, p, I):
    for J in ref.words_up_to(p, 3):
        value = t.call(P.gns_state, p, I, J)
        t.check(_scalar(t, value) == ref.state_value(p, I, J),
                f"{case.label} J={ref.word_str(J)!r}")


def _cyclicity_case(t, case, p, k):
    basis = t.call(P.cyclicity_basis, p, k)
    t.check(len(basis) == p ** k, f"{case.label} size")
    if case.memo is None:
        case.memo = ref.cyclicity_values(p, k)
    got = [t.read(g)["values"] for g in basis]
    t.check(got == case.memo, f"{case.label} values")


def _trep_case(t, case, s, i):
    """T_iT†_j = δ_ij, ΣT†_iT_i = 1 and the intertwining with A†_i, A_i."""
    p = s.p
    for j in range(p):
        created = t.call(P.t_dagger, j, s)
        for k in range(p):
            out = t.call(P.t_op, k, created)
            ok = t.call(operator.eq, out, s) if k == j else \
                t.call(out.is_zero)
            t.check(ok, f"{case.label} T_{k}T†_{j}")
    total = None
    for k in range(p):
        term = t.call(P.t_dagger, k, t.call(P.t_op, k, s))
        total = term if total is None else t.call(operator.add, total, term)
    t.check(t.call(operator.eq, total, s), f"{case.label} ΣT†T")
    gen = t.call(P.phi_map, s)
    t.check(t.call(operator.eq, t.call(P.phi_map, t.call(P.t_dagger, i, s)),
                   t.call(P.apply_creation, i, gen)),
            f"{case.label} φ∘T† = A†∘φ")
    t.check(t.call(operator.eq, t.call(P.phi_map, t.call(P.t_op, i, s)),
                   t.call(P.apply_annihilation, i, gen)),
            f"{case.label} φ∘T = A∘φ")


def _short_words(v, N):
    return any(len(w) < N for w in v.terms)


def _eigen_case(t, case, gs, s, N):
    """(ΣA_i − λ) on the expansion is −λ^{N+1}Ψ_w on the length-N words."""
    r = t.call(P.eigen_residual, s, N)
    if case.memo is None:
        case.memo = ref.eigen_terms(gs[0], gs[2], gs[1], N)
    t.check(t.read(r)["terms"] == case.memo, f"{case.label} residual")


def _leibnitz_case(t, case, s, N):
    residuals = t.call(P.leibnitz_residuals, s, N)
    t.check(len(residuals) == s.p + 1
            and not any(_short_words(v, N) for v in residuals),
            f"{case.label} residuals only at the boundary")


def _af_bridge_case(t, case, s, N, i):
    first, second = t.call(P.af_relation_residual, i, s, N)
    t.check(not _short_words(first, N), f"{case.label} create bridge")
    t.check(not _short_words(second, N), f"{case.label} annihilate bridge")


def _tfock_case(t, case, s, N, i):
    """Word-level T†_i, T_i against the expansion of the generator route."""
    t.check(t.call(operator.eq, t.call(P.t_dagger_fock, i, s, N),
                   t.call(P.to_fock_truncated, t.call(P.t_dagger, i, s), N)),
            f"{case.label} T† two routes")
    t.check(t.call(operator.eq, t.call(P.t_op_fock, i, s, N),
                   t.call(P.to_fock_truncated, t.call(P.t_op, i, s), N)),
            f"{case.label} T two routes")


def _x_case(t, case, p, I, N):
    v = t.call(P.build_X_truncated, p, I, N)
    if case.memo is None:
        case.memo = ref.x_terms(p, I, N)
    t.check(t.read(v)["terms"] == case.memo, f"{case.label} coefficients")


def _pair_case(t, case, sa, sb, a, b, i):
    """The renormalized pairing against the L² route and the reference, and
    ⟨T_i a, b⟩ = ⟨a, T†_i b⟩ through it."""
    value = t.call(P.renormalized_pairing, a, b)
    l2 = t.call(P.l2_inner, t.call(P.phi_map, a), t.call(P.phi_map, b))
    t.check(t.call(operator.eq, value, l2), f"{case.label} pairing = L²")
    lhs = t.call(P.renormalized_pairing, t.call(P.t_op, i, a), b)
    rhs = t.call(P.renormalized_pairing, a, t.call(P.t_dagger, i, b))
    t.check(t.call(operator.eq, lhs, rhs), f"{case.label} T-adjoint")
    if case.memo is None:
        p = sa[0]
        vals, depth = ref.annihilate(p, sa[2], sa[1], i)
        case.memo = (ref.inner(p, sa[2], sa[1], sb[2], sb[1]),
                     ref.inner(p, vals, depth, sb[2], sb[1]))
    t.check(_scalar(t, value) == case.memo[0], f"{case.label} ⟨a, b⟩")
    t.check(_scalar(t, lhs) == case.memo[1], f"{case.label} ⟨A_i a, b⟩")


def _gram_case(t, case, p, maxlen):
    basis, ren, _, equal, max_stab = t.call(P.gram_matrices, p, maxlen)
    t.check(equal, f"{case.label} pairing Gram = L² Gram")
    t.check(max_stab <= maxlen, f"{case.label} stabilization index")
    if case.memo is None:
        words = list(ref.words_up_to(p, maxlen))
        case.memo = (words, [[ref.gram_entry(p, I, J) for J in words]
                             for I in words])
    got = [[_scalar(t, v) for v in row] for row in ren]
    t.check(list(basis) == case.memo[0] and got == case.memo[1],
            f"{case.label} closed form")


def _af_row(t, case, p, I):
    for J in ref.words_up_to(p, 3):
        value = t.call(P.af_state_value, p, I, J, len(I) + len(J) + 3)
        t.check(_scalar(t, value) == ref.state_value(p, I, J),
                f"{case.label} J={ref.word_str(J)!r}")
