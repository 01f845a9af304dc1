"""Seeded, reportable verification suites behind the CLI `verify` command.

Each suite runs one family of exact identities and returns a SuiteReport;
a case that fails lands in the report with its expected/actual rendering,
and so does a case whose self-check raised.  Everything is deterministic
for a fixed seed, and failures are the only thing that can make the
process exit nonzero.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from functools import cache, partial, reduce
from operator import add

from . import stepfunctions
from .coherent import (CoherentState, af_relation_residual, af_state_value,
                       build_X_truncated, eigen_residual, gram_matrices,
                       indicator_state, leibnitz_residuals, pairing_series,
                       phi_map, renormalized_pairing, t_dagger, t_dagger_fock,
                       t_op, t_op_fock, to_fock_truncated)
from .errors import NotStabilizedError, ParameterError, SelfCheckError
from .representation import (apply_annihilation, apply_creation,
                             cyclicity_basis, gns_state)
from .scalars import Scalar, validate_prime
from .stepfunctions import StepFunction, _cap_exponent, _check_cap
from .words import word_at, word_str, words_up_to

SUITE_NAMES = ("cuntz", "gns", "pairing", "trep", "af", "all")


class SuiteReport:
    """Outcome of one verification suite; failures empty ⇔ exit code 0.

    Creating one checks p and starts the clock; ``done()`` stops it."""

    def __init__(self, suite: str, p: int, **parameters) -> None:
        validate_prime(p)
        self.suite, self.p, self.parameters = suite, p, parameters
        self.cases, self.failures, self.wall_time = 0, [], 0.0
        self._start = time.perf_counter()

    def done(self) -> "SuiteReport":
        """Set ``wall_time`` to the seconds since creation; returns self."""
        self.wall_time = time.perf_counter() - self._start
        return self

    def check(self, case_id: str, ok: bool, expected="identity",
              actual="violated") -> None:
        """Count a case; only a failed one renders its Scalar sides."""
        self.cases += 1
        if not ok:
            expected, actual = (x.pretty() if isinstance(x, Scalar) else x
                                for x in (expected, actual))
            self.failures.append(
                {"case": case_id, "expected": expected, "actual": actual})

    # guard names its cases and check names each one again: a checker bound
    # to the case ids costs a call per case.  The sampled gns loop, the bulk
    # of a verify run, checks each pair's stored outcome without a guard
    @contextmanager
    def guard(self, *case_ids: str):
        """Run the checks of the named cases.  A self-check error inside
        fails each of them not yet checked, with the error as ``actual``."""
        done = self.cases
        try:
            yield
        except (SelfCheckError, NotStabilizedError) as exc:
            actual = f"{type(exc).__name__}: {exc}"
            for case_id in case_ids[self.cases - done:]:
                self.check(case_id, False, actual=actual)

    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "p": self.p,
                "parameters": self.parameters, "cases": self.cases,
                "failures": self.failures,
                "wall_time": round(self.wall_time, 6)}


def _random_ratio(rng: random.Random) -> tuple[int, int]:
    """A numerator in [−9, 9] and a denominator in [1, 9]."""
    return rng.randint(-9, 9), rng.randint(1, 9)


def random_scalar(rng: random.Random, p: int, full: bool = False) -> Scalar:
    """Random exact scalar; mostly plain rationals, sometimes full-field."""
    if full or rng.random() < 0.25:
        (a, qa), (b, qb), (c, qc), (d, qd) = [_random_ratio(rng)
                                              for _ in range(4)]
        # a/qa + b/qb·√p + i·(c/qc + d/qd·√p) over the product denominator
        return Scalar.from_ints(p, a * qb * qc * qd, b * qa * qc * qd,
                                c * qa * qb * qd, d * qa * qb * qc,
                                qa * qb * qc * qd)
    n, m = _random_ratio(rng)
    return Scalar.from_ints(p, n, q=m)


def random_step_function(rng: random.Random, p: int,
                         depth: int) -> StepFunction:
    vals = tuple(random_scalar(rng, p) for _ in range(_check_cap(p, depth)))
    return StepFunction(p, depth, vals)


def random_depth(rng: random.Random, p: int, max_depth: int = 5) -> int:
    """Depth in [0, max_depth]; deep levels drawn less often for large p."""
    if p >= 5:
        weights = [4, 4, 4, 3, 1, 1][:max_depth + 1]
        return rng.choices(range(len(weights)), weights=weights)[0]
    return rng.randint(0, max_depth)


def random_coherent_state(rng: random.Random, p: int,
                          max_depth: int = 3) -> CoherentState:
    depth = rng.randint(0, max_depth)
    return CoherentState(random_step_function(rng, p, depth))


# -- suites -------------------------------------------------------------------


def suite_cuntz(p: int, depth: int = 5, cases: int = 200,
                seed: int = 0) -> SuiteReport:
    """Cuntz relations, adjointness, and isometry on random step functions."""
    report = SuiteReport("cuntz", p, depth=depth, cases=cases, seed=seed)
    rng = random.Random(seed)
    for n in range(cases):
        f = random_step_function(rng, p, random_depth(rng, p, depth))
        j = rng.randrange(p)
        created = apply_creation(j, f)
        for i in range(p):
            out = apply_annihilation(i, created)
            report.check(f"aac[{n}] A_{i}A†_{j}",
                         out == f if i == j else out.is_zero(),
                         "δ_ij·f", "differs")
        total = reduce(add, (apply_creation(i, apply_annihilation(i, f))
                             for i in range(p)))
        report.check(f"cuntz[{n}] ΣA†A", total == f, "f", "differs")
        g = random_step_function(rng, p, random_depth(rng, p, depth))
        i = rng.randrange(p)
        lhs = apply_creation(i, f).inner(g)
        rhs = f.inner(apply_annihilation(i, g))
        report.check(f"adjoint[{n}]", lhs == rhs, lhs, rhs)
        cf = apply_creation(i, f)
        norm = f.inner(f)   # real for a Hermitian pairing
        report.check(f"isometry[{n}]",
                     cf.inner(cf) == norm and norm.is_real(),
                     "‖f‖²", "differs")
    return report.done()


def suite_gns(p: int, depth: int = 4, sample: int = 10_000,
              seed: int = 0) -> SuiteReport:
    """State values: exhaustive through length 3, sampled at the boundary.

    Samples are drawn with replacement; each distinct sampled pair is
    evaluated and compared once per call; each draw is its own case."""
    report = SuiteReport("gns", p, depth=depth, sample=sample, seed=seed)
    rng = random.Random(seed)
    # a pair's (ok, expected, actual), a raised self-check as actual; only
    # sampled pairs are memoized, per call (one word has length depth > 3)
    def outcome(I, J):
        try:
            value = gns_state(p, I, J)   # self-checking
        except (SelfCheckError, NotStabilizedError) as exc:
            return False, "identity", f"{type(exc).__name__}: {exc}"
        expected = Scalar.root_p_power(p, -(len(I) + len(J)))
        return value == expected, expected, value
    exhaustive = min(depth, 3)
    small = list(words_up_to(p, exhaustive))
    for I in small:
        for J in small:
            report.check(f"state({word_str(I, p)!r},{word_str(J, p)!r})",
                         *outcome(I, J))
    if depth > exhaustive:
        # draw word indices in words_up_to order: randrange(n) takes the
        # same random bits as choice() over a list of n words, without
        # listing p^depth of them; the few distinct words decode once
        word, stored = cache(partial(word_at, p)), cache(outcome)
        boundary = p ** depth
        shorter = (boundary - 1) // (p - 1)   # words of length < depth
        for n in range(sample):
            I = word(shorter + rng.randrange(boundary))
            J = word(rng.randrange(shorter + boundary))
            if rng.random() < 0.5:
                I, J = J, I
            report.check(f"state-sample[{n}]", *stored(I, J))
    return report.done()


def suite_pairing(p: int, maxlen: int = 3, trunc: int = 6, cases: int = 25,
                  seed: int = 0) -> SuiteReport:
    """Pairing-vs-L² Gram, cascade, expansion self-check, eigen residuals."""
    report = SuiteReport("pairing", p, maxlen=maxlen, trunc=trunc,
                         cases=cases, seed=seed)
    rng = random.Random(seed)
    with report.guard("gram-equality", "gram-stabilization"):
        basis, ren, l2, equal, max_stab = gram_matrices(p, maxlen)
        size = sum(p ** k for k in range(maxlen + 1))
        report.check("gram-equality", equal and len(basis) == size,
                     f"pairing Gram == L² Gram on {size} words", "differ")
        report.check("gram-stabilization", max_stab <= maxlen,
                     f"index ≤ {maxlen}", f"index {max_stab}")
    one = Scalar.one(p)
    for I in words_up_to(p, min(maxlen, 3)):
        case = f"expansion({word_str(I, p)!r})"
        with report.guard(case):
            # self-checking against the generator coefficients
            v = build_X_truncated(p, I, trunc)
            report.check(case, v.coefficient(I) == (len(I), one),
                         "λ^|I|·1 on the word I", "differs")
    for n in range(cases):
        s = random_coherent_state(rng, p)
        for I in words_up_to(p, 2):
            total = Scalar.sum(p, (s.coefficient(I + (i,)) for i in range(p)))
            report.check(f"cascade[{n}]({word_str(I, p)!r})",
                         s.coefficient(I) == total, "Ψ_I = ΣΨ_Ii", "differs")
        with report.guard(f"eigen-short[{n}]", f"eigen-boundary[{n}]"):
            r = eigen_residual(s, trunc)
            short = [k for k in r.support_lengths() if k < trunc]
            report.check(f"eigen-short[{n}]", not short,
                         "no residual below boundary", f"{len(short)} lengths")
            boundary = to_fock_truncated(s, trunc).restrict_lengths(
                trunc).shift_lambda(1).scale(-one)
            report.check(f"eigen-boundary[{n}]", r == boundary,
                         "−λ^{N+1}Ψ_J", "differs")
        t = random_coherent_state(rng, p)
        with report.guard(f"pairing-vs-l2[{n}]", f"stabilization-bound[{n}]"):
            series = pairing_series(s, t)   # value and index from one series
            lhs, rhs = series.value, phi_map(s).inner(phi_map(t))
            report.check(f"pairing-vs-l2[{n}]", lhs == rhs, rhs, lhs)
            report.check(f"stabilization-bound[{n}]",
                         series.stabilized_at <= max(s.depth, t.depth),
                         "k₀ ≤ max depth", f"k₀ = {series.stabilized_at}")
    return report.done()


def suite_trep(p: int, maxlen: int = 3, cases: int = 25,
               seed: int = 0) -> SuiteReport:
    """T-operator Cuntz relations, intertwining, adjointness, word-level check."""
    report = SuiteReport("trep", p, maxlen=maxlen, cases=cases, seed=seed)
    rng = random.Random(seed)
    states = [(f"X_{word_str(w, p) or 'Ω'}", indicator_state(p, w))
              for w in words_up_to(p, maxlen)]
    states += [(f"rand[{n}]", random_coherent_state(rng, p))
               for n in range(cases)]
    for name, s in states:
        for i in range(p):
            for j in range(p):
                out = t_op(i, t_dagger(j, s))
                report.check(f"T_iT†_j({name},{i},{j})",
                             out == s if i == j else out.is_zero(),
                             "δ_ij·s", "differs")
        total = reduce(add, (t_dagger(i, t_op(i, s)) for i in range(p)))
        report.check(f"ΣT†T({name})", total == s, "s", "differs")
        i = rng.randrange(p)
        report.check(f"intertwine-create({name},{i})",
                     phi_map(t_dagger(i, s)) == apply_creation(i, phi_map(s)),
                     "φ∘T† = A†∘φ", "differs")
        report.check(f"intertwine-annihilate({name},{i})",
                     phi_map(t_op(i, s)) == apply_annihilation(i, phi_map(s)),
                     "φ∘T = A∘φ", "differs")
    for n in range(cases):
        a = random_coherent_state(rng, p)
        b = random_coherent_state(rng, p)
        i = rng.randrange(p)
        with report.guard(f"T-adjoint[{n}]"):
            lhs = renormalized_pairing(t_op(i, a), b)
            rhs = renormalized_pairing(a, t_dagger(i, b))
            report.check(f"T-adjoint[{n}]", lhs == rhs, rhs, lhs)
        N = 5
        s = random_coherent_state(rng, p, max_depth=2)
        for op, by_generator, by_words in (
                ("T†", t_dagger_fock, t_dagger), ("T", t_op_fock, t_op)):
            case = f"{op}-two-paths[{n}]"
            with report.guard(case):
                same = by_generator(i, s, N) == to_fock_truncated(
                    by_words(i, s), N)
                report.check(case, same, "generator path == word path",
                             "differ")
    return report.done()


def suite_af(p: int, maxlen: int = 2, trunc: int = 6, cases: int = 25,
             seed: int = 0) -> SuiteReport:
    """Antifock state values, Leibnitz residuals, AF bridge residuals."""
    report = SuiteReport("af", p, maxlen=maxlen, trunc=trunc, cases=cases,
                         seed=seed)
    rng = random.Random(seed)
    for I in words_up_to(p, maxlen):
        for J in words_up_to(p, maxlen):
            case = f"af-state({word_str(I, p)!r},{word_str(J, p)!r})"
            with report.guard(case):
                value = af_state_value(p, I, J)
                expected = Scalar.root_p_power(p, -(len(I) + len(J)))
                report.check(case, value == expected, expected, value)
    for n in range(cases):
        s = random_coherent_state(rng, p)
        with report.guard(f"leibnitz[{n}]"):
            residuals = leibnitz_residuals(s, trunc)
            bad = [k for r in residuals for k in r.support_lengths()
                   if k < trunc]
            report.check(f"leibnitz[{n}]", not bad,
                         "support only at boundary",
                         f"{len(bad)} short lengths")
        i = rng.randrange(p)
        with report.guard(f"af-bridge-create[{n}]",
                          f"af-bridge-annihilate[{n}]"):
            first, second = af_relation_residual(i, s, trunc)
            report.check(f"af-bridge-create[{n}]", first.is_zero(), "zero",
                         f"lengths {sorted(first.support_lengths())}")
            bad = [k for k in second.support_lengths() if k < trunc]
            report.check(f"af-bridge-annihilate[{n}]", not bad,
                         "zero below boundary", f"{len(bad)} lengths")
    return report.done()


def suite_cyclicity(p: int, depth: int = 4) -> SuiteReport:
    """Creation chains on 1 span the depth-k indicators (cyclic vector)."""
    report = SuiteReport("cyclicity", p, depth=depth)
    for k in range(depth + 1):
        with report.guard(f"span(k={k})"):
            basis = cyclicity_basis(p, k)   # self-checking against indicators
            # p^k distinct indicators of depth-k cosets cover all of them
            distinct = len({g.raw for g in basis})
            report.check(f"span(k={k})", len(basis) == distinct == p ** k,
                         f"{p ** k} functions",
                         f"{len(basis)}, {distinct} distinct")
    return report.done()


def run_suites(name: str, p: int, depth: int = 4, trunc: int = 6,
               seed: int = 0) -> list[SuiteReport]:
    """Dispatch a suite name (or 'all') to the runners above.

    Word-indexed suites shrink their basis length for p > 3 (the basis
    grows like p^k); --depth still raises them explicitly if wanted.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    wide = 3 if p <= 3 else 2
    if depth < 0:
        raise ParameterError(f"depth must be nonnegative, got {depth}")
    if trunc < 1:
        raise ParameterError(f"truncation must be at least 1, got {trunc}")
    cap = stepfunctions.VALUE_CAP
    # each family's largest array or case count, refused before any draw
    ladder = min(depth, 5)   # A†_i on a depth-`ladder` function
    lengths = {"trep": min(depth, wide), "af": min(depth, wide - 1)}
    words = {s: sum(p ** k for k in range(n + 1)) for s, n in lengths.items()}
    limits = (
        ("gns", p ** _cap_exponent(depth),
         f"gns depth {depth}: the boundary words' p^depth = {p}^{depth} "
         f"values exceed the cap {cap}"),
        ("cuntz", p ** (ladder + 1), f"cuntz suite: A†_i on depth {ladder}: "
         f"p^depth = {p}^{ladder + 1} values exceeds cap {cap}"),
        ("trep", words["trep"] * p * p,
         f"trep suite: {words['trep']} words of length ≤ {lengths['trep']} "
         f"exceed the cap {cap} as {words['trep'] * p * p} T_iT†_j cases"),
        ("af", words["af"] ** 2,
         f"af suite: {words['af']} words of length ≤ {lengths['af']} exceed "
         f"the cap {cap} as {words['af'] ** 2} (I, J) pairs"))
    for family, count, message in limits:
        if name in (family, "all") and count > cap:
            raise ParameterError(message)
    longest = min(depth, wide, 3)   # the pairing suite's expansion words
    if name in ("pairing", "all") and trunc < longest:
        raise ParameterError(f"truncation {trunc} below the pairing "
                             f"suite's basis word length {longest}")
    reports = []
    if name in ("cuntz", "all"):
        reports.append(suite_cuntz(p, depth=ladder, seed=seed))
        reports.append(suite_cyclicity(p, depth=min(depth, 4)))
    if name in ("gns", "all"):
        reports.append(suite_gns(p, depth=depth, seed=seed))
    if name in ("pairing", "all"):
        reports.append(suite_pairing(p, maxlen=min(depth, wide), trunc=trunc,
                                     seed=seed))
    if name in ("trep", "all"):
        reports.append(suite_trep(p, maxlen=lengths["trep"], seed=seed))
    if name in ("af", "all"):
        reports.append(suite_af(p, maxlen=lengths["af"], trunc=trunc,
                                seed=seed))
    return reports
