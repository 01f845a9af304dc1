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
from dataclasses import dataclass, field

from .coherent import (CoherentState, af_relation_residual, af_state_value,
                       build_X_truncated, eigen_residual, gram_matrices,
                       indicator_state, leibnitz_residuals, pairing_series,
                       phi_map, renormalized_pairing, t_dagger, t_dagger_fock,
                       t_op, t_op_fock, to_fock_truncated)
from .errors import NotStabilizedError, SelfCheckError
from .representation import (apply_annihilation, apply_creation,
                             cyclicity_basis, gns_state)
from .scalars import Q, Scalar, validate_prime
from .stepfunctions import StepFunction
from .words import word_str, words_of_length, words_up_to

SUITE_NAMES = ("cuntz", "gns", "pairing", "trep", "af", "all")


@dataclass
class SuiteReport:
    """Outcome of one verification suite; failures empty ⇔ exit code 0."""

    suite: str
    p: int
    parameters: dict
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    def check(self, case_id: str, ok: bool,
              expected: str = "identity", actual: str = "violated") -> None:
        self.cases += 1
        if not ok:
            self.failures.append(
                {"case": case_id, "expected": expected, "actual": actual})

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


def random_rational(rng: random.Random) -> Q:
    return Q(rng.randint(-9, 9), rng.randint(1, 9))


def random_scalar(rng: random.Random, p: int, full: bool = False) -> Scalar:
    """Random exact scalar; mostly plain rationals, sometimes full-field."""
    if full or rng.random() < 0.25:
        return Scalar(p, random_rational(rng), random_rational(rng),
                      random_rational(rng), random_rational(rng))
    return Scalar.rational(p, random_rational(rng))


def random_step_function(rng: random.Random, p: int,
                         depth: int) -> StepFunction:
    vals = tuple(random_scalar(rng, p) for _ in range(p ** depth))
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
    validate_prime(p)
    rng = random.Random(seed)
    report = SuiteReport("cuntz", p, {"depth": depth, "cases": cases,
                                      "seed": seed})
    start = time.perf_counter()
    for n in range(cases):
        f = random_step_function(rng, p, random_depth(rng, p, depth))
        j = rng.randrange(p)
        created = apply_creation(j, f)
        for i in range(p):
            out = apply_annihilation(i, created)
            want = f if i == j else StepFunction.zero(p, f.depth)
            report.check(f"aac[{n}] A_{i}A†_{j}", out == want,
                         "δ_ij·f", "differs")
        total = None
        for i in range(p):
            term = apply_creation(i, apply_annihilation(i, f))
            total = term if total is None else total + term
        report.check(f"cuntz[{n}] ΣA†A", total == f, "f", "differs")
        g = random_step_function(rng, p, random_depth(rng, p, depth))
        i = rng.randrange(p)
        lhs = apply_creation(i, f).inner(g)
        rhs = f.inner(apply_annihilation(i, g))
        report.check(f"adjoint[{n}]", lhs == rhs,
                     lhs.pretty(), rhs.pretty())
        cf = apply_creation(i, f)
        report.check(f"isometry[{n}]", cf.inner(cf) == f.inner(f),
                     "‖f‖²", "differs")
    report.wall_time = time.perf_counter() - start
    return report


def suite_gns(p: int, depth: int = 4, sample: int = 10_000,
              seed: int = 0) -> SuiteReport:
    """State values: exhaustive through length 3, sampled at the boundary."""
    validate_prime(p)
    rng = random.Random(seed)
    report = SuiteReport("gns", p, {"depth": depth, "sample": sample,
                                    "seed": seed})
    start = time.perf_counter()
    exhaustive = min(depth, 3)
    small = list(words_up_to(p, exhaustive))
    for I in small:
        for J in small:
            case = f"state({word_str(I)!r},{word_str(J)!r})"
            with report.guard(case):
                value = gns_state(p, I, J)   # self-checking
                expected = Scalar.root_p_power(p, -(len(I) + len(J)))
                report.check(case, value == expected, expected.pretty(),
                             value.pretty())
    if depth > exhaustive:
        boundary = list(words_of_length(p, depth))
        everything = list(words_up_to(p, depth))
        for n in range(sample):
            I = rng.choice(boundary)
            J = rng.choice(everything)
            if rng.random() < 0.5:
                I, J = J, I
            with report.guard(f"state-sample[{n}]"):
                value = gns_state(p, I, J)
                expected = Scalar.root_p_power(p, -(len(I) + len(J)))
                report.check(f"state-sample[{n}]", value == expected,
                             expected.pretty(), value.pretty())
    report.wall_time = time.perf_counter() - start
    return report


def suite_pairing(p: int, maxlen: int = 3, trunc: int = 6, cases: int = 25,
                  seed: int = 0) -> SuiteReport:
    """Pairing-vs-L² Gram, cascade, expansion self-check, eigen residuals."""
    validate_prime(p)
    rng = random.Random(seed)
    report = SuiteReport("pairing", p, {"maxlen": maxlen, "trunc": trunc,
                                        "cases": cases, "seed": seed})
    start = time.perf_counter()
    with report.guard("gram-equality", "gram-stabilization"):
        basis, ren, l2, equal, max_stab = gram_matrices(p, maxlen)
        report.check("gram-equality", equal, "pairing Gram == L² Gram",
                     "differ")
        report.check("gram-stabilization", max_stab <= maxlen,
                     f"index ≤ {maxlen}", f"index {max_stab}")
    one = Scalar.one(p)
    for I in words_up_to(p, min(maxlen, 3)):
        case = f"expansion({word_str(I)!r})"
        with report.guard(case):
            # self-checking against the generator coefficients
            v = build_X_truncated(p, I, trunc)
            report.check(case, v.coefficient(I) == (len(I), one),
                         "λ^|I|·1 on the word I", "differs")
    for n in range(cases):
        s = random_coherent_state(rng, p)
        for I in words_up_to(p, 2):
            total = None
            for i in range(p):
                c = s.coefficient(I + (i,))
                total = c if total is None else total + c
            report.check(f"cascade[{n}]({word_str(I)!r})",
                         s.coefficient(I) == total, "Ψ_I = ΣΨ_Ii", "differs")
        with report.guard(f"eigen-short[{n}]", f"eigen-boundary[{n}]"):
            r = eigen_residual(s, trunc)
            short = [w for w in r.terms if len(w) < trunc]
            report.check(f"eigen-short[{n}]", not short,
                         "no residual below boundary", f"{len(short)} words")
            boundary = all(r.coefficient(w) == (trunc + 1, -psi) for w, psi
                           in s.coefficients_of_length(trunc).items())
            report.check(f"eigen-boundary[{n}]", boundary,
                         "−λ^{N+1}Ψ_J", "differs")
        t = random_coherent_state(rng, p)
        with report.guard(f"pairing-vs-l2[{n}]", f"stabilization-bound[{n}]"):
            lhs = renormalized_pairing(s, t)
            rhs = phi_map(s).inner(phi_map(t))
            report.check(f"pairing-vs-l2[{n}]", lhs == rhs,
                         rhs.pretty(), lhs.pretty())
            series = pairing_series(s, t)
            report.check(f"stabilization-bound[{n}]",
                         series.stabilized_at <= max(s.depth, t.depth),
                         "k₀ ≤ max depth", f"k₀ = {series.stabilized_at}")
    report.wall_time = time.perf_counter() - start
    return report


def suite_trep(p: int, maxlen: int = 3, cases: int = 25,
               seed: int = 0) -> SuiteReport:
    """T-operator Cuntz relations, intertwining, adjointness, word-level check."""
    validate_prime(p)
    rng = random.Random(seed)
    report = SuiteReport("trep", p, {"maxlen": maxlen, "cases": cases,
                                     "seed": seed})
    start = time.perf_counter()
    states = [(f"X_{word_str(w) or 'Ω'}", indicator_state(p, w))
              for w in words_up_to(p, maxlen)]
    states += [(f"rand[{n}]", random_coherent_state(rng, p))
               for n in range(cases)]
    for name, s in states:
        for i in range(p):
            for j in range(p):
                out = t_op(i, t_dagger(j, s))
                want = s if i == j else CoherentState(
                    StepFunction.zero(p, s.depth))
                report.check(f"T_iT†_j({name},{i},{j})", out == want,
                             "δ_ij·s", "differs")
        total = None
        for i in range(p):
            term = t_dagger(i, t_op(i, s))
            total = term if total is None else total + term
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
            report.check(f"T-adjoint[{n}]", lhs == rhs, rhs.pretty(),
                         lhs.pretty())
        N = 5
        s = random_coherent_state(rng, p, max_depth=2)
        with report.guard(f"T†-two-paths[{n}]"):
            report.check(f"T†-two-paths[{n}]",
                         t_dagger_fock(i, s, N) == to_fock_truncated(
                             t_dagger(i, s), N),
                         "generator path == word path", "differ")
        with report.guard(f"T-two-paths[{n}]"):
            report.check(f"T-two-paths[{n}]",
                         t_op_fock(i, s, N) == to_fock_truncated(
                             t_op(i, s), N),
                         "generator path == word path", "differ")
    report.wall_time = time.perf_counter() - start
    return report


def suite_af(p: int, maxlen: int = 2, trunc: int = 6, cases: int = 25,
             seed: int = 0) -> SuiteReport:
    """Antifock state values, Leibnitz residuals, AF bridge residuals."""
    validate_prime(p)
    rng = random.Random(seed)
    report = SuiteReport("af", p, {"maxlen": maxlen, "trunc": trunc,
                                   "cases": cases, "seed": seed})
    start = time.perf_counter()
    for I in words_up_to(p, maxlen):
        for J in words_up_to(p, maxlen):
            case = f"af-state({word_str(I)!r},{word_str(J)!r})"
            with report.guard(case):
                value = af_state_value(p, I, J)
                expected = Scalar.root_p_power(p, -(len(I) + len(J)))
                report.check(case, value == expected, expected.pretty(),
                             value.pretty())
    for n in range(cases):
        s = random_coherent_state(rng, p)
        with report.guard(f"leibnitz[{n}]"):
            residuals = leibnitz_residuals(s, trunc)
            bad = [w for r in residuals for w in r.terms if len(w) < trunc]
            report.check(f"leibnitz[{n}]", not bad,
                         "support only at boundary", f"{len(bad)} short words")
        i = rng.randrange(p)
        with report.guard(f"af-bridge-create[{n}]",
                          f"af-bridge-annihilate[{n}]"):
            first, second = af_relation_residual(i, s, trunc)
            bad1 = [w for w in first.terms if len(w) < trunc]
            bad2 = [w for w in second.terms if len(w) < trunc]
            report.check(f"af-bridge-create[{n}]", not bad1,
                         "zero below boundary", f"{len(bad1)} words")
            report.check(f"af-bridge-annihilate[{n}]", not bad2,
                         "zero below boundary", f"{len(bad2)} words")
    report.wall_time = time.perf_counter() - start
    return report


def suite_cyclicity(p: int, depth: int = 4) -> SuiteReport:
    """Creation chains on 1 span the depth-k indicators (cyclic vector)."""
    validate_prime(p)
    report = SuiteReport("cyclicity", p, {"depth": depth})
    start = time.perf_counter()
    for k in range(depth + 1):
        with report.guard(f"span(k={k})"):
            basis = cyclicity_basis(p, k)   # self-checking against indicators
            report.check(f"span(k={k})", len(basis) == p ** k,
                         f"{p ** k} functions", f"{len(basis)}")
    report.wall_time = time.perf_counter() - start
    return report


def run_suites(name: str, p: int, depth: int = 4, trunc: int = 6,
               seed: int = 0) -> list[SuiteReport]:
    """Dispatch a suite name (or 'all') to the runners above.

    Word-indexed suites shrink their basis length for p > 3 (the basis
    grows like p^k); --depth still raises them explicitly if wanted.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    wide = 3 if p <= 3 else 2
    reports = []
    if name in ("cuntz", "all"):
        reports.append(suite_cuntz(p, depth=min(depth, 5), seed=seed))
        reports.append(suite_cyclicity(p, depth=min(depth, 4)))
    if name in ("gns", "all"):
        reports.append(suite_gns(p, depth=depth, seed=seed))
    if name in ("pairing", "all"):
        reports.append(suite_pairing(p, maxlen=min(depth, wide), trunc=trunc,
                                     seed=seed))
    if name in ("trep", "all"):
        reports.append(suite_trep(p, maxlen=min(depth, wide), seed=seed))
    if name in ("af", "all"):
        reports.append(suite_af(p, maxlen=min(depth, wide - 1), trunc=trunc,
                                seed=seed))
    return reports
