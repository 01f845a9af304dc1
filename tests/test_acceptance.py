"""Acceptance gate: every headline identity at exact equality (tolerance 0).

Each criterion runs the verify suite that holds its identity family at
the criterion's primes, seeds, sizes and truncations.  It passes when no
case failed, every report counted exactly the cases its parameters give,
and the whole criterion ran within its budget.  Run with
`pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import time

from padic_cuntz.suites import (suite_af, suite_cuntz, suite_cyclicity,
                                suite_gns, suite_pairing, suite_trep)


def _words(p: int, n: int) -> int:
    """Σ_{k≤n} p^k, the number of words of length ≤ n."""
    return sum(p ** k for k in range(n + 1))


def _gate(num: int, label: str, budget: float, runs) -> None:
    """Run ``runs``, a lazy iterable of (report, expected case count), on
    the clock; print one PASS/FAIL line, then assert."""
    start = time.perf_counter()
    cases, problems = 0, []
    for report, want in runs:
        cases += report.cases
        if report.cases != want:
            problems.append(f"p={report.p}: {report.cases} cases, "
                            f"expected {want}")
        problems += [f"p={report.p} {f['case']}: expected {f['expected']}, "
                     f"got {f['actual']}" for f in report.failures]
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        problems.append(f"{elapsed:.2f}s ≥ {budget}s budget")
    print(f"[{'FAIL' if problems else 'PASS'}] criterion {num}: {label} "
          f"({cases} cases, {elapsed:.2f}s, budget {budget}s)")
    for line in problems[:5]:
        print(f"    {line}")
    assert not problems, f"criterion {num}: " + "; ".join(problems[:5])


def test_criterion_1_cuntz_relations():
    _gate(1, "Cuntz relations exact on 200 random functions per p", 5,
          ((suite_cuntz(p, 5, 200, 100 + p), 200 * (p + 3))
           for p in (2, 3, 5)))


def test_criterion_2_adjointness():
    _gate(2, "creation/annihilation adjoint for the Haar L² pairing", 5,
          ((suite_cuntz(p, 5, 200, 200 + p), 200 * (p + 3))
           for p in (2, 3, 5)))


def test_criterion_3_gns_state_table():
    _gate(3, "state table p^{-(|I|+|J|)/2} via integration", 30,
          ((suite_gns(p, 4, 10_000, 300 + p), _words(p, 3) ** 2 + 10_000)
           for p in (2, 3)))


def test_criterion_4_gram_isomorphism():
    _gate(4, "pairing Gram equals L² Gram on {X_I : |I| ≤ 3}", 10,
          ((suite_pairing(p, 3, 6, cases=0), 2 + _words(p, 3))
           for p in (2, 3)))


def test_criterion_5_expansion_consistency():
    _gate(5, "truncated expansions match generator coefficients", 10,
          ((suite_pairing(p, 3, 6, cases=0), 2 + _words(p, 3))
           for p in (2, 3)))


def test_criterion_6_eigenvector_property():
    _gate(6, "eigen residual −λ⁹Ψ_J confined to the N=8 boundary", 20,
          ((suite_pairing(p, 0, 8, 25, 600 + p), 3 + 25 * (_words(p, 2) + 4))
           for p in (2, 3)))


def test_criterion_7_t_representation():
    _gate(7, "T-operators: Cuntz relations, intertwining, adjointness", 10,
          ((suite_trep(p, 3, 25, 700 + p),
            (_words(p, 3) + 25) * (p * p + 3) + 25 * 3) for p in (2, 3)))


def test_criterion_8_leibnitz_and_af_relations():
    _gate(8, "Leibnitz and AF-bridge residuals only at the N=6 boundary", 10,
          ((suite_af(p, 0, 6, 25, 800 + p), 1 + 25 * 3) for p in (2, 3)))


def test_criterion_9_antifock_state():
    _gate(9, "antifock pairing reproduces the state values", 20,
          ((suite_af(p, 3, 6, cases=0), _words(p, 3) ** 2) for p in (2, 3)))


def test_criterion_10_cyclicity():
    _gate(10, "depth-k indicators are exactly p^{-k/2}·A†_I·1", 5,
          ((suite_cyclicity(p, 4), 5) for p in (2, 3)))
