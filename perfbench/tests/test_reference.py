"""Tests of the benchmark's own reference values and of its failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import padic_cuntz
import reference as ref
from padic_cuntz.suites import run_suites
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def r(x):
    return ref.rational(F(x))


# -- the field arithmetic -----------------------------------------------------


def test_root_p_powers():
    assert ref.root_p_power(2, 0) == r(1)
    assert ref.root_p_power(2, 1) == (0, 1, 0, 0)            # √2
    assert ref.root_p_power(2, -1) == (0, F(1, 2), 0, 0)      # √2/2
    assert ref.root_p_power(3, -2) == r(F(1, 3))
    assert ref.root_p_power(5, 3) == (0, 5, 0, 0)            # 5·√5


def test_products():
    root2 = (F(0), F(1), F(0), F(0))
    i = (F(0), F(0), F(1), F(0))
    assert ref.mul(2, root2, root2) == r(2)
    assert ref.mul(2, i, i) == r(-1)
    # (1 + √3)(1 − √3) = −2
    assert ref.mul(3, (F(1), F(1), F(0), F(0)),
                   (F(1), F(-1), F(0), F(0))) == r(-2)


def test_json_round_trip():
    x = (F(-3, 4), F(0), F(5), F(1, 9))
    assert ref.to_json(x) == ["-3/4", "0/1", "5/1", "1/9"]
    assert ref.from_json(ref.to_json(x)) == x


# -- step functions -----------------------------------------------------------


def test_inner_refines_the_shallower_operand():
    # f = (1, 2) at depth 1, g = 3 everywhere: (1·3 + 2·3)/2
    assert ref.inner(2, (r(1), r(2)), 1, (r(3),), 0) == r(F(9, 2))
    # ⟨i, i⟩ = conj(i)·i = 1
    i = (F(0), F(0), F(1), F(0))
    assert ref.inner(3, (i,), 0, (i,), 0) == r(1)


def test_annihilation_slices_and_scales():
    vals, depth = ref.annihilate(2, (r(1), r(2), r(3), r(4)), 2, 1)
    assert depth == 1
    assert vals == (ref.mul(2, r(2), ref.root_p_power(2, -1)),
                    ref.mul(2, r(4), ref.root_p_power(2, -1)))


def test_psi_is_the_disk_integral():
    f = (r(1), r(3))
    assert ref.psi(2, f, 1, ()) == r(2)
    assert ref.psi(2, f, 1, (1,)) == r(F(3, 2))
    assert ref.psi(2, f, 1, (1, 0)) == r(F(3, 4))


# -- closed forms -------------------------------------------------------------


def test_state_value():
    # p^{−3/2} = p^{−2}·√p
    assert ref.state_value(2, (0,), (1, 1)) == (0, F(1, 4), 0, 0)
    assert ref.state_value(3, (), ()) == r(1)


def test_gram_entries():
    assert ref.gram_entry(2, (0,), (0, 1)) == r(2)
    assert ref.gram_entry(2, (0, 1), (0,)) == r(2)
    assert ref.gram_entry(2, (0,), (1,)) == ref.ZERO
    assert ref.gram_entry(3, (), (1, 2)) == r(1)
    assert ref.gram_entry(3, (1, 2), (1, 2)) == r(9)


def test_x_terms_by_hand():
    # X_1 = 2·1_{disk 1} at p = 2: Ψ_∅ = 1, Ψ_1 = 1, Ψ_10 = Ψ_11 = 1/2
    one, half = ref.to_json(r(1)), ref.to_json(r(F(1, 2)))
    assert ref.x_terms(2, (1,), 2) == {"": {"0": one}, "1": {"1": one},
                                       "10": {"2": half}, "11": {"2": half}}


def test_eigen_terms_by_hand():
    # generator (1, 3) at depth 1, N = 1: −λ²·Ψ_w with Ψ_0 = 1/2, Ψ_1 = 3/2
    got = ref.eigen_terms(2, (r(1), r(3)), 1, 1)
    assert got == {"0": {"2": ref.to_json(r(F(-1, 2)))},
                   "1": {"2": ref.to_json(r(F(-3, 2)))}}


def test_cyclicity_values_by_hand():
    root, zero = ref.to_json(ref.root_p_power(3, 1)), ref.to_json(ref.ZERO)
    assert ref.cyclicity_values(3, 1) == [[root, zero, zero],
                                          [zero, root, zero],
                                          [zero, zero, root]]
    # msd centers: A†_1 A†_0 ·1 sits at index 0·2 + 1 = 1
    two = ref.to_json(r(2))
    assert ref.cyclicity_values(2, 2)[1] == [zero, two, zero, zero]


def test_closed_forms_agree_with_the_program():
    P = padic_cuntz
    basis, ren, _, _, _ = P.gram_matrices(2, 2)
    assert [[ref.from_json(v.to_json()) for v in row] for row in ren] == \
        [[ref.gram_entry(2, I, J) for J in basis] for I in basis]
    for I in ref.words_up_to(3, 2):
        assert P.build_X_truncated(3, I, 4).to_json()["terms"] == \
            ref.x_terms(3, I, 4)


def test_verify_case_counts_match_the_suites():
    counts = ref.verify_case_counts(2)
    assert counts["cuntz"] == 1000
    assert counts["gns"] == 15 * 15 + 10_000
    reports = run_suites("all", 2, seed=3)
    assert {r.suite: r.cases for r in reports} == counts


# -- failure counting ---------------------------------------------------------


def _gns_case():
    cases = workloads.build("library", workloads.make_spec("library", 0))
    return next(c for c in cases if c.kind == "gns" and c.args == (2, (1,)))


def test_a_correct_case_passes():
    t = workloads.Tally()
    workloads.run_case(t, _gns_case())
    assert (t.attempted, t.failed, t.wrong) == (15, 0, 0)


def test_a_wrong_output_is_a_failed_operation(monkeypatch):
    case = _gns_case()
    real = padic_cuntz.gns_state
    monkeypatch.setattr(padic_cuntz, "gns_state",
                        lambda p, I, J: real(p, I, J) * 2)
    t = workloads.Tally()
    workloads.run_case(t, case)
    assert (t.attempted, t.failed, t.wrong) == (15, 15, 15)
    assert t.notes[0].startswith("wrong output: gns p=2")


def test_a_raising_operation_is_failed_but_not_wrong(monkeypatch):
    case = _gns_case()

    def broken(p, I, J):
        raise padic_cuntz.SelfCheckError("deliberately broken")
    monkeypatch.setattr(padic_cuntz, "gns_state", broken)
    t = workloads.Tally()
    workloads.run_case(t, case)
    assert (t.attempted, t.failed, t.wrong) == (1, 1, 0)


def test_smoothed_median_and_tail():
    import run
    assert run._p50([5.0]) == 5.0
    assert run._p50([float(k) for k in range(100)]) == 49.5
    assert run._tail([float(k) for k in range(100)]) == 89.0
    assert run._tail([1.0, 3.0, 2.0]) == 3.0


def test_only_library_calls_are_timed():
    t = workloads.Tally()
    assert t.call(sum, [1, 2]) == 3
    assert t.case_seconds > 0


# -- tracing ------------------------------------------------------------------


def test_tracer_records_parents_counts_and_uninstalls():
    P = padic_cuntz
    original = P.apply_creation
    tracer = tracing.Tracer()
    tracer.install(P)
    try:
        assert P.apply_creation is not original
        # the name bound by `from … import` inside the package is wrapped too
        assert P.coherent.apply_creation is P.apply_creation
        with tracer.span("case.test"):
            s = P.CoherentState(P.StepFunction.constant(2, 1))
            P.t_dagger(1, s)
    finally:
        tracer.uninstall()
    assert P.apply_creation is original
    assert P.coherent.apply_creation is original
    spans = {n["name"]: n for n in tracer.tree()}
    create = spans["representation.apply_creation"]
    assert tracer.names[create["parent"]] == "coherent.t_dagger"
    assert create["calls"] == 1
    assert tracer.counts["representation.values_moved"] == 2
    assert tracer.counts["stepfunctions.peak_values"] >= 1
    for n in tracer.tree():
        assert 0 <= n["self_ms"] <= n["total_ms"] + 1e-3


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "library", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_specs_repeat_for_a_seed():
    assert workloads.make_spec("library", 7) == \
        workloads.make_spec("library", 7)
    assert workloads.make_spec("library", 7) != \
        workloads.make_spec("library", 8)
