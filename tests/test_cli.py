"""CLI surface: determinism, exit codes, JSON round trips."""

import json
import re
import time

import pytest

import padic_cuntz.suites as suites
from padic_cuntz import (FockVector, Scalar, SelfCheckError, StepFunction,
                         apply_operator_word, parse_operator_word)
from padic_cuntz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_outputs(capsys):
    code, out, _ = run(capsys, "state", "--p", "2", "--I", "0", "--J", "",
                       "--pretty")
    assert code == 0
    assert out.strip() == "1/2·√2 ≈ 0.70710678"
    code, out, _ = run(capsys, "state", "--p", "3", "--I", "01", "--J", "1",
                       "--pretty")
    assert code == 0
    assert out.strip() == "1/9·√3 ≈ 0.19245009"
    code, out, _ = run(capsys, "state", "--p", "2", "--I", "", "--J", "",
                       "--pretty")
    assert code == 0
    assert out.strip() == "1"


def test_state_json_shape(capsys):
    code, out, _ = run(capsys, "state", "--p", "2", "--I", "0", "--J", "")
    data = json.loads(out)
    assert data["value"] == ["0/1", "1/2", "0/1", "0/1"]
    assert data["I"] == "0" and data["J"] == ""


def test_pair_outputs(capsys):
    code, out, _ = run(capsys, "pair", "--p", "2", "--I", "0", "--J", "0",
                       "--pretty")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "pair", "--p", "2", "--I", "0", "--J", "1",
                       "--pretty")
    assert code == 0 and out.strip() == "0"


def test_gram_example(capsys):
    code, out, _ = run(capsys, "gram", "--p", "2", "--maxlen", "1")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["", "0", "1"]
    ones = [[v[0] for v in row] for row in data["pairing_gram"]]
    assert ones == [["1/1", "1/1", "1/1"], ["1/1", "2/1", "0/1"],
                    ["1/1", "0/1", "2/1"]]
    assert data["equal"] is True
    assert data["pairing_gram"] == data["l2_gram"]


def test_prime_validation(capsys):
    code, _, err = run(capsys, "verify", "--p", "4", "--suite", "gns")
    assert code == 2
    assert "p must be prime" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "--p", "2", "--trunc", "0"), "truncation must be at least 1"),
    (("verify", "--p", "2", "--suite", "pairing", "--trunc", "1"),
     "truncation 1 below the pairing suite's basis word length 3"),
    (("verify", "--p", "2", "--depth", "-1"), "depth must be nonnegative"),
    (("gram", "--p", "2", "--maxlen", "-1"),
     "basis length must be nonnegative"),
    (("state", "--p", "4"), "p must be prime"),
    (("verify", "--p", "2", "--suite", "gns", "--depth", "24"),
     "2^24 values exceed the cap 10000000"),
    (("gram", "--p", "2", "--maxlen", "40"),
     "Gram entries exceed the cap 10000000"),
    (("apply", "--p", "3", "--ops", "a²"),
     "expected a letter index after 'a' (at position 1)"),
    (("state", "--p", "3317044064679887385961981"),
     "the primality test is not exact"),
    (("verify", "--p", "2305843009213693951", "--suite", "af"),
     "af suite: 2305843009213693952 words of length ≤ 1 exceed the cap"),
    (("verify", "--p", "2305843009213693951", "--suite", "trep"),
     "trep suite: 5316911983139663489309385231907684353 words of length ≤ 2 "
     "exceed the cap"),
    (("verify", "--p", "2305843009213693951", "--suite", "cuntz"),
     "values exceeds cap 10000000"),
    # the cuntz suite is refused before its first draw, whatever the seed
    *[(("verify", "--p", p, "--suite", "cuntz", "--seed", seed),
       f"error: cuntz suite: A†_i on depth 4: p^depth = {p}^5 values "
       "exceeds cap 10000000\n")
      for p in ("10007", "2305843009213693951") for seed in "0123"],
    (("verify", "--p", "10007", "--suite", "af"),
     "af suite: 10008 words of length ≤ 1 exceed the cap 10000000 as "
     "100160064 (I, J) pairs"),
    (("verify", "--p", "1009", "--suite", "trep"),
     "trep suite: 1019091 words of length ≤ 2 exceed the cap 10000000 as "
     "1037517184371 T_iT†_j cases"),
])
def test_bad_integers_get_an_error_line(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1   # refused before any work
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_default_runs_pass_the_caps_through_p_23(monkeypatch):
    # the suites stubbed out, so only run_suites' refusals run
    for name in ("cuntz", "cyclicity", "gns", "pairing", "trep", "af"):
        monkeypatch.setattr(suites, f"suite_{name}",
                            lambda p, name=name, **kw: name)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert len(suites.run_suites("all", p)) == 6
    with pytest.raises(suites.ParameterError, match="29\\^5 values"):
        suites.run_suites("cuntz", 29)


def test_state_at_a_large_prime(capsys):
    code, out, err = run(capsys, "state", "--p", "2305843009213693951",
                         "--pretty")
    assert code == 0 and err == ""
    assert out.strip() == "1"


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--suite", "cuntz",
                       "--depth", "3", "--seed", "7")
    assert code == 0
    reports = json.loads(out)
    names = [r["suite"] for r in reports]
    assert "cuntz" in names and "cyclicity" in names
    for r in reports:
        assert r["failures"] == []
        assert r["cases"] > 0
        assert r["p"] == 2


def test_verify_deterministic_for_seed(capsys):
    _, out1, _ = run(capsys, "verify", "--p", "3", "--suite", "trep",
                     "--seed", "11")
    _, out2, _ = run(capsys, "verify", "--p", "3", "--suite", "trep",
                     "--seed", "11")
    strip = lambda s: [{k: v for k, v in r.items() if k != "wall_time"}
                       for r in json.loads(s)]
    assert strip(out1) == strip(out2)


def test_apply_examples(capsys):
    code, out, _ = run(capsys, "apply", "--p", "2", "--ops", "a0*",
                       "--input", "one")
    assert code == 0
    data = json.loads(out)
    assert data["depth"] == 1
    assert data["values"] == [["0/1", "1/1", "0/1", "0/1"],
                              ["0/1", "0/1", "0/1", "0/1"]]
    code, out, _ = run(capsys, "apply", "--p", "2", "--ops", "a0 a0*",
                       "--input", "one")
    data = json.loads(out)
    assert data["depth"] == 0
    assert data["values"] == [["1/1", "0/1", "0/1", "0/1"]]


def test_apply_disk_input_conventions(capsys):
    _, out_lsd, _ = run(capsys, "apply", "--p", "2", "--ops", "a1",
                        "--disk", "0", "--center-convention", "lsd")
    data = json.loads(out_lsd)
    assert data["values"] == [["0/1", "0/1", "0/1", "0/1"]]
    _, out, _ = run(capsys, "apply", "--p", "2", "--ops", "",
                    "--disk", "01", "--center-convention", "msd")
    data = json.loads(out)
    hot = [n for n, v in enumerate(data["values"]) if v[0] != "0/1"]
    assert hot == [1]  # msd reading of 01 is center 1


def test_apply_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "apply", "--p", "2", "--ops", "a1* a0*",
                       "--input", "one")
    intermediate = tmp_path / "step.json"
    intermediate.write_text(out)
    code, out2, _ = run(capsys, "apply", "--p", "2", "--ops", "a1 a0",
                        "--input", str(intermediate))
    assert code == 0
    # composing the inverse word sends the chain back to where the
    # library composition lands
    composed = apply_operator_word(
        parse_operator_word("a1 a0 a1* a0*"), StepFunction.constant(2, 1))
    assert StepFunction.from_json(json.loads(out2)) == composed


def test_words_with_two_digit_letters(capsys):
    code, out, _ = run(capsys, "state", "--p", "11", "--I", "10",
                       "--J", "1.0")
    data = json.loads(out)
    assert code == 0 and (data["I"], data["J"]) == ("10", "1.0")
    assert data["value"] == Scalar.root_p_power(11, -3).to_json()
    code, out, _ = run(capsys, "pair", "--p", "13", "--I", "12.0",
                       "--J", "12.0")
    data = json.loads(out)
    assert code == 0 and (data["I"], data["J"]) == ("12.0", "12.0")
    assert data["value"] == ["169/1", "0/1", "0/1", "0/1"]
    for disk, depth, hot in (("10", 1, 10), ("1.0", 2, 1), ("0.10", 2, 110)):
        code, out, _ = run(capsys, "apply", "--p", "11", "--ops", "",
                           "--disk", disk)
        data = json.loads(out)
        assert code == 0 and data["depth"] == depth
        assert [n for n, v in enumerate(data["values"])
                if v[0] != "0/1"] == [hot]
    code, _, err = run(capsys, "state", "--p", "11", "--I", "01")
    assert code == 2 and "dot-separated" in err


def test_apply_parse_error(capsys):
    code, _, err = run(capsys, "apply", "--p", "2", "--ops", "a1* q",
                       "--input", "one")
    assert code == 2
    assert "position" in err


def test_apply_invalid_digit(capsys):
    code, _, err = run(capsys, "apply", "--p", "2", "--ops", "a5",
                       "--input", "one")
    assert code == 2
    assert "out of range" in err


def test_entrypoint_rejects_missing_input(capsys):
    code, _, err = run(capsys, "apply", "--p", "2", "--ops", "a0",
                       "--input", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_apply_input_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code, out, err = run(capsys, "apply", "--p", "2", "--ops", "a0",
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "JSONDecodeError" in err
    assert "Traceback" not in err


def test_apply_input_missing_depth(tmp_path, capsys):
    bad = tmp_path / "nodepth.json"
    bad.write_text(json.dumps({"p": 2, "values": [["1/1", "0/1", "0/1",
                                                   "0/1"]]}))
    code, out, err = run(capsys, "apply", "--p", "2", "--ops", "a0",
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'depth'" in err
    bad.write_text(json.dumps({"p": 2, "depth": 1, "values": []}))
    code, out, err = run(capsys, "apply", "--p", "2", "--ops", "a0",
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "need 2 values" in err
    for depth, values, message in [
            (1.0, [["1/1", "0/1", "0/1", "0/1"]] * 2, "got 1.0"),
            (-1, [], "got -1"),
            (True, [["1/1", "0/1", "0/1", "0/1"]] * 2, "got True"),
            (0, [["1/0", "0/1", "0/1", "0/1"]], "ZeroDivisionError"),
            (0, ["1234"], "list of four rational components"),
            (0, {"1234": 0}, "values must be a list"),
            (0, [[True, "0", "0", "0"]], "list of four rational components")]:
        bad.write_text(json.dumps({"p": 2, "depth": depth, "values": values}))
        code, out, err = run(capsys, "apply", "--p", "2", "--ops", "a0*",
                             "--input", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
    # a huge depth is refused before p^depth is built
    bad.write_text(json.dumps({"p": 3, "depth": 10**8, "values": []}))
    code, out, err = run(capsys, "apply", "--p", "3", "--ops", "a0",
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds cap" in err
    assert "Traceback" not in err


def test_verify_reports_a_self_check_error_as_a_failed_case(monkeypatch,
                                                           capsys):
    args = ("verify", "--p", "2", "--suite", "gns", "--depth", "2")
    _, out, _ = run(capsys, *args)
    cases = json.loads(out)[0]["cases"]
    real = suites.gns_state

    def broken(p, I, J):
        if (I, J) == ((0,), (1,)):
            raise SelfCheckError("integration disagrees with closed form")
        return real(p, I, J)

    monkeypatch.setattr(suites, "gns_state", broken)
    code, out, err = run(capsys, *args)
    assert code == 1 and err == ""
    (report,) = json.loads(out)
    assert report["cases"] == cases
    assert report["failures"] == [{
        "case": "state('0','1')", "expected": "identity",
        "actual": "SelfCheckError: integration disagrees with closed form"}]


def test_verify_expansion_case_records_the_self_check(monkeypatch, capsys):
    args = ("verify", "--p", "2", "--suite", "pairing", "--depth", "1",
            "--trunc", "3")
    _, out, _ = run(capsys, *args)
    cases = json.loads(out)[0]["cases"]

    def broken(p, I, N):
        raise SelfCheckError(f"expansion of X_{I} disagrees")

    monkeypatch.setattr(suites, "build_X_truncated", broken)
    code, out, _ = run(capsys, *args)
    assert code == 1
    (report,) = json.loads(out)
    assert report["cases"] == cases
    failed = [f["case"] for f in report["failures"]]
    assert failed == ["expansion('')", "expansion('0')", "expansion('1')"]


def test_verify_renders_values_of_failed_cases_only(monkeypatch, capsys):
    args = ("verify", "--p", "2", "--suite", "gns", "--depth", "2")
    real_state, real_pretty = suites.gns_state, Scalar.pretty

    def unrendered(self):
        raise AssertionError("a passing case rendered a value")

    monkeypatch.setattr(Scalar, "pretty", unrendered)
    code, _, _ = run(capsys, *args)
    assert code == 0

    def wrong(p, I, J):
        value = real_state(p, I, J)
        return value + 1 if (I, J) == ((0,), (1,)) else value

    monkeypatch.setattr(Scalar, "pretty", real_pretty)
    monkeypatch.setattr(suites, "gns_state", wrong)
    code, out, _ = run(capsys, *args)
    assert code == 1
    (report,) = json.loads(out)
    assert report["failures"] == [
        {"case": "state('0','1')", "expected": "1/2", "actual": "3/2"}]


def test_every_suite_report_keeps_its_time():
    # the golden file masks wall_time, so a report never done() reads 0.0
    reports = suites.run_suites("all", 2)
    assert [r.suite for r in reports] == [
        "cuntz", "cyclicity", "gns", "pairing", "trep", "af"]
    assert all(r.wall_time > 0 for r in reports)


def test_aac_fails_where_an_annihilation_leaks(monkeypatch):
    # A_i A†_j returns 1 instead of 0: every i ≠ j case fails, i = j passes
    real = suites.apply_annihilation

    def leaky(i, f):
        out = real(i, f)
        return StepFunction.constant(f.p, 1) if out.is_zero() else out

    monkeypatch.setattr(suites, "apply_annihilation", leaky)
    rows = [r for r in suites.suite_cuntz(3, depth=2, cases=6).failures
            if r["case"].startswith("aac[")]
    assert len(rows) == 6 * 2
    for row in rows:
        i, j = re.fullmatch(r"aac\[\d+\] A_(\d)A†_(\d)",
                            row["case"]).groups()
        assert i != j
        assert (row["expected"], row["actual"]) == ("δ_ij·f", "differs")


def test_t_cuntz_relation_fails_where_t_leaks(monkeypatch):
    # T_i T†_j returns a nonzero state where δ_ij = 0
    real = suites.t_op

    def leaky(i, s):
        out = real(i, s)
        return (suites.CoherentState(StepFunction.constant(s.p, 1))
                if out.is_zero() else out)

    monkeypatch.setattr(suites, "t_op", leaky)
    report = suites.suite_trep(2, maxlen=1, cases=2)
    rows = [r for r in report.failures if r["case"].startswith("T_iT†_j(")]
    names = ["X_Ω", "X_0", "X_1", "rand[0]", "rand[1]"]
    assert [r["case"] for r in rows] == [
        f"T_iT†_j({name},{i},{1 - i})" for name in names for i in (0, 1)]
    assert {(r["expected"], r["actual"]) for r in rows} == {
        ("δ_ij·s", "differs")}


def test_af_bridge_create_fails_on_a_boundary_residual(monkeypatch):
    # the create-side residual vanishes at every length, the truncation
    # length included, so support only there is still a failure
    trunc = 4

    def residual(i, s, N):
        assert N == trunc
        return (FockVector(s.p, {(0,) * N: (0, Scalar.one(s.p))}),
                FockVector.zero(s.p))

    monkeypatch.setattr(suites, "af_relation_residual", residual)
    report = suites.suite_af(2, maxlen=1, trunc=trunc, cases=3)
    assert [r for r in report.failures if "af-bridge" in r["case"]] == [
        {"case": f"af-bridge-create[{n}]", "expected": "zero",
         "actual": "lengths [4]"} for n in range(3)]
