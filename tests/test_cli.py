"""CLI surface: determinism, exit codes, JSON round trips."""

import json

import padic_cuntz.suites as suites
from padic_cuntz import (SelfCheckError, StepFunction, apply_operator_word,
                         parse_operator_word)
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
