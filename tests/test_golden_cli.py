"""The CLI's JSON output, byte for byte, against a committed golden file.

``tests/golden_cli.json`` holds the exit code and stdout of each command
below, with every ``wall_time`` replaced by a fixed token.  Regenerate it
(only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

from padic_cuntz.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
WALL_TIME = re.compile(r'"wall_time": [^,}]+')
MASK = '"wall_time": "<masked>"'
PRIMES = (2, 3, 5)
WORDS_I = ("", "0", "1", "01", "10")
WORDS_J = ("", "0", "11")


def commands() -> list[list[str]]:
    out = []
    for p in map(str, PRIMES):
        out.append(["verify", "--p", p, "--suite", "all", "--depth", "3"])
        for I in WORDS_I:
            for J in WORDS_J:
                out.append(["state", "--p", p, "--I", I, "--J", J])
                out.append(["pair", "--p", p, "--I", I, "--J", J])
        out.append(["gram", "--p", p, "--maxlen", "1"])
    out.append(["gram", "--p", "2", "--maxlen", "3"])
    for convention in ("lsd", "msd"):
        out.append(["apply", "--p", "3", "--ops", "a0*", "--disk", "12",
                    "--center-convention", convention])
    out.append(["apply", "--p", "11", "--ops", "a10* a10", "--disk", "10.3"])
    out.append(["state", "--p", "3", "--I", "01", "--J", "2", "--pretty"])
    out.append(["pair", "--p", "3", "--I", "0", "--J", "01", "--pretty"])
    out.append(["gram", "--p", "3", "--maxlen", "1", "--pretty"])
    out.append(["apply", "--p", "3", "--ops", "a0* a1", "--disk", "12",
                "--pretty"])
    for p in ("2", "3"):   # the default depth 4 samples boundary pairs
        out.append(["verify", "--p", p, "--suite", "gns"])
    # two-digit letters, a mixed creator/annihilator run, a pure creator run
    out.append(["apply", "--p", "11", "--ops", "a10* a3* a10 a7"])
    out.append(["state", "--p", "11", "--I", "10.3", "--J", "7.0"])
    out.append(["apply", "--p", "3", "--ops", "a2* a1* a0*", "--disk", "12"])
    # the benchmark's gram size, whose layers share raw tuples across lengths
    out.append(["gram", "--p", "3", "--maxlen", "2"])
    return out


def run(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return {"argv": argv, "code": code,
            "stdout": WALL_TIME.sub(MASK, stdout.getvalue())}


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == commands()
    for expected in golden:
        assert run(expected["argv"]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in commands()],
                                 ensure_ascii=False, indent=1) + "\n",
                      encoding="utf-8")
