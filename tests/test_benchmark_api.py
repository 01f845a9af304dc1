"""The package names the benchmark harness under perfbench/ calls.

The harness imports padic_cuntz as ``P`` in ``workloads.py`` and reads a
few more names in ``run.py``; deleting any of them would make every
benchmark case fail, so they are pinned here.
"""

import ast
import importlib
from pathlib import Path

import padic_cuntz
import padic_cuntz.cli
import padic_cuntz.scalars

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _names_called_on_P() -> set[str]:
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "P"}


def test_workload_names_exist():
    names = _names_called_on_P()
    assert {"l2_inner", "phi_map", "gns_state"} <= names
    missing = sorted(n for n in names if not hasattr(padic_cuntz, n))
    assert missing == []


def test_run_names_exist():
    assert isinstance(padic_cuntz.__version__, str)
    assert padic_cuntz.scalars.Q.__name__ == "Fraction"
    assert callable(padic_cuntz.cli.main)


def test_one_library_round_passes(monkeypatch):
    # every method the cases call on a result (not only the P.<name>
    # lookups above) must still exist and give the reference values
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    cases = workloads.build("library", workloads.make_spec("library", 1))
    tally = workloads.Tally()
    for case in cases:
        workloads.run_case(tally, case)
    assert tally.notes == []
    assert tally.failed == tally.wrong == 0
    assert tally.attempted > 0
