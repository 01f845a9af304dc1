"""Benchmark of the padic_cuntz exact-verification engine.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: ``library`` calls the library in a worker process;
``verify`` runs ``padic-cuntz verify --suite all`` at p = 2, one fresh
process per sweep.  Every run prints its environment, then one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced round with
``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("library", "verify")
VERIFY_PRIMES = (2,)
#: set-ups per library run: this many set-up-only processes, plus the
#: measuring process's own
SETUP_PROCESSES = 7
#: no child process may outlive this (a run must end within 180 s)
CHILD_TIMEOUT = 150

END_TO_END = {"checks_per_s": "checks/s", "case_p50_ms": "ms",
              "case_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "scalars.ops": "count", "scalars.full_ops": "count",
    "scalars.self_ms": "ms",
    "stepfunctions.calls": "count", "stepfunctions.values_touched": "count",
    "stepfunctions.self_ms": "ms", "stepfunctions.peak_values": "count",
    "representation.calls": "count", "representation.values_moved": "count",
    "representation.self_ms": "ms",
    "fock.calls": "count", "fock.terms_built": "count",
    "fock.self_ms": "ms", "fock.sub_self_ms": "ms",
    "fock.lambda_poly_ops": "count", "fock.inner_self_ms": "ms",
    "coherent.calls": "count", "coherent.self_ms": "ms",
    "coherent.to_fock_self_ms": "ms", "coherent.coefficients_built": "count",
    "coherent.pairing_series_self_ms": "ms",
    "coherent.af_state_self_ms": "ms", "coherent.max_stabilized_at": "count",
    "suites.self_ms": "ms", "cli.self_ms": "ms",
    **{f"suites.{s}.wall_s": "s" for s in
       ("cuntz", "cyclicity", "gns", "pairing", "trep", "af")},
    "trace.overhead": "x",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str]) -> subprocess.CompletedProcess:
    """Run a child to its end (killed and reaped at the timeout)."""
    return subprocess.run(args, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def _worker(role: str, args) -> dict:
    proc = _spawn([sys.executable, str(HERE / "run.py"), "--role", role,
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {role} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p50(samples: list[float]) -> float:
    """The median, smoothed: the mean of the samples ranked in the middle
    tenth (one sample near the middle when there are fewer than ten).  Case
    times cluster around the median, and which case of the cluster is the
    middle one changes from run to run; the mean over the cluster does not."""
    ordered = sorted(samples)
    lo = int(0.45 * len(ordered))
    band = ordered[lo:max(int(0.55 * len(ordered)), lo + 1)]
    return sum(band) / len(band)


def _tail(samples: list[float]) -> float:
    """The highest percentile with ten samples beyond it (the maximum when
    there are fewer than eleven samples)."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _result(correct: bool, attempted: int, failed: int, metrics: dict,
            units: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                   for k in units}})


# -- worker roles (one process each) ------------------------------------------


def _set_up(workload: str, seed: int):
    """Make the inputs (untimed), then import and build them (set-up)."""
    import workloads
    spec = workloads.make_spec(workload, seed)
    t0 = time.perf_counter()
    cases = workloads.build(workload, spec)
    return cases, time.perf_counter() - t0


def _env() -> dict:
    import padic_cuntz
    from padic_cuntz.scalars import Q
    return {"backend": f"{Q.__module__}.{Q.__name__}",
            "python": platform.python_version(),
            "padic_cuntz": padic_cuntz.__version__}


def _round(cases, tally, tracer=None) -> list[float]:
    """Run every case once; return each case's seconds inside padic_cuntz."""
    import workloads
    if tracer is None:
        return [workloads.run_case(tally, case) for case in cases]
    times = []
    for case in cases:
        with tracer.span(f"case.{case.kind}"):
            times.append(workloads.run_case(tally, case))
    return times


def _freeze() -> None:
    """Take what the first round left alive (the inputs, the reference
    values, the package's caches) out of the collector's scans, so that the
    size of the benchmark's own data does not set the cost of a collection."""
    gc.collect()
    gc.freeze()


def role_measure(args) -> dict:
    """Whole rounds for the run's seconds; a case's time is its median."""
    import workloads
    cases, setup = _set_up(args.workload, args.seed)
    tally = workloads.Tally()
    rounds: list[list[float]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(_round(cases, tally))
        if len(rounds) == 1:
            _freeze()
    typical = [statistics.median(times) for times in zip(*rounds)]
    kinds: dict[str, list] = {}
    for case, seconds in zip(cases, typical):
        entry = kinds.setdefault(case.kind, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
    return {"setup_s": setup, "round_case_seconds": rounds,
            "rounds": len(rounds), "cases": len(cases),
            "round_seconds": sum(typical), "kinds": kinds,
            "attempted": tally.attempted, "failed": tally.failed,
            "wrong": tally.wrong, "notes": tally.notes,
            "case_p50_ms": 1000 * _p50(typical),
            "case_tail_ms": 1000 * _tail(typical),
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "env": _env()}


def role_trace(args) -> dict:
    """One warm-up round, one timed untraced round, one traced round."""
    import padic_cuntz
    import tracing
    import workloads
    cases, _ = _set_up(args.workload, args.seed)
    _round(cases, workloads.Tally())
    _freeze()
    base = sum(_round(cases, workloads.Tally()))
    tracer = tracing.Tracer()
    tracer.install(padic_cuntz)
    tally = workloads.Tally(tracer.paused)
    try:
        traced = sum(_round(cases, tally, tracer))
    finally:
        tracer.uninstall()
    return {"attempted": tally.attempted, "failed": tally.failed,
            "wrong": tally.wrong, "notes": tally.notes,
            "metrics": {**_layer_metrics(tracer),
                        "trace.overhead": traced / base},
            "tree": tracer.tree(), "env": _env()}


def role_verify_trace(args) -> dict:
    """`verify --suite all` in this process, traced, once per prime."""
    import padic_cuntz
    import tracing
    from padic_cuntz import cli
    tracer = tracing.Tracer()
    tracer.install(padic_cuntz)
    suite_seconds = 0.0
    codes = []
    try:
        for p in VERIFY_PRIMES:
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes.append(cli.main(["verify", "--suite", "all", "--p",
                                       str(p), "--seed", str(args.seed)]))
            suite_seconds += sum(r["wall_time"]
                                 for r in json.loads(buf.getvalue()))
    finally:
        tracer.uninstall()
    return {"codes": codes, "suite_seconds": suite_seconds,
            "metrics": _layer_metrics(tracer), "tree": tracer.tree(),
            "env": _env()}


#: per-layer counters kept by the tracer's hooks
COUNTERS = ("scalars.ops", "scalars.full_ops", "stepfunctions.values_touched",
            "stepfunctions.peak_values", "representation.values_moved",
            "fock.terms_built", "fock.lambda_poly_ops",
            "coherent.coefficients_built", "coherent.max_stabilized_at")
#: per-function times: the named spans with everything below them
SUBTREES = {
    "fock.sub_self_ms": ("fock.FockVector.__sub__",),
    "fock.inner_self_ms": ("fock.fock_inner", "fock.fock_inner_by_length"),
    "coherent.to_fock_self_ms": ("coherent.to_fock_truncated",),
    "coherent.pairing_series_self_ms": ("coherent.pairing_series",),
    "coherent.af_state_self_ms": ("coherent.af_state_value",),
}


def _layer_metrics(tracer) -> dict:
    out = {k: tracer.counts.get(k, 0) for k in COUNTERS}
    out.update({k: tracer.subtree_ms(*names) for k, names in SUBTREES.items()})
    for layer, totals in tracer.layer_totals().items():
        out[f"{layer}.self_ms"] = totals["self_ms"]
        if f"{layer}.calls" in PER_LAYER:
            out[f"{layer}.calls"] = totals["calls"]
    return out


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024   # KiB on Linux


# -- the benchmark run (parent process) ---------------------------------------


def _print_env(env: dict) -> None:
    print(f"env: backend={env['backend']} python={env['python']} "
          f"padic_cuntz={env['padic_cuntz']} commit={_git_commit()}")


def _write_out(args, kind: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload, indent=1))
    return path


def _print_layers(metrics: dict, tree: list[dict], path: Path) -> None:
    print(f"trace: {path.relative_to(ROOT)} ({len(tree)} span paths), "
          f"overhead ×{metrics['trace.overhead']:.2f} against the untraced "
          "round")
    for name in sorted(PER_LAYER):
        print(f"  {name:<34} {metrics[name]:>14.6g} {PER_LAYER[name]}")


def run_library(args) -> str:
    if args.trace:
        out = _worker("trace", args)
        _print_env(out["env"])
        path = _write_out(args, "trace", out)
        metrics = {k: out["metrics"].get(k, 0) for k in PER_LAYER}
        _print_layers(metrics, out["tree"], path)
        return _result(out["wrong"] == 0, out["attempted"], out["failed"],
                       metrics, PER_LAYER)
    setups = [_worker("setup", args)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    out = _worker("measure", args)
    _print_env(out["env"])
    setups.append(out["setup_s"])
    _write_out(args, "run", {**out, "setups": setups})
    print(f"{args.workload}: {out['rounds']} rounds of {out['cases']} cases; "
          f"a round at each case's median: {out['round_seconds']:.3f} s "
          f"inside padic_cuntz; set-ups "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    for kind, (count, seconds) in out["kinds"].items():
        print(f"  {kind:<10} {count:>4} cases {seconds:9.3f} s")
    for note in out["notes"]:
        print(f"  {note}")
    metrics = {
        "checks_per_s": (out["attempted"] - out["failed"])
                        / out["rounds"] / out["round_seconds"],
        "case_p50_ms": out["case_p50_ms"],
        "case_tail_ms": out["case_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return _result(out["wrong"] == 0, out["attempted"], out["failed"],
                   metrics, END_TO_END)


def _verify_process(p: int, seed: int) -> dict:
    """One `padic-cuntz verify --suite all` process, timed and checked."""
    import reference
    expected = reference.verify_case_counts(p)
    t0 = time.perf_counter()
    proc = _spawn([sys.executable, "-m", "padic_cuntz.cli", "verify",
                   "--suite", "all", "--p", str(p), "--seed", str(seed)])
    wall = time.perf_counter() - t0
    out = {"wall": wall, "attempted": sum(expected.values()), "failed": 0,
           "wrong": 0, "suite_wall": {}, "notes": []}
    try:
        reports = {r["suite"]: r for r in json.loads(proc.stdout)}
    except json.JSONDecodeError:
        reports = {}
    if proc.returncode not in (0, 1) or not reports:
        out["failed"] = out["attempted"]
        out["notes"].append(f"p={p}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        return out
    for suite, cases in expected.items():
        rep = reports.get(suite)
        if rep is None or rep["cases"] != cases or rep["p"] != p:
            bad, why = cases, f"{rep and rep['cases']} cases, want {cases}"
        else:
            bad, why = len(rep["failures"]), "failures reported"
            out["suite_wall"][suite] = rep["wall_time"]
        if bad:
            out["failed"] += bad
            out["wrong"] += bad
            out["notes"].append(f"p={p} {suite}: {why}")
    if (proc.returncode == 0) != (out["failed"] == 0):
        out["notes"].append(f"p={p}: exit {proc.returncode} disagrees")
        out["wrong"] += 1
    out["setup"] = wall - sum(out["suite_wall"].values())
    return out


def _verify_round(seed: int) -> list[dict]:
    return [_verify_process(p, seed) for p in VERIFY_PRIMES]


def run_verify(args) -> str:
    _print_env(json.loads(_spawn([sys.executable, str(HERE / "run.py"),
                                  "--role", "env"]).stdout))
    if args.trace:
        base = _verify_round(args.seed)
        out = _worker("verify-trace", args)
        metrics = {k: out["metrics"].get(k, 0) for k in PER_LAYER}
        untraced = sum(sum(v["suite_wall"].values()) for v in base)
        metrics["trace.overhead"] = out["suite_seconds"] / untraced
        for v in base:
            for suite, wall in v["suite_wall"].items():
                metrics[f"suites.{suite}.wall_s"] += wall
        path = _write_out(args, "trace", {**out, "metrics": metrics})
        _print_layers(metrics, out["tree"], path)
        wrong = sum(v["wrong"] for v in base) + sum(out["codes"])
        return _result(wrong == 0, sum(v["attempted"] for v in base),
                       sum(v["failed"] for v in base), metrics, PER_LAYER)
    rounds: list[list[dict]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(_verify_round(args.seed))
    processes = [v for r in rounds for v in r]
    typical = [statistics.median(times) for times in
               zip(*([v["wall"] for v in r] for r in rounds))]
    attempted = sum(v["attempted"] for v in processes)
    failed = sum(v["failed"] for v in processes)
    _write_out(args, "run", {"rounds": rounds, "median_wall": typical})
    print(f"verify: {len(rounds)} rounds at p = "
          f"{', '.join(map(str, VERIFY_PRIMES))}; median process wall "
          f"{', '.join(f'{b:.3f}' for b in typical)} s")
    for v in processes:
        for note in v["notes"]:
            print(f"  {note}")
    metrics = {
        "checks_per_s": (attempted - failed) / len(rounds) / sum(typical),
        "case_p50_ms": 1000 * _p50(typical),
        "case_tail_ms": 1000 * _tail(typical),
        "setup_s": statistics.median(v.get("setup", v["wall"])
                                     for v in processes),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    wrong = sum(v["wrong"] for v in processes)
    return _result(wrong == 0, attempted, failed, metrics, END_TO_END)


ROLES = {"measure": role_measure, "trace": role_trace,
         "verify-trace": role_verify_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", default=None,
                        help="internal: run as a worker process")
    args = parser.parse_args(argv)
    if not (SRC / "padic_cuntz" / "__init__.py").is_file():
        print(f"error: no padic_cuntz sources under {SRC}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.role is not None:
        sys.path.insert(0, str(SRC))
        if args.role == "env":
            print(json.dumps(_env()))
        elif args.role == "setup":
            print(json.dumps({"setup_s": _set_up(args.workload,
                                                 args.seed)[1]}))
        else:
            print(json.dumps(ROLES[args.role](args)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = run_verify if args.workload == "verify" else run_library
    print(run(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
