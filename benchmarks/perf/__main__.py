"""``python3 -m benchmarks.perf``: run workloads, print every metric.

For each selected workload and pass this process spawns one worker
(never two at once) with the hash seed and BLAS/OpenMP threads pinned,
prints each metric by name and unit, and ends with one JSON object --
``correct``, ``attempted``, ``failed``, ``metrics`` -- for the last run.
The full reports and the host's provenance go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from .hostspeed import slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER_TIMEOUT_S = 170
#: fresh interpreters timed per untraced run for ``setup_s`` (the
#: worker's own import is the first)
IMPORT_SAMPLES = 3

_PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def _worker(*args: str) -> dict:
    """Run one worker to completion; its last stdout line is its JSON
    report.  A worker that produced no report ends this process too."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.worker", *args],
        cwd=ROOT, env={**os.environ, **_PINNED}, capture_output=True,
        text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmarks.perf: worker {' '.join(args)} exited "
                 f"{proc.returncode} without a report")


def _git_commit():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(name: str, seed: int, seconds: int, traced: int) -> dict:
    report = _worker("--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(traced))
    if not traced:
        # setup_s from several fresh interpreters, not the worker's alone:
        # each import in reference-host seconds (see hostspeed), median
        detail = report["detail"]
        probes = [detail] + [_worker("--probe-import")
                             for _ in range(IMPORT_SAMPLES - 1)]
        imports = [p["import_s"] / slowdown(p["import_cal_s"])
                   for p in probes]
        report["metrics"]["setup_s"]["value"] = (
            statistics.median(imports) + detail["build_s"]["median"])
        detail["import_s"] = [p["import_s"] for p in probes]
    return report


def _show(report: dict) -> None:
    detail = report["detail"]
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"n={report['n']}  ops={detail['ops']}  "
          f"trace={report['trace']} ==")
    for name, m in report["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    if "ref_s" in detail:
        wall = detail["wall_s"]
        print(f"  {detail['iterations']} iterations; per input set, "
              "reference-host seconds: " + ", ".join(
                  f"median {q['median']:.4f} IQR {q['iqr']:.4f} n={q['n']}"
                  for q in detail["ref_s"]))
        print(f"  raw wall per iteration: median {wall['median']:.4f} s, "
              f"IQR {wall['iqr']:.4f} s; raw ops per wall-second "
              f"{detail['ops_per_wall_s']:.6g}")
    print(f"  sim_digest {detail['sim_digest']}  ops_attempted "
          f"{report['attempted']}  ops_failed {report['failed']}")
    for problem in detail["violations"]:
        print(f"  CHECK FAILED {problem}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf",
                                     description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="how long an untraced pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer "
                             "metrics; default: both")
    parser.add_argument("--out", type=Path, default=HERE / "out/ledger.json")
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    reports = [_run(name, args.seed, args.seconds, traced)
               for name in (args.workload or known)
               for traced in ((0, 1) if args.trace is None
                              else (args.trace,))]
    # a workload's traced pass replays the untraced pass's first input
    # set: same simulated results, or tracing changed the program
    first = {r["workload"]: r["detail"]["sim_digests"][0]
             for r in reports if not r["trace"]}
    for report in reports:
        expected = first.get(report["workload"])
        if report["trace"] and expected not in (
                None, report["detail"]["sim_digests"][0]):
            report["correct"] = False
            report["detail"]["violations"].append(
                "traced pass: sim_digest differs from the untraced pass's")
        _show(report)
    ledger = {
        "provenance": {
            "git_commit": _git_commit(), "seed": args.seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": reports[0]["detail"]["numpy"],
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "n": {r["workload"]: r["n"] for r in reports},
        },
        "runs": reports,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1))
    last = reports[-1]
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed",
                                           "metrics")}))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
