"""``python -m benchmarks.pairs``: a paired perf claim in one command.

Host time on a shared machine drifts by more than most changes gain, so
a claim rests on *pairs*: the parent and the change run back to back on
the same seed, alternating which side goes first, and only their ratio
is read.  This command builds those pairs::

    python -m benchmarks.pairs --parent REV [--change REV] \\
        [--workload W ...] [--pairs N] [--seeds A-B] [--seconds S] \\
        --out BENCH_<n>_pairs.json

Both revisions (``--change`` defaults to ``HEAD``; a dirty working tree
is not measured) are ``git archive``d into temporary directories.  Pair
``i`` of a workload runs seed ``A + i``; even pairs run the parent
first.  Each side is one ``python -m benchmarks.perf --workload W --seed
S --trace 0 --seconds S --out <tmp>`` in its own tree, with this
process's environment plus ``PYTHONDONTWRITEBYTECODE=1`` (neither side
imports from a bytecode cache the other lacks), and one process runs at
a time.  From each ledger it reads ``runs[0].metrics`` and
``runs[0].detail.sim_digest``.

``--out`` gets one schema: the host, the Python version, both commit
SHAs, the arguments, every pair's raw values and, per workload and
``BENCHMARK.json`` end-to-end metric, the parent and change medians and
quartiles, the ratio of medians (change / parent) and how many pairs
the change won in the metric's better direction, and whether every
pair's simulated metrics are bit-equal.  The command exits 1
if any run reports ``correct: false`` or any pair's ``sim_digest``
differs, after writing the file; it gates no ratio.

It lives beside ``bench_claims.py``, not in ``benchmarks/perf/``: the
harness there is the ruler every comparison runs, so it changes only in
a PR that is about the ruler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: end-to-end metrics read off the simulation, not the host
SIM_METRICS = ("sim_e2e_compliance", "sim_p95_ms", "ok_share")

#: one side's run of one pair: ``{"correct", "sim_digest", "metrics"}``
Side = Dict[str, object]
#: ``(side, tree, workload, seed, seconds) -> Side``
Runner = Callable[[str, Path, str, int, int], Side]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def better_directions() -> Dict[str, str]:
    """End-to-end metric -> ``"higher"`` | ``"lower"``, the side that wins."""
    return {m["name"]: m["better"] for m in spec()["end_to_end"]}


def parse_seeds(text: str) -> List[int]:
    """``"A-B"`` (inclusive) or ``"A"`` as a list of seeds."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"benchmarks.pairs: git {' '.join(args)}: "
                 f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def archive(sha: str, dest: Path) -> Path:
    """The tree of commit ``sha``, extracted under ``dest``."""
    tarball = dest.with_suffix(".tar")
    _git("archive", "--format=tar", "-o", str(tarball), sha)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(tarball), "-C", str(dest)], check=True)
    tarball.unlink()
    return dest


def run_side(side: str, tree: Path, workload: str, seed: int,
             seconds: int) -> Side:
    """One untraced ledger run of ``workload`` in ``tree``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "ledger.json"
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.perf", "--workload", workload,
             "--seed", str(seed), "--trace", "0", "--seconds", str(seconds),
             "--out", str(out)],
            cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True)
        if not out.exists():
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
            sys.exit(f"benchmarks.pairs: the {side} run of {workload} seed "
                     f"{seed} exited {proc.returncode} without a ledger")
        run = json.loads(out.read_text())["runs"][0]
    return {"correct": run["correct"],
            "sim_digest": run["detail"]["sim_digest"],
            "metrics": {k: m["value"] for k, m in run["metrics"].items()}}


def collect(trees: Dict[str, Path], workloads: Sequence[str],
            seeds: Sequence[int], seconds: int,
            run: Runner = run_side) -> Dict[str, List[dict]]:
    """Every pair of every workload, each side run by ``run``."""
    pairs: Dict[str, List[dict]] = {}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair: dict = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(side, trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: ops_per_s "
                      f"{pair[side]['metrics'].get('ops_per_s', 'n/a')}",
                      flush=True)
            pairs.setdefault(workload, []).append(pair)
    return pairs


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _wins(better: str, parent: float, change: float) -> bool:
    return change > parent if better == "higher" else change < parent


def fold(pairs: Dict[str, List[dict]]) -> Tuple[dict, List[str]]:
    """Per workload and end-to-end metric, the paired summary; and every
    problem: a run that is not correct, a pair whose digests differ."""
    summary: dict = {}
    problems: List[str] = []
    directions = better_directions()
    for workload, runs in pairs.items():
        for pair in runs:
            for side in SIDES:
                if not pair[side]["correct"]:
                    problems.append(f"{workload} seed {pair['seed']}: the "
                                    f"{side} run is not correct")
            if pair["parent"]["sim_digest"] != pair["change"]["sim_digest"]:
                problems.append(
                    f"{workload} seed {pair['seed']}: sim_digest differs "
                    f"(parent {pair['parent']['sim_digest']}, change "
                    f"{pair['change']['sim_digest']})")
        table = summary[workload] = {"sim_metrics_equal": all(
            p["parent"]["metrics"].get(m) == p["change"]["metrics"].get(m)
            for p in runs for m in SIM_METRICS)}
        for metric, better in directions.items():
            got = [(p["parent"]["metrics"][metric],
                    p["change"]["metrics"][metric]) for p in runs
                   if metric in p["parent"]["metrics"]
                   and metric in p["change"]["metrics"]]
            if not got:
                continue
            parent = [a for a, _ in got]
            change = [b for _, b in got]
            mid_parent = statistics.median(parent)
            mid_change = statistics.median(change)
            table[metric] = {
                "better": better, "pairs": len(got),
                "parent_median": mid_parent, "change_median": mid_change,
                "parent_quartiles": _quartiles(parent),
                "change_quartiles": _quartiles(change),
                "ratio": mid_change / mid_parent if mid_parent else None,
                "change_wins": sum(_wins(better, a, b) for a, b in got)}
    return summary, problems


def _show(summary: dict) -> None:
    print(f"{'workload':14s} {'metric':20s} {'parent':>12s} {'change':>12s} "
          f"{'ratio':>7s} wins")
    for workload, table in summary.items():
        for metric, row in table.items():
            if metric == "sim_metrics_equal":
                continue
            ratio = row["ratio"]
            print(f"{workload:14s} {metric:20s} {row['parent_median']:12.6g} "
                  f"{row['change_median']:12.6g} "
                  f"{'-' if ratio is None else format(ratio, '7.4f'):>7s} "
                  f"{row['change_wins']}/{row['pairs']}")


def main(argv=None) -> int:
    bench = spec()
    known = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pairs",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", default="HEAD", help="git revision")
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=3,
                        help="pairs per workload (seeds A, A+1, ...)")
    parser.add_argument("--seeds", type=parse_seeds, default="0-99",
                        help="A-B: the seeds pairs take, in order")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"],
                        help="how long each side's untraced pass measures")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not 0 < args.pairs <= len(args.seeds):
        parser.error(f"--pairs must be 1..{len(args.seeds)} for the seeds")
    seeds = args.seeds[:args.pairs]
    workloads = args.workload or known
    shas = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}

    load_start = os.getloadavg()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: archive(sha, Path(tmp) / side)
                 for side, sha in shas.items()}
        pairs = collect(trees, workloads, seeds, args.seconds)
    summary, problems = fold(pairs)
    report = {
        "host": {"platform": platform.platform(),
                 "machine": platform.machine(), "nproc": os.cpu_count(),
                 "loadavg_start": load_start,
                 "loadavg_end": os.getloadavg()},
        "python": platform.python_version(),
        "commits": shas,
        "args": {"parent": args.parent, "change": args.change,
                 "workloads": workloads, "pairs": args.pairs,
                 "seeds": seeds, "seconds": args.seconds},
        "summary": summary,
        "problems": problems,
        "pairs": pairs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    _show(summary)
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
