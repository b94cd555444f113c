"""The exact half of the perf gate (ROADMAP item 6).

    python3 -m benchmarks.perf --workload drift_miss --workload static_hit \\
        --workload fluid_ring --workload tenant_mix --workload mesh_faults \\
        --workload strategy_eval --seed 0 --seconds 3 --trace 0
    python3 -m benchmarks.ledger_gate BENCH_18.json [ledger.json]

fails when a run in the ledger is not ``correct`` or an untraced run's
``detail.sim_digest`` differs from the one the committed
``BENCH_<pr>.json`` holds for that workload (all six: ``drift_miss``,
``static_hit``, ``fluid_ring``, ``tenant_mix``, ``mesh_faults``,
``strategy_eval``; a ledger holding fewer is checked for those it
holds).  Throughput is not gated: reference-host seconds are not yet
validated on the CI runner."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "perf" / "out" / "ledger.json"


def problems(bench: dict, ledger: dict) -> list:
    if ledger["provenance"]["seed"] != bench["seed"]:
        return [f"ledger is for seed {ledger['provenance']['seed']}, "
                f"digests are frozen for seed {bench['seed']}"]
    found = []
    for run in ledger["runs"]:
        name, frozen = run["workload"], bench["workloads"][run["workload"]]
        if not run["correct"]:
            found.append(f"{name}: a correctness check failed")
        if run["trace"] == 0 and \
                run["detail"]["sim_digest"] != frozen["sim_digest"]:
            found.append(f"{name}: sim_digest {run['detail']['sim_digest']} "
                         f"!= frozen {frozen['sim_digest']}")
    return found


if __name__ == "__main__":
    bench = json.loads((ROOT / sys.argv[1]).read_text())
    ledger = Path(sys.argv[2]) if len(sys.argv) > 2 else LEDGER
    found = problems(bench, json.loads(ledger.read_text()))
    print("\n".join(found) or f"ledger matches {sys.argv[1]}")
    sys.exit(1 if found else 0)
