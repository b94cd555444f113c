"""One measurement process: one workload, one seed, one pass.

Spawned by ``python3 -m benchmarks.perf`` with ``PYTHONHASHSEED=0`` and
BLAS/OpenMP pinned to one thread.  Prints one JSON report as the last
line of its standard output and exits non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

OUT_DIR = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.worker")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-import", action="store_true",
                        help="only time the program's import")
    args = parser.parse_args(argv)

    # the cost a CLI user pays before any world exists: NumPy plus the
    # program's own import chain
    t0 = perf_counter()
    from . import adapter
    import_s = perf_counter() - t0
    from .hostspeed import HostSpeed
    host = HostSpeed()          # samples the host right after the import
    if args.probe_import:
        print(json.dumps({"import_s": import_s, "import_cal_s": host.last}))
        return 0
    if args.workload not in adapter.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(adapter.WORKLOADS)}")

    from . import harness
    if args.trace:
        report, tracer = harness.trace(args.workload, args.seed, host)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        report = harness.measure(args.workload, args.seed, args.seconds,
                                 import_s, host)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
