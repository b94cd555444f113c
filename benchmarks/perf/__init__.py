"""The repo's performance benchmark (see README.md in this directory).

Run it from the repository root::

    python3 -m benchmarks.perf --seed 0

``BENCHMARK.json`` at the root declares its workloads, metrics and
regression bounds.
"""
