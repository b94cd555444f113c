"""Command-line figure runner.

``python -m repro.cli <figure>`` regenerates one entry of
:data:`repro.eval.figures.FIGURES` at full size and prints its table
(``benchmarks/bench_claims.py`` checks its claims on top).

    python -m repro.cli list
    python -m repro.cli fig13
    python -m repro.cli fig17
    python -m repro.cli vit
    python -m repro.cli telemetry --requests 60 --out telemetry.jsonl
    python -m repro.cli links
    python -m repro.cli run adaptive --set num_requests=120
    python -m repro.cli run serving_load --record run.jsonl
    python -m repro.cli replay run.jsonl --verify
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .eval.figures import FIGURES, run_figure
from .eval.runner import SCENARIOS

__all__ = ["main"]


class _UsageError(Exception):
    """Bad command-line input found after parsing; exits with code 2."""


def _writable(flag: str, path: str) -> None:
    """Refuse an output path that cannot be written, creating nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "Is a directory"
    elif not os.path.isdir(parent):
        problem = "No such directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "Permission denied"
    else:
        return
    raise _UsageError(f"{flag} {path}: {problem}")


def _figure(args) -> str:
    """Regenerate one registered figure at full size: its table."""
    return FIGURES[args.command].format(run_figure(args.command))


def _telemetry(args) -> str:
    """Run an instrumented serving scenario; dump report + exports."""
    from .core import SLO, Murmuration, SearchDecisionEngine
    from .devices import desktop_gtx1080, rpi4
    from .nas import MBV3_SPACE
    from .netsim import NetworkCondition, TraceConfig, random_walk_trace
    from .runtime import InferenceServer
    from .telemetry import (Telemetry, console_report, prometheus_text,
                            write_jsonl)

    tel = Telemetry()
    devices = [rpi4(), desktop_gtx1080()]
    try:
        system = Murmuration(
            MBV3_SPACE, devices, NetworkCondition((80.0,), (30.0,)),
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4),
            slo=SLO.latency_ms(args.slo_ms), use_predictor=False,
            monitor_noise=0.02, seed=0, telemetry=tel)
        server = InferenceServer(system, arrival_rate_hz=args.rate, seed=1,
                                 telemetry=tel)
    except ValueError as exc:  # --slo-ms or --rate out of range
        raise _UsageError(str(exc))
    for flag, path in (("--out", args.out), ("--prom", args.prom)):
        if path is not None:
            _writable(flag, path)
    trace = random_walk_trace(TraceConfig(
        num_remote=1, bw_range=(25.0, 120.0), delay_range=(15.0, 70.0),
        steps=30, seed=1))
    server.run(num_requests=args.requests, condition_trace=trace,
               trace_period_s=0.5)

    lines = write_jsonl(args.out, tel.registry, tel.timelines)
    report = console_report(tel.registry, tel.timelines)
    footer = [f"\nwrote {lines} JSONL records to {args.out}"]
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prometheus_text(tel.registry))
        footer.append(f"wrote Prometheus text to {args.prom}")
    return report + "\n" + "\n".join(footer)


def _links(args) -> str:
    """Per-link congestion dashboard over the transport's link metrics.

    Without ``--jsonl``, runs a small distributed-execution demo (one
    layerwise split per remote plus a 2x2 spatial plan over a 4-device
    swarm with deliberately unequal links) so the report shows real
    traffic; with ``--jsonl`` it reads a previous ``telemetry`` export.
    """
    import json

    from .telemetry import format_link_report, link_stats

    if args.jsonl is not None:
        from .telemetry.metrics import MetricsRegistry

        reg = MetricsRegistry()
        try:
            with open(args.jsonl) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec.get("record") != "metric":
                        continue
                    link = rec.get("labels", {}).get("link")
                    if link is None:
                        continue
                    name = rec["name"]
                    if name.endswith(("link_bytes_total",
                                      "link_reroutes_total",
                                      "link_down_seconds")):
                        reg.counter(name, link=link).inc(rec["value"])
                    elif name.endswith("link_transfer_s"):
                        # rebuild the histogram's shape from its summary:
                        # counts at the mean reproduce count/sum exactly
                        # (quantiles are approximate by construction)
                        h = reg.histogram(name, link=link)
                        for _ in range(int(rec["count"])):
                            h.observe(rec["mean"])
        except OSError as exc:
            raise SystemExit(f"cannot read telemetry export: {exc}")
        return format_link_report(link_stats(reg))

    import numpy as np

    from .devices import desktop_gtx1080, jetson_class, rpi4
    from .nas import Supernet, build_graph, max_arch, tiny_space
    from .netsim import NetworkCondition, star_topology
    from .partition import Grid, layerwise_split_plan, spatial_plan
    from .runtime import DistributedExecutor
    from .telemetry import Telemetry

    tel = Telemetry()
    space = tiny_space()
    net = Supernet(space, seed=args.seed).eval()
    tracker = None
    if getattr(args, "fluid", False):
        from .netsim import FluidTracker

        tracker = FluidTracker(telemetry=tel)
    cluster = star_topology(
        [rpi4(), desktop_gtx1080(), jetson_class(), rpi4()],
        NetworkCondition((300.0, 80.0, 25.0), (5.0, 20.0, 40.0)))
    cluster.contention = tracker
    ex = DistributedExecutor(net, cluster, telemetry=tel)
    arch = max_arch(space)
    graph = build_graph(arch, space)
    x = np.random.default_rng(args.seed).normal(size=(1, 3, 32, 32))
    for remote in (1, 2, 3):
        ex.execute(x, arch, layerwise_split_plan(graph, len(graph) // 2,
                                                 remote=remote))
    ex.execute(x, arch, spatial_plan(graph, Grid(2, 2), [0, 1, 2, 3]))
    report = ("demo: 3 layerwise splits + one 2x2 spatial plan, "
              "4-device swarm with unequal links\n\n"
              + format_link_report(link_stats(tel.registry)))
    if tracker is not None:
        tracker.drain()  # run in-flight flows to completion for stats
        s = tracker.stats()
        report += (f"\n\nfluid solver: {s['flows']:.0f} flows priced, "
                   f"{s['contended']:.0f} contended, "
                   f"peak share {s['peak_share']:.0f}, "
                   f"{s['segments']:.0f} rate segments")
    return report


def _run(args) -> str:
    """Run one registered scenario: its table or JSON, and a recording."""
    import json
    from dataclasses import asdict

    from .eval.runner import (format_reports, override_config,
                              report_values, run_scenario)
    from .telemetry import Telemetry, write_recordings

    spec = SCENARIOS[args.scenario]
    try:
        cfg = override_config(spec.config(), args.set)
    except ValueError as exc:
        raise _UsageError(str(exc))
    variants = (args.variants.split(",") if args.variants
                else list(spec.variants))
    unknown = [v for v in variants if v not in spec.variants]
    if unknown:
        raise _UsageError(
            f"{args.scenario} has no variant {', '.join(unknown)}; "
            f"valid variants: {', '.join(spec.variants)}")
    if args.timelines and (args.record is None
                           or spec.instrumented not in variants):
        raise _UsageError(
            f"--timelines needs --record and the instrumented variant "
            f"({spec.instrumented or 'this scenario has none'})")
    if args.record is not None:
        _writable("--record", args.record)
    try:
        reports = run_scenario(
            args.scenario, cfg, variants=variants,
            record=args.record is not None,
            telemetry=Telemetry() if args.timelines else None)
    except ValueError as exc:  # a config value the world rejects
        raise _UsageError(str(exc))
    if args.json:
        # canonical key order + repr floats: two identical seeded runs
        # print byte-identical JSON (CI determinism check)
        out = json.dumps({"scenario": args.scenario, "config": asdict(cfg),
                          "variants": report_values(reports)},
                         sort_keys=True)
    else:
        out = format_reports(reports)
    if args.record is not None:
        lines = write_recordings(
            args.record, [rep.recorder for rep in reports.values()])
        note = (f"wrote {lines} recording lines ({len(reports)} runs) "
                f"to {args.record}")
        if cfg.decision_time_s is None:
            note += ("\nnote: decision_time_s=none charges measured wall "
                     "clock; this recording is not byte-stable")
        if args.json:  # keep stdout pure JSON
            print(note, file=sys.stderr)
        else:
            out += "\n\n" + note
    return out


def _stream(runs) -> str:
    import io

    from .telemetry import write_recordings

    buf = io.StringIO()
    write_recordings(buf, runs)
    return buf.getvalue()


def _replay(args) -> str:
    """Re-derive serving stats from a recording; optionally verify."""
    from itertools import groupby

    from .eval.replay import (format_replay, load_recordings, replay_reports,
                              rerecord, verify_invariants)
    from .eval.runner import format_reports

    try:
        recs = load_recordings(args.recording)
    except OSError as exc:
        raise SystemExit(f"cannot read recording: {exc}")
    if not recs:
        raise SystemExit(f"{args.recording}: no recorded runs found")
    lines = [format_replay(recs)]
    for scenario, group in groupby(recs, key=lambda rec: rec.scenario):
        if scenario in SCENARIOS:
            lines += ["", format_reports(replay_reports(list(group)))]
    problems = []
    for rec in recs:
        problems += [f"{rec.variant}: {p}" for p in verify_invariants(rec)]
    if problems:
        raise SystemExit("recording fails serving invariants:\n  "
                         + "\n  ".join(problems))
    lines.append(f"\ninvariants ok across {len(recs)} runs")
    if args.verify:
        for rec in recs:
            try:
                fresh = rerecord(rec)
            except ValueError as exc:
                raise SystemExit(f"verify failed: {exc}")
            if _stream([fresh]) != _stream([rec]):
                raise SystemExit(
                    f"verify failed: live re-run of {rec.scenario}/"
                    f"{rec.variant} is not byte-identical to the recording")
        lines.append(f"verified: live re-runs match all "
                     f"{len(recs)} recorded runs byte for byte")
    return "\n".join(lines)


_COMMANDS = {
    **{name: (_figure, figure.help) for name, figure in FIGURES.items()},
    "telemetry": (_telemetry,
                  "instrumented serving run: report + JSONL/Prometheus"),
    "links": (_links,
              "per-link congestion dashboard over transport_link_* "
              "metrics; --jsonl reads a telemetry export"),
    "run": (_run,
            "run a serving scenario (see `list`): variants side by side; "
            "--set field=value overrides its config, --record captures "
            "a replayable JSONL recording"),
    "replay": (_replay,
               "re-derive serving stats and tables from a recording; "
               "--verify re-runs live and byte-diffs"),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate figures from the Murmuration paper.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available figures")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "telemetry":
            p.add_argument("--requests", type=int, default=60,
                           help="requests to serve")
            p.add_argument("--rate", type=float, default=4.0,
                           help="Poisson arrival rate (req/s)")
            p.add_argument("--slo-ms", type=float, default=200.0,
                           help="latency SLO in milliseconds")
            p.add_argument("--out", default="telemetry.jsonl",
                           help="JSONL export path")
            p.add_argument("--prom", default=None,
                           help="also write Prometheus text to this path")
        elif name == "links":
            p.add_argument("--jsonl", default=None,
                           help="read link metrics from a telemetry JSONL "
                                "export instead of running the demo")
            p.add_argument("--seed", type=int, default=0,
                           help="seed for the demo's supernet and input")
            p.add_argument("--fluid", action="store_true",
                           help="attach the fluid-flow (max-min) solver "
                                "to the demo cluster and report its "
                                "pricing stats")
        elif name == "run":
            p.add_argument("scenario", choices=list(SCENARIOS),
                           help="scenario to run")
            p.add_argument("--set", action="append", default=[],
                           metavar="FIELD=VALUE",
                           help="override one field of the scenario's "
                                "config (repeatable), e.g. "
                                "num_requests=40, burst_window=2,4, "
                                "decision_time_s=none")
            p.add_argument("--variants", default=None, metavar="A,B",
                           help="run only these variants (default: all)")
            p.add_argument("--record", default=None, metavar="OUT",
                           help="capture every variant into this "
                                "recording JSONL")
            p.add_argument("--timelines", action="store_true",
                           help="with --record: also capture the "
                                "instrumented variant's per-request span "
                                "timelines")
            p.add_argument("--json", action="store_true",
                           help="print a canonical JSON summary instead "
                                "of the table (byte-stable across "
                                "identically seeded runs)")
        elif name == "replay":
            p.add_argument("recording",
                           help="recording JSONL path (from `run --record`)")
            p.add_argument("--verify", action="store_true",
                           help="re-run each recorded variant live and "
                                "fail unless it re-records byte for byte")
    args = parser.parse_args(argv)

    if getattr(args, "requests", None) is not None and args.requests <= 0:
        parser.error(f"--requests must be positive, got {args.requests}")
    if args.command in (None, "list"):
        print("available figures:")
        for name, (_, help_text) in _COMMANDS.items():
            print(f"  {name:16s} {help_text}")
        print("scenarios (run <name>):")
        for name, spec in SCENARIOS.items():
            print(f"  {name:13s} {', '.join(spec.variants)}")
        return 0
    fn, _ = _COMMANDS[args.command]
    try:
        print(fn(args))
    except _UsageError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
