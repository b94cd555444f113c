"""Exporters: JSONL, Prometheus text format, and a console report.

Three consumers, three formats:

* ``write_jsonl`` — machine-readable archive: one JSON object per line,
  first the metrics then the per-request timelines.  This is what the
  ``murmuration-repro telemetry`` CLI dumps and what notebooks load.
* ``prometheus_text`` — the Prometheus exposition format
  (``name{label="v"} value``), so a real scrape endpoint can serve the
  registry verbatim.  Histograms export as summaries (count, sum and
  streaming quantiles).
* ``console_report`` — a human-readable digest for terminals.
* ``link_stats`` / ``format_link_report`` — a per-link congestion view
  over the transport's ``link_bytes_total`` / ``link_transfer_s``
  metrics, plus the mesh fault columns (``link_reroutes_total``,
  ``link_down_seconds``) — the ``murmuration-repro links`` CLI
  dashboard.
"""

from __future__ import annotations

import json
import re
import warnings
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union

from .metrics import Counter, Gauge, Histogram, Metric, MetricsRegistry
from .recorder import _json_default
from .timeline import RequestTimeline

__all__ = ["jsonl_records", "write_jsonl", "prometheus_text",
           "console_report", "link_stats", "format_link_report"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_QUANTILES = (0.5, 0.95, 0.99)


def _sanitize(name: str) -> str:
    """Coerce a metric name to the Prometheus grammar."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not name or not re.match(r"[a-zA-Z_:]", name[0]):
        name = "_" + name
    return name


# -- JSONL -----------------------------------------------------------------

def _metric_record(m: Metric) -> dict:
    rec: dict = {"type": m.kind, "name": m.name, "labels": m.label_dict}
    if isinstance(m, Histogram):
        rec.update(count=m.count, sum=m.sum,
                   min=(m.min if m.count else 0.0),
                   max=(m.max if m.count else 0.0),
                   mean=m.mean,
                   quantiles={str(q): m.quantile(q) for q in _QUANTILES})
    else:
        rec["value"] = m.value
    return rec


def jsonl_records(registry: MetricsRegistry,
                  timelines: Sequence[RequestTimeline] = (),
                  ) -> Iterator[dict]:
    for m in registry.collect():
        yield {"record": "metric", **_metric_record(m)}
    for tl in timelines:
        yield {"record": "timeline", **tl.to_dict()}


def write_jsonl(dest: Union[str, IO[str]], registry: MetricsRegistry,
                timelines: Sequence[RequestTimeline] = ()) -> int:
    """Write the registry + timelines as JSON lines; returns line count."""
    records = jsonl_records(registry, timelines)
    if hasattr(dest, "write"):
        n = 0
        for rec in records:
            dest.write(json.dumps(rec, default=_json_default)
                       + "\n")  # type: ignore[union-attr]
            n += 1
        return n
    with open(dest, "w") as fh:  # type: ignore[arg-type]
        return write_jsonl(fh, registry, timelines)


# -- Prometheus text format -------------------------------------------------

def _fmt_labels(items: Iterable[tuple], extra: str = "") -> str:
    parts = [f'{_sanitize(k)}="{v}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in the exposition text format."""
    lines: List[str] = []
    seen_headers = set()
    for m in registry.collect():
        name = _sanitize(m.name)
        if name not in seen_headers:
            seen_headers.add(name)
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            kind = "summary" if isinstance(m, Histogram) else m.kind
            lines.append(f"# TYPE {name} {kind}")
        if isinstance(m, Histogram):
            for q in _QUANTILES:
                labels = _fmt_labels(m.labels, extra=f'quantile="{q}"')
                lines.append(f"{name}{labels} {m.quantile(q):.9g}")
            lines.append(f"{name}_sum{_fmt_labels(m.labels)} {m.sum:.9g}")
            lines.append(f"{name}_count{_fmt_labels(m.labels)} {m.count}")
        else:
            value = m.value
            out = repr(int(value)) if float(value).is_integer() else f"{value:.9g}"
            lines.append(f"{name}{_fmt_labels(m.labels)} {out}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- per-link congestion ----------------------------------------------------

def link_stats(registry: MetricsRegistry) -> List[dict]:
    """Aggregate the transport's per-link metrics into congestion rows.

    Scans the registry for ``link_bytes_total`` counters and
    ``link_transfer_s`` histograms (any prefix) carrying a ``link``
    label — the pair :class:`~repro.runtime.rpc.Transport` emits for
    every cross-device delivery — and joins them per link.  Each row:

    ``link``
        the ``"src-dst"`` device pair;
    ``messages`` / ``bytes``
        delivery count and payload bytes on the wire;
    ``busy_s``
        total simulated seconds the link spent transferring — the
        congestion headline (queueing at a link shows up here, since
        every delivery's transfer time includes its wait);
    ``mean_ms`` / ``p95_ms``
        per-delivery transfer time, mean and 95th percentile;
    ``mbps``
        effective throughput (payload bits / busy seconds);
    ``reroutes``
        deliveries that travelled a backup path instead of the
        fault-free base route (``link_reroutes_total``, labelled by the
        logical src-dst pair — failover activity per endpoint pair);
    ``down_s``
        simulated seconds the *physical* edge spent down under fault
        injection (``link_down_seconds``, metered by the injector).

    Rows come back busiest-first.  Links that never carried traffic do
    not appear (the transport only mints the metrics on first use) —
    unless fault metering or rerouting touched them, in which case
    they appear with zero traffic so outages on idle edges stay
    visible.
    """
    bytes_by: dict = {}
    hist_by: dict = {}
    reroutes_by: dict = {}
    down_by: dict = {}
    for m in registry.collect():
        link = m.label_dict.get("link")
        if link is None:
            continue
        if m.name.endswith("link_bytes_total"):
            bytes_by[link] = bytes_by.get(link, 0) + int(m.value)
        elif m.name.endswith("link_transfer_s") and isinstance(m, Histogram):
            hist_by[link] = m
        elif m.name.endswith("link_reroutes_total"):
            reroutes_by[link] = reroutes_by.get(link, 0) + int(m.value)
        elif m.name.endswith("link_down_seconds"):
            down_by[link] = down_by.get(link, 0.0) + float(m.value)
    rows: List[dict] = []
    for link in sorted(set(bytes_by) | set(hist_by)
                       | set(reroutes_by) | set(down_by)):
        h = hist_by.get(link)
        nbytes = bytes_by.get(link, 0)
        busy = h.sum if h is not None else 0.0
        rows.append({
            "link": link,
            "messages": h.count if h is not None else 0,
            "bytes": nbytes,
            "busy_s": busy,
            "mean_ms": h.mean * 1e3 if h is not None and h.count else 0.0,
            "p95_ms": (h.quantile(0.95) * 1e3
                       if h is not None and h.count else 0.0),
            "mbps": nbytes * 8 / 1e6 / busy if busy > 0 else 0.0,
            "reroutes": reroutes_by.get(link, 0),
            "down_s": down_by.get(link, 0.0),
        })
    rows.sort(key=lambda r: (-r["busy_s"], r["link"]))
    return rows


def format_link_report(rows: Sequence[dict]) -> str:
    """Render :func:`link_stats` rows as a console table."""
    if not rows:
        return "no cross-device traffic recorded"
    lines = [f"{'link':>8s}{'msgs':>7s}{'bytes':>12s}{'busy s':>9s}"
             f"{'mean ms':>9s}{'p95 ms':>9s}{'Mbps':>8s}"
             f"{'rerte':>7s}{'down s':>9s}"]
    for r in rows:
        lines.append(
            f"{r['link']:>8s}{r['messages']:>7d}{r['bytes']:>12,d}"
            f"{r['busy_s']:>9.3f}{r['mean_ms']:>9.1f}{r['p95_ms']:>9.1f}"
            f"{r['mbps']:>8.1f}{r.get('reroutes', 0):>7d}"
            f"{r.get('down_s', 0.0):>9.2f}")
    total_b = sum(r["bytes"] for r in rows)
    total_m = sum(r["messages"] for r in rows)
    total_r = sum(r.get("reroutes", 0) for r in rows)
    busiest = rows[0]
    summary = (f"{len(rows)} links, {total_m} messages, "
               f"{total_b:,d} bytes; busiest {busiest['link']} "
               f"({busiest['busy_s']:.3f}s busy)")
    if total_r:
        summary += f"; {total_r} rerouted deliveries"
    lines.append(summary)
    return "\n".join(lines)


# -- console ---------------------------------------------------------------

def _label_suffix(m: Metric) -> str:
    if not m.labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in m.labels) + "}"


def console_report(registry: MetricsRegistry,
                   timelines: Sequence[RequestTimeline] = (),
                   show_timelines: int = 3,
                   max_timelines: Optional[int] = None) -> str:
    """Human-readable digest of the registry + a few sample timelines.

    ``show_timelines`` caps how many timelines are *rendered*.  It used
    to be called ``max_timelines``, which collided with the unrelated
    :class:`~repro.telemetry.hub.Telemetry` retention cap of the same
    name; the old keyword is kept as a deprecated alias.
    """
    if max_timelines is not None:
        warnings.warn(
            "console_report(max_timelines=...) is deprecated: it caps "
            "rendering, not retention (that is Telemetry.max_timelines)."
            " Use show_timelines=... instead.",
            DeprecationWarning, stacklevel=2)
        show_timelines = max_timelines
    lines: List[str] = ["== telemetry report =="]
    counters = [m for m in registry.collect() if isinstance(m, Counter)]
    gauges = [m for m in registry.collect() if isinstance(m, Gauge)]
    histos = [m for m in registry.collect() if isinstance(m, Histogram)]

    if counters:
        lines.append("-- counters --")
        for m in counters:
            lines.append(f"  {m.name + _label_suffix(m):<44s} "
                         f"{m.value:12.6g}")
    if gauges:
        lines.append("-- gauges --")
        for m in gauges:
            lines.append(f"  {m.name + _label_suffix(m):<44s} "
                         f"{m.value:12.6g}")
    if histos:
        lines.append("-- histograms (count / mean / p50 / p95 / p99) --")
        for m in histos:
            lines.append(
                f"  {m.name + _label_suffix(m):<44s} "
                f"{m.count:7d} {m.mean:10.4g} {m.quantile(0.5):10.4g} "
                f"{m.quantile(0.95):10.4g} {m.quantile(0.99):10.4g}")
    if timelines:
        lines.append(f"-- timelines ({len(timelines)} requests, "
                     f"showing {min(show_timelines, len(timelines))}) --")
        for tl in list(timelines)[:show_timelines]:
            lines.append(tl.render())
    return "\n".join(lines)
