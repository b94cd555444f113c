"""repro.telemetry — metrics, tracing and per-request timelines.

The observability layer for the whole serving stack.  Four pieces:

* :mod:`~repro.telemetry.metrics` — label-aware counters/gauges and
  fixed-memory streaming-quantile histograms in a
  :class:`MetricsRegistry` with child scoping;
* :mod:`~repro.telemetry.tracing` — nested :class:`Span` trees stamped
  with both simulated-clock and wall-clock time, plus a zero-overhead
  no-op mode;
* :mod:`~repro.telemetry.timeline` — :class:`RequestTimeline`, the
  flattened queue → decision → switch → execute → transfer story of one
  request, assembled from spans;
* :mod:`~repro.telemetry.export` — JSONL / Prometheus-text / console
  exporters over the registry and timelines;
* :mod:`~repro.telemetry.recorder` — :class:`RunRecorder`, a versioned
  JSONL capture of one serving run (arrivals, conditions, decisions,
  batches, spans) that :mod:`repro.eval.replay` re-derives statistics
  and figures from without re-simulating.

Everything hangs off one :class:`Telemetry` hub that instrumented
components accept as an optional constructor argument (``None`` selects
the no-op :data:`NULL_TELEMETRY`)::

    from repro.telemetry import Telemetry
    tel = Telemetry()
    system = Murmuration(..., telemetry=tel)
    server = InferenceServer(system, arrival_rate_hz=4.0, telemetry=tel)
    server.run(num_requests=100)
    print(console_report(tel.registry, tel.timelines))
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "hub": ("Telemetry", "NULL_TELEMETRY"),
    "metrics": ("MetricsRegistry", "Counter", "Gauge", "Histogram"),
    "tracing": ("Tracer", "NullTracer", "NULL_TRACER", "Span"),
    "timeline": ("RequestTimeline", "TimelineEvent"),
    "export": ("write_jsonl", "jsonl_records", "prometheus_text",
               "console_report", "link_stats", "format_link_report"),
    "recorder": ("SCHEMA_VERSION", "Recording", "RunRecorder", "NULL_RECORDER",
                 "read_recordings", "write_recordings"),
})
