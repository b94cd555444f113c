"""JSONL, Prometheus text format, and the console report."""

import io
import json
import re

import numpy as np

from repro.telemetry import (MetricsRegistry, RequestTimeline, Telemetry,
                             Tracer, console_report, jsonl_records,
                             prometheus_text, write_jsonl)


def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("requests_total", help="requests served").inc(10)
    reg.counter("bytes_total", link="0-1").inc(2048)
    reg.gauge("slo_compliance", help="running compliance").set(0.95)
    h = reg.histogram("e2e_s", help="end-to-end latency")
    for v in (0.01, 0.02, 0.05, 0.1):
        h.observe(v)
    return reg


def _timeline(request=0):
    tracer = Tracer()
    with tracer.span("request", sim_time=0.0, request=request) as root:
        with tracer.span("decision", sim_time=0.0) as sp:
            sp.add_sim(0.02)
        root.set_sim_end(0.1)
    return RequestTimeline.from_span(tracer.finished[-1],
                                     request_id=request)


class TestJsonl:
    def test_every_line_parses_and_types_are_tagged(self):
        buf = io.StringIO()
        n = write_jsonl(buf, _populated_registry(), [_timeline()])
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == n == 5  # 4 metrics + 1 timeline
        records = [json.loads(line) for line in lines]
        kinds = {r["record"] for r in records}
        assert kinds == {"metric", "timeline"}

    def test_histogram_record_carries_quantiles(self):
        recs = list(jsonl_records(_populated_registry()))
        histo = next(r for r in recs if r["type"] == "histogram")
        assert set(histo["quantiles"]) == {"0.5", "0.95", "0.99"}
        assert histo["count"] == 4

    def test_writes_to_path(self, tmp_path):
        out = tmp_path / "telemetry.jsonl"
        n = write_jsonl(str(out), _populated_registry())
        assert n == 4
        assert len(out.read_text().strip().split("\n")) == 4

    def test_numpy_scalars_in_attrs_serialize(self):
        tracer = Tracer()
        with tracer.span("request", satisfied=np.bool_(True),
                         lat=np.float64(0.25)):
            pass
        tl = RequestTimeline.from_span(tracer.finished[-1])
        buf = io.StringIO()
        write_jsonl(buf, MetricsRegistry(), [tl])
        attrs = json.loads(buf.getvalue())["attrs"]
        assert attrs == {"satisfied": True, "lat": 0.25}


# Prometheus exposition grammar: one sample per non-comment line.
_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'                       # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'               # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'          # more labels
    r' -?[0-9.eE+-]+(inf|nan)?$')                      # value
_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


class TestPrometheusText:
    def test_every_line_matches_the_exposition_grammar(self):
        text = prometheus_text(_populated_registry())
        assert text.endswith("\n")
        for line in text.strip().split("\n"):
            assert _SAMPLE.match(line) or _COMMENT.match(line), line

    def test_counter_sample_with_labels(self):
        text = prometheus_text(_populated_registry())
        assert 'bytes_total{link="0-1"} 2048' in text

    def test_histogram_exports_as_summary(self):
        text = prometheus_text(_populated_registry())
        assert "# TYPE e2e_s summary" in text
        assert 'e2e_s{quantile="0.5"}' in text
        assert "e2e_s_count 4" in text
        assert "e2e_s_sum" in text

    def test_headers_emitted_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", link="0-1")
        reg.counter("bytes_total", link="0-2")
        text = prometheus_text(reg)
        assert text.count("# TYPE bytes_total counter") == 1

    def test_bad_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.total").inc()
        text = prometheus_text(reg)
        assert "weird_name_total 1" in text

    def test_empty_registry_is_empty_string(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestConsoleReport:
    def test_sections_present(self):
        report = console_report(_populated_registry(), [_timeline()])
        assert "== telemetry report ==" in report
        assert "-- counters --" in report
        assert "-- gauges --" in report
        assert "-- histograms" in report
        assert "-- timelines" in report

    def test_timeline_cap(self):
        tls = [_timeline(i) for i in range(5)]
        report = console_report(_populated_registry(), tls,
                                show_timelines=2)
        assert "showing 2" in report
        assert "request 1:" in report and "request 2:" not in report

    def test_show_timelines_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            console_report(_populated_registry(), [_timeline()],
                           show_timelines=1)

    def test_collect_hooks_fire_for_reports(self):
        """Snapshot gauges registered via hooks appear up to date."""
        tel = Telemetry()
        g = tel.registry.gauge("entries")
        tel.registry.add_collect_hook(lambda: g.set(3.0))
        assert "3" in console_report(tel.registry)
