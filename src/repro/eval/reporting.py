"""Text renderers for the figure data (paper-style series/tables)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .experiments import MethodPoint

__all__ = ["format_accuracy_grid", "format_compliance", "format_scalability",
           "format_search_time", "format_switch_time", "format_latency_grid",
           "format_rows"]


def _cell(value: Optional[float], fmt: str = "{:6.1f}") -> str:
    return fmt.format(value) if value is not None else "     -"


def _grid_tables(results, attr: str, title: str, row_label: str,
                 col_label: str, label_width: int, col_fmt: str,
                 row_width: int) -> str:
    lines = []
    rows = sorted({k[0] for pts in results.values() for k in pts})
    cols = sorted({k[1] for pts in results.values() for k in pts})
    missed = MethodPoint(False, None, None)
    for method, pts in results.items():
        lines.append(f"== {method} ({title} | '-' = SLO missed) ==")
        lines.append(f"{row_label:>10s}\\{col_label:<{label_width}s}"
                     + "".join(format(c, col_fmt) for c in cols))
        for r in rows:
            lines.append(f"{r:>{row_width}.0f}" + "".join(
                _cell(getattr(pts.get((r, c), missed), attr), "{:8.1f}")
                for c in cols))
        lines.append("")
    return "\n".join(lines)


def format_accuracy_grid(results: Dict[str, Dict[Tuple[float, float],
                                                 MethodPoint]],
                         row_label: str = "delay",
                         col_label: str = "bw") -> str:
    """Render {method: {(row, col): point}} as accuracy tables."""
    return _grid_tables(results, "accuracy", "accuracy %", row_label,
                        col_label, 4, ">8.0f", 15)


def format_latency_grid(results: Dict[str, Dict[Tuple[float, float],
                                                MethodPoint]],
                        row_label: str = "bw",
                        col_label: str = "acc_slo") -> str:
    """Render {method: {(row, col): point}} as latency (ms) tables."""
    return _grid_tables(results, "latency_ms", "latency ms", row_label,
                        col_label, 7, ">8.1f", 17)


def format_compliance(results: Dict[str, Dict[float, float]],
                      x_label: str = "latency SLO (ms)") -> str:
    lines = [f"SLO compliance rate (%) by {x_label}"]
    xs = sorted({x for pts in results.values() for x in pts})
    header = f"{'method':<28s}" + "".join(f"{x:>10.0f}" for x in xs)
    lines.append(header)
    for method, pts in results.items():
        cells = "".join(_cell(pts.get(x), "{:10.1f}") for x in xs)
        lines.append(f"{method:<28s}" + cells)
    return "\n".join(lines)


def format_scalability(results: Dict[float, Dict[int, Optional[float]]]) -> str:
    lines = ["Murmuration latency (ms) vs number of devices"]
    counts = sorted({n for pts in results.values() for n in pts})
    header = f"{'accuracy SLO':<14s}" + "".join(f"{n:>8d}" for n in counts)
    lines.append(header)
    for acc, pts in sorted(results.items()):
        cells = "".join(_cell(pts.get(n), "{:8.1f}") for n in counts)
        lines.append(f"{acc:<14.1f}" + cells)
    return "\n".join(lines)


def format_search_time(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["Decision time (seconds)"]
    for method, per_device in results.items():
        for device, seconds in per_device.items():
            lines.append(f"{method:<14s} {device:<18s} {seconds:10.3f}s")
    return "\n".join(lines)


def format_switch_time(results: Dict[str, float]) -> str:
    lines = ["Model switch time on Raspberry Pi 4"]
    for name, seconds in results.items():
        lines.append(f"{name:<42s} {seconds * 1e3:10.2f} ms")
    return "\n".join(lines)


def format_rows(title: str, columns: Sequence[str],
                rows: Dict[object, Sequence[float]]) -> str:
    """``{label: values}`` under ``columns``, four significant digits."""
    width = max(len(str(label)) for label in rows) + 2
    lines = [title, " " * width + "".join(f"{c:>15s}" for c in columns)]
    for label, values in rows.items():
        lines.append(f"{label!s:<{width}s}"
                     + "".join(f"{v:15.4g}" for v in values))
    return "\n".join(lines)
