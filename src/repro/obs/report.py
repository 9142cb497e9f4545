"""Render a timing/metrics summary from a JSONL event log.

The `repro report` CLI subcommand and the post-run ``--trace`` summary
both go through :func:`render_report`, so an archived run renders exactly
like a live one.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Union


def load_events(path: Union[str, os.PathLike]) -> List[dict]:
    """Parse a JSONL event log; torn trailing lines are skipped."""
    events: List[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a crash mid-write
            if isinstance(record, dict):
                events.append(record)
    return events


def _span_lines(events: Iterable[dict]) -> List[str]:
    spans = sorted(
        (e for e in events if e.get("type") == "span"),
        key=lambda e: e.get("seq", 0),
    )
    if not spans:
        return []
    lines = ["spans:", f"  {'wall':>10}  {'cpu':>10}  name"]
    for span in spans:
        indent = "  " * int(span.get("depth", 0))
        attrs = span.get("attrs") or {}
        suffix = ""
        if attrs:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            suffix = f"  [{inner}]"
        lines.append(
            f"  {span.get('wall', 0.0):>9.3f}s  {span.get('cpu', 0.0):>9.3f}s  "
            f"{indent}{span.get('name', '?')}{suffix}"
        )
    return lines


def _counter_lines(events: Iterable[dict]) -> List[str]:
    # The final "metrics" record carries the authoritative totals; if the
    # run crashed before close(), fall back to summing unit records.
    metrics = None
    for record in events:
        if record.get("type") == "metrics":
            metrics = record
    counters = dict(metrics.get("counters", {})) if metrics else {}
    if not counters:
        for record in events:
            if record.get("type") == "unit":
                counters["attempts"] = counters.get("attempts", 0) + int(
                    record.get("attempts", 0)
                )
    if not counters:
        return []
    width = max(len(name) for name in counters)
    lines = ["counters:"]
    for name in sorted(counters):
        lines.append(f"  {name:<{width}}  {counters[name]}")
    return lines


def _summary_lines(events: Iterable[dict]) -> List[str]:
    units = [e for e in events if e.get("type") == "unit"]
    scans = [e for e in events if e.get("type") == "scan"]
    lines: List[str] = []
    if units:
        replayed = sum(1 for u in units if u.get("replayed"))
        attempts = sum(int(u.get("attempts", 0)) for u in units)
        line = f"units: {len(units)} ({attempts} attempts"
        if replayed:
            line += f", {replayed} replayed from checkpoint"
        lines.append(line + ")")
        slowest = sorted(
            (u for u in units if u.get("wall") is not None),
            key=lambda u: u.get("wall", 0.0),
            reverse=True,
        )[:5]
        if slowest:
            lines.append("slowest units:")
            for unit in slowest:
                lines.append(f"  {unit.get('wall', 0.0):>9.3f}s  {unit.get('key', '?')}")
    if scans:
        lines.append(f"scans: {len(scans)}")
    return lines


def render_report(events: Iterable[dict]) -> str:
    """A human-readable summary of one run's event log."""
    events = list(events)
    sections = [
        _span_lines(events),
        _counter_lines(events),
        _summary_lines(events),
    ]
    blocks = ["\n".join(lines) for lines in sections if lines]
    if not blocks:
        return "(no events)"
    return "\n\n".join(blocks)


__all__ = ["load_events", "render_report"]
