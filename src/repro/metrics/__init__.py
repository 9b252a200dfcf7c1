"""Measurement utilities: latency statistics, timelines, and the
process-wide metrics registry."""

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_records,
)
from repro.metrics.stats import SummaryStats, summarize
from repro.metrics.timeline import Timeline

__all__ = [
    "SummaryStats",
    "summarize",
    "Timeline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_records",
]
