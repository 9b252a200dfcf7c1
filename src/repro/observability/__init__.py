"""Observability: the deployment's event spine.

:mod:`repro.observability.events` is the one place a checker or monitor
subscribes to task transitions; the metrics half is
:class:`repro.metrics.MetricsRegistry`.  A task's per-stage timeline
lives on its record (``Task.state_times``, :data:`repro.core.tasks.STAGES`).
See ``docs/OBSERVABILITY.md``.
"""

from repro.metrics.registry import MetricsRegistry

__all__ = ["MetricsRegistry"]
