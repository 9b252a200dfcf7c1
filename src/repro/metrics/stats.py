"""Latency statistics (vectorized with NumPy, imported on first use:
``repro.metrics`` is on every deployment's import path, the statistics
only on a bench's).

Every evaluation table reports means and standard deviations of latency
samples; these helpers centralize that computation so benches, tests and
the harness agree on definitions (std is the sample standard deviation,
ddof=1, matching how the paper reports "Std. Dev.").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a latency sample (all values in the input's units)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p95: float
    p99: float

    def scaled(self, factor: float) -> "SummaryStats":
        """Unit conversion (e.g. seconds → milliseconds)."""
        return SummaryStats(
            count=self.count,
            mean=self.mean * factor,
            std=self.std * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
            median=self.median * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
        )

    def row(self, label: str, unit: str = "ms") -> str:
        """One formatted table row (used by the bench harnesses)."""
        return (
            f"{label:<28s} mean={self.mean:10.2f}{unit} "
            f"std={self.std:9.2f}{unit} min={self.minimum:9.2f}{unit} "
            f"max={self.maximum:10.2f}{unit} n={self.count}"
        )


def summarize(samples: Iterable[float] | Sequence[float] | np.ndarray) -> SummaryStats:
    """Compute :class:`SummaryStats` over a sample of latencies."""
    import numpy as np

    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples,
                     dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
    )

