"""Time-series recording for the timeline figures (6, 7, 8).

A :class:`Timeline` stores ``(time, value)`` points per series and can
resample them onto a regular grid — which is exactly what the paper's
"pods over time" and "task latency over time" plots need.
"""

from __future__ import annotations

import bisect
import threading
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class Timeline:
    """Multi-series append-only time series store."""

    def __init__(self):
        self._lock = threading.Lock()
        self._series: dict[str, tuple[list[float], list[float]]] = {}

    def record(self, series: str, time: float, value: float) -> None:
        with self._lock:
            times, values = self._series.setdefault(series, ([], []))
            if times and time < times[-1]:
                # keep sorted under out-of-order arrival (threads race)
                idx = bisect.bisect_right(times, time)
                times.insert(idx, time)
                values.insert(idx, value)
            else:
                times.append(time)
                values.append(value)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The raw (times, values) arrays for one series."""
        import numpy as np  # on first use: a deployment records, a bench reads

        with self._lock:
            times, values = self._series.get(name, ([], []))
            return np.asarray(times, dtype=float), np.asarray(values, dtype=float)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(t) for t, _ in self._series.values())

    # -- derived views ------------------------------------------------------
    def step_resample(self, name: str, grid: Iterable[float]) -> np.ndarray:
        """Sample-and-hold resampling onto ``grid`` (for count series).

        The value at grid point g is the most recent recorded value at or
        before g (0 before the first record) — the natural view for "number
        of active pods" style series.
        """
        import numpy as np

        times, values = self.series(name)
        grid_arr = np.asarray(list(grid), dtype=float)
        if times.size == 0:
            return np.zeros_like(grid_arr)
        idx = np.searchsorted(times, grid_arr, side="right") - 1
        out = np.where(idx >= 0, values[np.clip(idx, 0, None)], 0.0)
        return out

    def bin_mean(self, name: str, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean value per time bin (for latency-over-time plots)."""
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        import numpy as np

        times, values = self.series(name)
        if times.size == 0:
            return np.array([]), np.array([])
        bins = np.floor(times / bin_width).astype(int)
        unique_bins = np.unique(bins)
        centers = (unique_bins + 0.5) * bin_width
        means = np.array([values[bins == b].mean() for b in unique_bins])
        return centers, means

    def max_over(self, name: str) -> float:
        _, values = self.series(name)
        if values.size == 0:
            raise ValueError(f"series {name!r} is empty")
        return float(values.max())

    def rate_of_events(self, name: str, window: float) -> float:
        """Events per second over the last ``window`` seconds of the series."""
        times, _ = self.series(name)
        if times.size == 0 or window <= 0:
            return 0.0
        horizon = times[-1] - window
        return float((times >= horizon).sum() / window)
