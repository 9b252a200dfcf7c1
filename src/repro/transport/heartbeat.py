"""Heartbeat bookkeeping shared by forwarders, agents and watchdogs.

funcX detects failures at every level with periodic heartbeats: the
forwarder detects lost agents, and the agent's watchdog detects lost
managers (paper sections 4.1, 4.3).  :class:`HeartbeatTracker` is the
time-agnostic policy object both fabrics share: callers feed it beats and
ask which components have exceeded the grace period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class _BeatRecord:
    first_seen: float
    last_seen: float
    beats: int


class HeartbeatTracker:
    """Track component liveness from heartbeat arrival times.

    Parameters
    ----------
    period:
        Expected interval between heartbeats, seconds.
    grace_periods:
        How many missed periods before a component is declared lost.
    clock:
        Injectable time source (monotonic or simulation clock).
    """

    def __init__(
        self,
        period: float = 1.0,
        grace_periods: int = 3,
        clock: Callable[[], float] | None = None,
    ):
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        if grace_periods < 1:
            raise ValueError("grace_periods must be >= 1")
        import time as _time

        self.period = period
        self.grace_periods = grace_periods
        self._clock = clock or _time.monotonic  # clock-domain: monotonic
        self._records: dict[str, _BeatRecord] = {}

    # ------------------------------------------------------------------
    def beat(self, component: str, timestamp: float | None = None) -> None:
        """Record a heartbeat from ``component``."""
        now = self._clock() if timestamp is None else timestamp
        record = self._records.get(component)
        if record is None:
            self._records[component] = _BeatRecord(first_seen=now, last_seen=now, beats=1)
        else:
            record.last_seen = max(record.last_seen, now)
            record.beats += 1

    def forget(self, component: str) -> bool:
        """Stop tracking ``component`` (clean deregistration)."""
        return self._records.pop(component, None) is not None

    # ------------------------------------------------------------------
    @property
    def deadline(self) -> float:
        """Silence longer than this marks a component lost."""
        return self.period * self.grace_periods

    def is_alive(self, component: str) -> bool:
        record = self._records.get(component)
        if record is None:
            return False
        return (self._clock() - record.last_seen) <= self.deadline

    def last_seen(self, component: str) -> float | None:
        record = self._records.get(component)
        return None if record is None else record.last_seen

    # Scans iterate an atomic copy: other threads ``forget`` (scale-in)
    # while the owner's loop scans, and a live dict iterator would raise.
    def lost_components(self) -> list[str]:
        """Every tracked component that exceeded the grace period."""
        now = self._clock()
        return sorted(
            name
            for name, record in list(self._records.items())
            if (now - record.last_seen) > self.deadline
        )

    def alive_components(self) -> list[str]:
        now = self._clock()
        return sorted(
            name
            for name, record in list(self._records.items())
            if (now - record.last_seen) <= self.deadline
        )

    def oldest_beat(self, default: float) -> float:
        """The earliest ``last_seen`` tracked (``default`` if none): no
        component is lost while ``now - oldest_beat <= deadline``."""
        return min((record.last_seen for record in list(self._records.values())),
                   default=default)

    def tracked(self) -> list[str]:
        return sorted(self._records)

    def beat_count(self, component: str) -> int:
        record = self._records.get(component)
        return 0 if record is None else record.beats
