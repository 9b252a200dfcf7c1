"""Adaptive wave sizing for the forwarder's dispatch (the funcX
batching analysis, §5.5.2).

:class:`WavePolicy` is a Nagle-style hold-down for the forwarder's
dispatch waves.  On a serial link a transfer occupies the wire for
``transfer_cost`` seconds regardless of batch size, so dispatching a
lone task the instant it arrives costs the same link time as a full
wave.  The policy holds a wave up to ``T = min(hold_cap,
hold_scale × transfer_cost)`` seconds or until ``N_fill =
clamp(ceil(λ̂·T), 1, budget)`` tasks accumulate, where ``λ̂`` is an
EWMA of the observed arrival rate.  With ``transfer_cost == 0`` the
hold collapses to zero and dispatch is immediate — zero-latency
deployments see no behavior change.

The wave's budget is the forwarder's credit *window* (the sum of the
managers' advertised windows, carried upstream on the agent's
heartbeats) less its own open-lease table, so enforcement is local and
race-free: a lost or reordered heartbeat can only make the forwarder
temporarily more conservative, never overshoot.  A manager's own
capacity is its idle-worker set (:mod:`repro.endpoint.manager`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class WaveDecision:
    """Outcome of one :meth:`WavePolicy.decide` evaluation.

    ``size`` tasks should be leased and dispatched now (0 = nothing).
    When ``size == 0`` and ``hold_until`` is set, the caller should
    schedule a wakeup for that instant (``Wakeup.set_at``) and retry —
    the wave is being held to fill.  ``held_for`` reports how long a
    dispatching wave was held (0 for immediate dispatch).
    """

    size: int
    hold_until: float | None = None
    held_for: float = 0.0


class WavePolicy:
    """Adaptive Nagle policy for dispatch-wave sizing.

    Single-consumer: ``decide`` is only ever called from the owning
    dispatch loop, so the policy keeps plain (unlocked) state.

    Parameters
    ----------
    link_cost:
        Callable returning the link's current per-transfer occupancy
        (the serial-link ``transfer_cost``); 0 disables holding.
    hold_scale:
        Hold budget as a multiple of the transfer cost.  Holding longer
        than a few transfer times cannot be amortized away, so the
        default caps the added latency at ~4 transfer costs.
    hold_cap:
        Absolute ceiling on any hold (seconds) — the liveness bound.
    rate_alpha:
        EWMA smoothing factor for the observed arrival rate.
    """

    def __init__(
        self,
        link_cost: Callable[[], float],
        hold_scale: float = 4.0,
        hold_cap: float = 0.005,
        rate_alpha: float = 0.3,
    ):
        if hold_scale < 0 or hold_cap < 0:
            raise ValueError("hold parameters must be non-negative")
        if not 0.0 < rate_alpha <= 1.0:
            raise ValueError("rate_alpha must be in (0, 1]")
        self._link_cost = link_cost
        self.hold_scale = hold_scale
        self.hold_cap = hold_cap
        self.rate_alpha = rate_alpha
        self._rate = 0.0                 # EWMA arrivals/second
        self._last_enqueued: int | None = None
        self._last_observed_at: float | None = None
        self._hold_started_at: float | None = None

    def hold_budget(self) -> float:
        """Current hold ceiling T = min(hold_cap, hold_scale × cost)."""
        cost = max(0.0, float(self._link_cost()))
        return min(self.hold_cap, self.hold_scale * cost)

    def _observe(self, enqueued_total: int, now: float) -> None:
        """Fold the enqueue-counter delta into the EWMA arrival rate."""
        if self._last_enqueued is None or self._last_observed_at is None:
            self._last_enqueued = enqueued_total
            self._last_observed_at = now
            return
        elapsed = now - self._last_observed_at
        if elapsed <= 0:
            return
        arrived = max(0, enqueued_total - self._last_enqueued)
        sample = arrived / elapsed
        self._rate += self.rate_alpha * (sample - self._rate)
        self._last_enqueued = enqueued_total
        self._last_observed_at = now

    def decide(self, depth: int, budget: int, enqueued_total: int,
               now: float) -> WaveDecision:
        """Size the next wave, or hold it to fill.

        ``depth`` is the ready-queue depth, ``budget`` the dispatch cap
        (credit window remainder ∧ per-step bound), ``enqueued_total``
        the queue's monotone enqueue counter (arrival-rate observation).

        Liveness: any hold is bounded by :meth:`hold_budget` (itself
        capped by ``hold_cap``); a zero budget never starts a hold, so a
        stalled consumer cannot park the policy — dispatch resumes the
        moment credit returns.
        """
        self._observe(enqueued_total, now)
        if depth <= 0 or budget <= 0:
            self._hold_started_at = None
            return WaveDecision(size=0)
        hold = self.hold_budget()
        wave = min(depth, budget)
        if hold <= 0.0:
            self._hold_started_at = None
            return WaveDecision(size=wave)
        fill = min(budget, max(1, math.ceil(self._rate * hold)))
        if depth >= fill:
            held = (now - self._hold_started_at
                    if self._hold_started_at is not None else 0.0)
            self._hold_started_at = None
            return WaveDecision(size=wave, held_for=max(0.0, held))
        if self._hold_started_at is None:
            self._hold_started_at = now
        deadline = self._hold_started_at + hold
        if now >= deadline:
            held = now - self._hold_started_at
            self._hold_started_at = None
            return WaveDecision(size=wave, held_for=max(0.0, held))
        return WaveDecision(size=0, hold_until=deadline)
