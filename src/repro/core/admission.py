"""Per-tenant admission control for the service facade.

The funcX SDK throttles itself client-side (``ThrottledBaseClient``:
a token bucket over outbound calls).  A multi-tenant hosted service
cannot rely on polite clients, so the same shape is enforced
server-side, in front of the sharded service plane:

* **Token-bucket rate limiting** — each tenant sustains ``rate``
  submissions/s with bursts up to ``burst``; beyond that, submissions
  fail fast with :class:`~repro.errors.ThrottleExceeded` (the REST
  facade maps it to 429) instead of queueing unboundedly.
* **Max-outstanding quota** — a cap on a tenant's open (non-terminal)
  tasks across the whole service, bounding the memory/queue share any
  one tenant can pin.
* **DRR weights** — the per-endpoint task queues dequeue fairly across
  tenant lanes (see :class:`~repro.store.queues.FairReliableQueue`);
  the weight each lane earns per round comes from the tenant's policy
  here.

The default policy is unlimited, so a deployment without configured
tenants behaves exactly as before; ``strict=True`` flips the default to
reject-unknown (:class:`~repro.errors.UnknownTenant`).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ThrottleExceeded, UnknownTenant


@dataclass(frozen=True)
class TenantPolicy:
    """Admission limits for one tenant (identity).

    ``rate`` is the sustained submission allowance in tasks/s and
    ``burst`` the bucket capacity; ``max_outstanding`` caps open tasks
    (``None`` = unlimited); ``weight`` scales the tenant's DRR share of
    dispatch slots on contended endpoint queues.
    """

    rate: float = math.inf
    burst: float = math.inf
    max_outstanding: int | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


class _Bucket:
    """Lazily-refilled token bucket plus the tenant's outstanding count."""

    __slots__ = ("tokens", "refilled_at", "outstanding")

    def __init__(self, tokens: float, refilled_at: float):
        self.tokens = tokens
        self.refilled_at = refilled_at
        self.outstanding = 0


class AdmissionController:
    """Gate in front of ``FuncXService.submit`` / ``submit_batch``.

    Thread-safe: the facade calls :meth:`admit` from client threads and
    :meth:`release` from forwarder/stream delivery threads as tasks
    reach terminal states.
    """

    # admit()/release() race from *multiple* REST/client threads that
    # all classify as role "main"; the lock is load-bearing even though
    # role inference sees a single role.
    _GUARDED = {
        "_policies": "_lock",  # lint: ignore[threadroles]
        "_buckets": "_lock",  # lint: ignore[threadroles]
    }

    def __init__(
        self,
        policies: dict[str, TenantPolicy] | None = None,
        default: TenantPolicy | None = None,
        strict: bool = False,
        clock: Callable[[], float] | None = None,
    ):
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.Lock()
        self._policies: dict[str, TenantPolicy] = dict(policies or {})
        self._default = default or TenantPolicy()
        self._strict = strict
        self._buckets: dict[str, _Bucket] = {}
        self.metrics: Any | None = None  # MetricsRegistry, wired by the service
        # tenant -> (tenant.admitted, tenant.outstanding), bound on first
        # use; a racing first use binds the same pair twice, harmlessly.
        self._instruments: dict[str, tuple[Any, Any]] = {}

    # -- policy management ---------------------------------------------------
    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        with self._lock:
            self._policies[tenant] = policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The tenant's policy; raises :class:`UnknownTenant` in strict mode."""
        with self._lock:
            policy = self._policies.get(tenant)
        if policy is None:
            if self._strict:
                raise UnknownTenant(tenant)
            return self._default
        return policy

    def weight_for(self, tenant: str) -> float:
        """DRR lane weight; never raises (queues must not throw on dequeue)."""
        with self._lock:
            policy = self._policies.get(tenant)
        return (policy or self._default).weight

    # -- admission -----------------------------------------------------------
    def admit(self, tenant: str, count: int = 1) -> None:
        """Charge ``count`` submissions to ``tenant`` or raise.

        All-or-nothing: a batch either fits the bucket and quota entirely
        or is rejected without consuming anything (so a rejected batch
        does not degrade the tenant's later allowance).
        """
        policy = self.policy_for(tenant)  # raises UnknownTenant in strict mode
        with self._lock:
            bucket = self._refill(tenant, policy)
            if (
                policy.max_outstanding is not None
                and bucket.outstanding + count > policy.max_outstanding
            ):
                self._count_throttle(tenant, "quota")
                raise ThrottleExceeded(
                    tenant,
                    f"max-outstanding quota reached "
                    f"({bucket.outstanding}/{policy.max_outstanding} open)",
                )
            if bucket.tokens < count:
                retry_after = (
                    (count - bucket.tokens) / policy.rate
                    if math.isfinite(policy.rate)
                    else 0.0
                )
                self._count_throttle(tenant, "rate")
                raise ThrottleExceeded(
                    tenant, "submission rate limit exceeded", retry_after=retry_after
                )
            if math.isfinite(bucket.tokens):
                bucket.tokens -= count
            bucket.outstanding += count
            outstanding = bucket.outstanding
        instruments = self._tenant_instruments(tenant)
        if instruments is not None:
            instruments[0].inc(count)
            instruments[1].set(outstanding)

    def release(self, tenant: str, count: int = 1) -> None:
        """Return quota as the tenant's tasks reach terminal states."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                return
            bucket.outstanding = max(0, bucket.outstanding - count)
            outstanding = bucket.outstanding
        instruments = self._tenant_instruments(tenant)
        if instruments is not None:
            instruments[1].set(outstanding)

    def outstanding(self, tenant: str) -> int:
        with self._lock:
            bucket = self._buckets.get(tenant)
            return bucket.outstanding if bucket is not None else 0

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-tenant admission state (diagnostics)."""
        with self._lock:
            return {
                tenant: {
                    "tokens": bucket.tokens,
                    "outstanding": bucket.outstanding,
                }
                for tenant, bucket in self._buckets.items()
            }

    # -- internals -----------------------------------------------------------
    def _tenant_instruments(self, tenant: str) -> tuple[Any, Any] | None:
        """The tenant's ``(admitted counter, outstanding gauge)``."""
        instruments = self._instruments.get(tenant)
        if instruments is None and self.metrics is not None:
            instruments = self._instruments[tenant] = (
                self.metrics.counter("tenant.admitted", tenant=tenant),
                self.metrics.gauge("tenant.outstanding", tenant=tenant))
        return instruments

    def _refill(self, tenant: str, policy: TenantPolicy) -> _Bucket:  # guarded-by: self._lock
        now = self._clock()
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = _Bucket(policy.burst, now)
            return bucket
        if math.isfinite(policy.rate) and math.isfinite(policy.burst):
            elapsed = max(0.0, now - bucket.refilled_at)
            bucket.tokens = min(policy.burst, bucket.tokens + elapsed * policy.rate)
        else:
            bucket.tokens = policy.burst
        bucket.refilled_at = now
        return bucket

    def _count_throttle(self, tenant: str, reason: str) -> None:  # guarded-by: self._lock
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("tenant.throttled", tenant=tenant, reason=reason).inc()
