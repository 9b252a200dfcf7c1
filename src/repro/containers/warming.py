"""Container warming policy (paper section 4.7).

"Function containers are kept warm by leaving them running for a short
period of time (5-10 minutes) following the execution of a function."

:class:`WarmPool` is the time-agnostic policy object shared by the live
and simulated fabrics: it tracks warm instances per container key, hands
them out on acquire, and expires them after the warm TTL.
"""

from __future__ import annotations

from collections import defaultdict

from repro.containers.runtime import ContainerInstance


class WarmPool:
    """Pool of warm container instances with TTL-based expiry.

    Parameters
    ----------
    ttl:
        Seconds a container stays warm after release.  The paper cites
        5–10 minutes; the default is 300 s.  ``0`` disables warming (every
        acquire is a cold start), which is the ablation baseline.
    capacity:
        Maximum warm instances retained per container key (a node cannot
        keep unbounded containers resident).
    """

    def __init__(self, ttl: float = 300.0, capacity: int = 64):
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.ttl = ttl
        self.capacity = capacity
        self._warm: dict[str, list[ContainerInstance]] = defaultdict(list)
        # A pool belongs to one manager; only its loop thread acquires
        # and releases instances once the manager has started.
        self.hits = 0  # thread-confined: manager-loop
        self.misses = 0  # thread-confined: manager-loop
        self.expired = 0  # thread-confined: manager-loop

    # ------------------------------------------------------------------
    def acquire(self, key: str, now: float) -> ContainerInstance | None:
        """Take a warm instance for ``key``, or ``None`` (cold start needed).

        The most recently released instance is preferred (LIFO) so the
        pool's working set stays small and older instances age out.
        """
        self.evict_expired(now)
        pool = self._warm.get(key)
        if not pool:
            self.misses += 1
            return None
        instance = pool.pop()
        instance.warm_since = None
        self.hits += 1
        return instance

    def release(self, instance: ContainerInstance, now: float) -> bool:
        """Return an instance to the pool; returns False if not retained."""
        if self.ttl == 0:
            return False
        pool = self._warm[instance.key]
        if len(pool) >= self.capacity:
            return False
        instance.warm_since = now
        pool.append(instance)
        return True

    # ------------------------------------------------------------------
    def evict_expired(self, now: float) -> int:
        """Drop instances warm for longer than the TTL; returns count."""
        evicted = 0
        for key, pool in list(self._warm.items()):
            kept = [
                inst
                for inst in pool
                if inst.warm_since is not None and (now - inst.warm_since) <= self.ttl
            ]
            evicted += len(pool) - len(kept)
            if kept:
                self._warm[key] = kept
            else:
                del self._warm[key]
        self.expired += evicted
        return evicted

    def warm_count(self, key: str | None = None) -> int:
        if key is not None:
            return len(self._warm.get(key, ()))
        return sum(len(pool) for pool in self._warm.values())

    def warm_keys(self) -> tuple[str, ...]:
        """Container keys with at least one warm instance (advertised
        by managers to the agent scheduler); safe beside an eviction."""
        return tuple(sorted(k for k, pool in list(self._warm.items()) if pool))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> int:
        count = self.warm_count()
        self._warm.clear()
        return count
