"""Thread-safe key-value store with hashsets and TTL (Redis substitute).

Time is injectable: every mutating/reading operation takes its timestamp
from a ``clock`` callable so the same store runs under both the wall clock
(live fabric) and the simulation clock (DES fabric).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator


class KVStore:
    """A minimal Redis-like store: string keys, hashsets, TTL, purge.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time in seconds.
        Defaults to :func:`time.monotonic`.

    Notes
    -----
    The service keeps registered function bodies here.  Task records and
    their results live on the shard tables, which run the paper's purge
    of retrieved results (section 4.1) themselves — see
    :meth:`repro.core.shard.ServiceShard.sweep`; :meth:`purge_expired`
    is this store's own TTL sweep, also invoked lazily on reads.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.RLock()
        self._data: dict[str, Any] = {}
        self._hashes: dict[str, dict[str, Any]] = {}
        self._expiry: dict[str, float] = {}

    # -- plain keys --------------------------------------------------------
    def set(self, key: str, value: Any, ttl: float | None = None) -> None:
        """Store ``value`` under ``key``, optionally expiring after ``ttl`` s."""
        with self._lock:
            self._data[key] = value
            if ttl is not None:
                self._expiry[key] = self._clock() + ttl
            else:
                self._expiry.pop(key, None)

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            if self._is_expired(key):
                self._evict(key)
                return default
            return self._data.get(key, default)

    def delete(self, key: str) -> bool:
        """Remove ``key`` (plain or hash); return whether anything was removed."""
        with self._lock:
            existed = key in self._data or key in self._hashes
            self._evict(key)
            return existed

    def exists(self, key: str) -> bool:
        with self._lock:
            if self._is_expired(key):
                self._evict(key)
                return False
            return key in self._data or key in self._hashes

    def keys(self, prefix: str = "") -> list[str]:
        """All live keys starting with ``prefix`` (plain and hash keys)."""
        with self._lock:
            self.purge_expired()
            found = [k for k in self._data if k.startswith(prefix)]
            found.extend(k for k in self._hashes if k.startswith(prefix))
            return sorted(set(found))

    def incr(self, key: str, amount: int = 1) -> int:
        """Atomically increment an integer counter, creating it at zero."""
        with self._lock:
            if self._is_expired(key):
                self._evict(key)
            value = int(self._data.get(key, 0)) + amount
            self._data[key] = value
            return value

    # -- hashsets ------------------------------------------------------------
    def hset(self, key: str, field: str, value: Any) -> None:
        with self._lock:
            if self._is_expired(key):
                self._evict(key)
            self._hashes.setdefault(key, {})[field] = value

    def hget(self, key: str, field: str, default: Any = None) -> Any:
        with self._lock:
            if self._is_expired(key):
                self._evict(key)
                return default
            return self._hashes.get(key, {}).get(field, default)

    def hgetall(self, key: str) -> dict[str, Any]:
        with self._lock:
            if self._is_expired(key):
                self._evict(key)
                return {}
            return dict(self._hashes.get(key, {}))

    def hdel(self, key: str, field: str) -> bool:
        with self._lock:
            table = self._hashes.get(key)
            if table is None or field not in table:
                return False
            del table[field]
            if not table:
                del self._hashes[key]
            return True

    def hlen(self, key: str) -> int:
        with self._lock:
            return len(self._hashes.get(key, {}))

    # -- expiry ---------------------------------------------------------------
    def expire(self, key: str, ttl: float) -> None:
        """Set/replace the TTL on an existing key."""
        with self._lock:
            if key in self._data or key in self._hashes:
                self._expiry[key] = self._clock() + ttl

    def ttl(self, key: str) -> float | None:
        """Remaining lifetime in seconds, or ``None`` if no TTL is set."""
        with self._lock:
            deadline = self._expiry.get(key)
            if deadline is None:
                return None
            return max(0.0, deadline - self._clock())

    def purge_expired(self) -> int:
        """Evict every expired key; returns the number evicted."""
        with self._lock:
            now = self._clock()
            dead = [k for k, deadline in self._expiry.items() if deadline <= now]
            for key in dead:
                self._evict(key)
            return len(dead)

    # -- internals -------------------------------------------------------------
    def _is_expired(self, key: str) -> bool:
        deadline = self._expiry.get(key)
        return deadline is not None and deadline <= self._clock()

    def _evict(self, key: str) -> None:
        self._data.pop(key, None)
        self._hashes.pop(key, None)
        self._expiry.pop(key, None)

    # -- introspection ----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            self.purge_expired()
            return len(set(self._data) | set(self._hashes))

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def memory_footprint(self) -> int:
        """Rough payload byte count (used by the service's cost accounting)."""
        import sys

        with self._lock:
            total = 0
            for value in self._data.values():
                total += len(value) if isinstance(value, (bytes, str)) else sys.getsizeof(value)
            for table in self._hashes.values():
                for value in table.values():
                    total += len(value) if isinstance(value, (bytes, str)) else sys.getsizeof(value)
            return total
