"""Result memoization (paper section 4.7, table 3).

"Memoization involves returning a cached result when the input document
and function body have been processed previously.  funcX supports
memoization by hashing the function body and input document and storing a
mapping from hash to computed results.  Memoization is only used if
explicitly set by the user."
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro.observability.events import EventSpine


class Memoizer:
    """Hash-addressed result cache with LRU eviction.

    Keys are ``sha256(function_buffer || payload_buffer)`` so two tasks hit
    the same entry only when *both* the function body and the serialized
    inputs are byte-identical — the paper's definition of a repeated
    deterministic invocation.

    Parameters
    ----------
    capacity:
        Maximum retained entries; least-recently-used entries evict first.
    events:
        The deployment's event spine: ``memo.store`` and ``memo.hit``
        carry the cache key and a digest of the result buffer, emitted
        under the lock, so a checker can verify a hit never returns bytes
        stored under a different (function, payload) hash.
    """

    def __init__(self, capacity: int = 100_000,
                 events: EventSpine | None = None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events = events
        self._lock = threading.Lock()
        self._cache: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(function_buffer: bytes, payload_buffer: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(function_buffer)
        digest.update(b"\x00")
        digest.update(payload_buffer)
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def lookup(self, function_buffer: bytes, payload_buffer: bytes) -> bytes | None:
        """The cached result buffer, or ``None`` on a miss."""
        k = self.key(function_buffer, payload_buffer)
        with self._lock:
            result = self._cache.get(k)
            if result is None:
                self.misses += 1
                return None
            self._cache.move_to_end(k)
            self.hits += 1
            if self._events:
                self._events.emit("memoizer", "memo.hit", {
                    "key": k, "result_sha": hashlib.sha256(result).hexdigest()})
            return result

    def store(self, function_buffer: bytes, payload_buffer: bytes, result_buffer: bytes) -> None:
        """Record a successful result (failures are never memoized)."""
        k = self.key(function_buffer, payload_buffer)
        with self._lock:
            self._cache[k] = result_buffer
            self._cache.move_to_end(k)
            if self._events:
                self._events.emit("memoizer", "memo.store", {
                    "key": k, "result_sha": hashlib.sha256(result_buffer).hexdigest()})
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)

    def invalidate_function(self, function_buffer: bytes) -> None:
        """Drop every entry for a function body (called on re-registration).

        The key interleaves function and payload hashes, so we cannot
        address by function alone; we conservatively clear the cache.  A
        production system would keep a per-function index; the paper does
        not describe updates interacting with memoization at all.
        """
        with self._lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
