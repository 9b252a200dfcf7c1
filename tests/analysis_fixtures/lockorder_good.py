# module: fixtures.lockorder
# Known-good corpus for the lock-order check: every code path holds one
# lock at a time.  It snapshots what it needs under the first lock,
# releases it, then takes the second; re-entering the same RLock is
# not a nesting.
import threading


class Outer:
    def __init__(self, inner: Inner):
        self._lock = threading.RLock()
        self.inner = inner
        self.seen = 0

    def flat(self):
        with self._lock:
            self.seen += 1
        with self.inner._pool_lock:
            return self.inner.size

    def call_out(self):
        with self._lock:
            seen = self.seen
        self.inner.grow()
        return seen

    def reentrant(self):
        with self._lock:
            with self._lock:  # same lock: RLock re-entry, not an edge
                return True


class Inner:
    def __init__(self):
        self._pool_lock = threading.Lock()
        self.size = 0

    def grow(self):
        with self._pool_lock:
            self.size += 1
