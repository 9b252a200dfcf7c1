# module: fixtures.lockorder
# Known-bad corpus for the lock-order check: two classes that acquire
# each other's locks in opposite orders — the classic ABBA deadlock.
# Each nesting is its own finding, anchored where the inner lock is taken.
import threading


class Left:
    def __init__(self, right: Right):
        self._lock = threading.Lock()
        self.right = right

    def poke(self):
        with self._lock:
            with self.right._peer_lock:  # EXPECT: lock-order
                return self.right.depth


class Right:
    def __init__(self):
        self._peer_lock = threading.Lock()
        self.left = None
        self.depth = 0

    def attach(self, left: Left):
        self.left = left

    def poke(self):
        with self._peer_lock:
            with self.left._lock:  # EXPECT: lock-order
                self.depth += 1
