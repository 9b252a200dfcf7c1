# module: fixtures.blocking_condition
# Known-bad corpus for blocking-under-lock over conditions: a wait on a
# condition releases only the lock it was built over, so a wait while
# holding any other lock still blocks under that lock.
import threading


class Inbox:
    def __init__(self):
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        self._drained = threading.Condition(self._stats_lock)
        self._items = []

    def recv_under_stats(self):
        with self._stats_lock:
            with self._lock:
                while not self._items:
                    self._arrival.wait()  # EXPECT: blocking-under-lock
                return self._items.pop()

    def wait_on_the_other_condition(self):
        with self._lock:
            self._drained.wait(0.1)  # EXPECT: blocking-under-lock
