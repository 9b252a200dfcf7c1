# module: fixtures.blocking_condition
# Known-good corpus for blocking-under-lock over conditions: a wait on
# ``threading.Condition(self._lock)`` while holding only ``self._lock``
# releases it for the wait, whatever the condition's own name.
import threading


class Inbox:
    def __init__(self):
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        self._items = []

    def recv(self, timeout):
        with self._lock:
            while not self._items:
                if not self._arrival.wait(timeout):
                    return None
            return self._items.pop()

    def put(self, item):
        with self._lock:
            self._items.append(item)
            self._arrival.notify_all()
