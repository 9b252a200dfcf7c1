"""Topic-based publish/subscribe.

Nothing in the fabric publishes here any more: a deployment's monitors
subscribe to its event spine (``FuncXService.events``, see
:mod:`repro.observability.events`), and waiting for *one* task is a
waiter on the task's record (``ServiceShard.when_terminal``).  The class
is kept only for the benchmark's ``pubsub.publish_us`` drive, until the
benchmark-only change that retires that drive (ROADMAP item 5(a)).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Callable

Subscriber = Callable[[str, Any], None]


class PubSub:
    """Synchronous exact-topic fan-out.

    Subscribers are invoked on the publisher's thread; they must be cheap
    and must not raise (exceptions are collected per-subscriber rather than
    propagated, so one bad monitor cannot take down dispatch).
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._exact: dict[str, list[tuple[int, Subscriber]]] = defaultdict(list)
        self._next_token = 1
        self.delivery_errors: list[tuple[str, Exception]] = []

    def subscribe(self, topic: str, callback: Subscriber) -> int:
        """Subscribe to an exact topic; returns an unsubscribe token."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._exact[topic].append((token, callback))
            return token

    def unsubscribe(self, token: int) -> bool:
        with self._lock:
            for topic, subs in list(self._exact.items()):
                remaining = [(t, cb) for (t, cb) in subs if t != token]
                if len(remaining) != len(subs):
                    if remaining:
                        self._exact[topic] = remaining
                    else:
                        del self._exact[topic]
                    return True
            return False

    def publish(self, topic: str, message: Any) -> int:
        """Deliver ``message`` to the topic's subscribers; returns count."""
        with self._lock:
            targets = list(self._exact.get(topic, ()))
        delivered = 0
        for _token, callback in targets:
            try:
                callback(topic, message)
                delivered += 1
            except Exception as exc:  # isolate bad monitors
                self.delivery_errors.append((topic, exc))
        return delivered

    def subscriber_count(self, topic: str) -> int:
        with self._lock:
            return len(self._exact.get(topic, ()))
