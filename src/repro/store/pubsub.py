"""Topic-based publish/subscribe for monitoring streams.

The funcX service exposes task-state monitoring; internally we fan state
transitions out on ``task.<id>`` topics so that clients, the event log,
the usage ledger and test instrumentation can observe the system without
polling the store.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Callable

Subscriber = Callable[[str, Any], None]


class PubSub:
    """Synchronous topic fan-out with prefix subscriptions.

    Subscribers are invoked on the publisher's thread; they must be cheap
    and must not raise (exceptions are collected per-subscriber rather than
    propagated, so one bad monitor cannot take down dispatch).
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._exact: dict[str, list[tuple[int, Subscriber]]] = defaultdict(list)
        self._prefix: dict[str, list[tuple[int, Subscriber]]] = defaultdict(list)
        self._next_token = 1
        self.delivery_errors: list[tuple[str, Exception]] = []

    def subscribe(self, topic: str, callback: Subscriber) -> int:
        """Subscribe to an exact topic; returns an unsubscribe token."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._exact[topic].append((token, callback))
            return token

    def subscribe_prefix(self, prefix: str, callback: Subscriber) -> int:
        """Subscribe to every topic starting with ``prefix``."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._prefix[prefix].append((token, callback))
            return token

    def unsubscribe(self, token: int) -> bool:
        with self._lock:
            for table in (self._exact, self._prefix):
                for topic, subs in list(table.items()):
                    remaining = [(t, cb) for (t, cb) in subs if t != token]
                    if len(remaining) != len(subs):
                        if remaining:
                            table[topic] = remaining
                        else:
                            del table[topic]
                        return True
            return False

    def publish(self, topic: str, message: Any) -> int:
        """Deliver ``message`` to all matching subscribers; returns count."""
        with self._lock:
            targets = list(self._exact.get(topic, ()))
            for prefix, subs in self._prefix.items():
                if topic.startswith(prefix):
                    targets.extend(subs)
        delivered = 0
        for _token, callback in targets:
            try:
                callback(topic, message)
                delivered += 1
            except Exception as exc:  # isolate bad monitors
                self.delivery_errors.append((topic, exc))
        return delivered

    def live_subscriptions(self) -> int:
        """Total live subscription tokens across all topics.

        Leak regression checks compare this before/after an operation
        that should be subscription-neutral (e.g. memo-hit submits).
        """
        with self._lock:
            return sum(len(subs) for subs in self._exact.values()) + sum(
                len(subs) for subs in self._prefix.values()
            )

    def subscriber_count(self, topic: str) -> int:
        with self._lock:
            count = len(self._exact.get(topic, ()))
            count += sum(
                len(subs) for prefix, subs in self._prefix.items() if topic.startswith(prefix)
            )
            return count
