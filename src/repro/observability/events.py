"""The event spine: one subscribe point per deployment.

Components emit transitions as ``emit(source, kind, fields)`` (the kinds
are tabled in ``docs/OBSERVABILITY.md``); each subscriber is called as
``subscriber(source, kind, fields)`` on the emitting thread, perhaps
under a queue or shard lock, so it must be cheap and must not call back
into the emitter.  A spine belongs to one deployment
(``FuncXService.events``), never to the process.  Emission sites guard
on ``if events:`` — false with no subscriber — so an unobserved fabric
builds no field dict, and the subscriber tuple is replaced on every
change, never mutated, so ``emit`` takes no lock.
"""

from __future__ import annotations

import itertools
import logging
import threading
from typing import Any, Callable

logger = logging.getLogger(__name__)

Subscriber = Callable[[str, str, dict[str, Any]], None]


class EventSpine:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tokens = itertools.count(1)
        self._subscribers: tuple[tuple[int, Subscriber], ...] = ()
        self.subscriber_errors = 0  # guarded-by: self._lock

    def __len__(self) -> int:
        return len(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> int:
        """Deliver every later event to ``subscriber``; returns a token."""
        with self._lock:
            token = next(self._tokens)
            self._subscribers += ((token, subscriber),)
        return token

    def unsubscribe(self, token: int) -> bool:
        """End a subscription; ``False`` when the token is not live."""
        with self._lock:
            kept = tuple(entry for entry in self._subscribers if entry[0] != token)
            removed = len(kept) < len(self._subscribers)
            self._subscribers = kept
        return removed

    def emit(self, source: str, kind: str, fields: dict[str, Any]) -> None:
        """Call every subscriber; one that raises is logged and counted in
        :attr:`subscriber_errors`, never unwound into the emitter."""
        for _token, subscriber in self._subscribers:
            try:
                subscriber(source, kind, fields)
            except Exception:
                with self._lock:
                    self.subscriber_errors += 1
                logger.exception("event subscriber failed on %s from %s", kind, source)
