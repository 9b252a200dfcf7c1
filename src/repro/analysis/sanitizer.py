"""Runtime twins of the static lock-order, protocol and thread-role passes.

Each static pass sees every *lexical* site; its twin observes what a
live fabric *actually* does, in the vocabulary the static side exports.
All three sit behind one interface, :class:`RuntimeRecorder`:
thread-safe event counts, one ``sanitizer.*`` metric, and the
acceptance gate ``recorder.escapes(sources) == []`` (runtime ⊆ static)
the chaos suite asserts.  The ``sanitize_*`` functions are the
instrumentation points.  Opt in with
``LocalDeployment(sanitize_locks=True)`` or
``ChaosWorld(..., sanitize_locks=True)``; see docs/CHAOS.md.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.lockorder import extract_lock_graph
from repro.analysis.protocols import protocol_sites
from repro.analysis.source import SourceFile
from repro.analysis.threadroles import build_role_report, role_for_thread
from repro.metrics.registry import MetricsRegistry

#: A lock held longer than this is reported as a hold-time outlier.
HOLD_OUTLIER_SECONDS = 0.25
#: Wait longer than this counts as contention (a free lock acquires in
#: nanoseconds; anything visible means another thread held it).
CONTENTION_WAIT_SECONDS = 0.001


class RuntimeRecorder:
    """What the three twins share: event counts keyed in the static
    pass's vocabulary, one metrics counter, and the acceptance gate."""

    #: name of the ``sanitizer.*`` counter every recorded event bumps
    counter_name = ""

    def __init__(self, metrics=None) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._mutex = threading.Lock()   # guards every table of a recorder
        self._events: Dict[tuple, int] = {}
        self._c_events = self._metrics.counter(self.counter_name)

    def record(self, key: tuple, amount: int = 1) -> None:
        if amount <= 0:
            return
        with self._mutex:
            self._events[key] = self._events.get(key, 0) + amount
        self._c_events.inc(amount)

    def events(self) -> Dict[tuple, int]:
        with self._mutex:
            return dict(sorted(self._events.items()))

    def observed(self) -> set:
        """The distinct runtime facts, in the static vocabulary."""
        raise NotImplementedError

    def static(self, sources: Sequence[SourceFile]) -> set:
        """The same facts as the static pass derives them."""
        raise NotImplementedError

    def escapes(self, sources: Sequence[SourceFile]) -> list:
        """Runtime facts the static pass over ``sources`` does not know;
        the acceptance gate is ``escapes(sources) == []``."""
        return sorted(self.observed() - self.static(sources))


@dataclass(frozen=True)
class HoldOutlier:
    lock: str
    seconds: float
    thread: str


class LockOrderRecorder(RuntimeRecorder):
    """The dynamic half of the lock-order check, fed by
    :class:`SanitizedLock`.

    Keeps a per-thread acquisition stack and counts one edge event per
    lock acquired while another is held, keyed ``(held, acquired)`` in
    the ``ClassName.attr`` vocabulary of the static graph.  Re-entering
    the same lock is not an edge; nesting two *instances* of one class
    is, and since the static side drops self-edges, it always escapes.
    Also flags lock-hold-time outliers and exports acquisition and
    contention counters and wait/hold histograms.
    """

    counter_name = "sanitizer.lock_acquisitions"

    def __init__(self, metrics=None, clock=None) -> None:
        super().__init__(metrics)
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._tls = threading.local()
        self.outliers: List[HoldOutlier] = []
        self.acquisitions = 0
        self._c_contended = self._metrics.counter("sanitizer.lock_contention")
        self._c_outliers = self._metrics.counter("sanitizer.lock_hold_outliers")
        self._h_wait = self._metrics.histogram("sanitizer.lock_wait_seconds")
        self._h_hold = self._metrics.histogram("sanitizer.lock_hold_seconds")

    def _stack(self) -> List[Tuple["SanitizedLock", float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- events ---------------------------------------------------------------
    def on_acquired(self, lock: "SanitizedLock", waited: float) -> None:
        stack = self._stack()
        with self._mutex:
            self.acquisitions += 1
            for held, _t0 in stack:
                if held is not lock:  # RLock re-entry: not an order edge
                    key = (held.class_name, lock.class_name)
                    self._events[key] = self._events.get(key, 0) + 1
        stack.append((lock, self._clock()))
        self._c_events.inc()
        self._h_wait.observe(waited)
        if waited >= CONTENTION_WAIT_SECONDS:
            self._c_contended.inc()

    def on_released(self, lock: "SanitizedLock") -> None:
        stack = self._stack()
        acquired_at: Optional[float] = None
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] is lock:
                acquired_at = stack[i][1]
                del stack[i]
                break
        if acquired_at is None:
            return
        held_for = self._clock() - acquired_at
        self._h_hold.observe(held_for)
        if held_for >= HOLD_OUTLIER_SECONDS:
            outlier = HoldOutlier(lock=lock.class_name, seconds=held_for,
                                  thread=threading.current_thread().name)
            with self._mutex:
                self.outliers.append(outlier)
            self._c_outliers.inc()

    # -- views ----------------------------------------------------------------
    def observed(self) -> set:
        """The distinct ``(held, acquired)`` edges seen at runtime."""
        return set(self.events())

    def static(self, sources: Sequence[SourceFile]) -> set:
        return set(extract_lock_graph(sources))


class SanitizedLock:
    """Drop-in wrapper for a Lock/RLock/Condition that reports to a
    :class:`LockOrderRecorder`.

    Proxies the full Condition protocol: ``wait`` releases the lock (the
    wrapper pops it from the held stack for the duration so no spurious
    order edges are recorded against locks acquired by other threads
    while we sleep), ``notify``/``notify_all`` pass straight through.
    """

    def __init__(self, inner, class_name: str,
                 recorder: LockOrderRecorder) -> None:
        self._inner = inner
        self.class_name = class_name
        self._recorder = recorder

    # -- lock protocol --------------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1):
        t0 = self._recorder._clock()
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._recorder.on_acquired(self, self._recorder._clock() - t0)
        return got

    def release(self) -> None:
        self._recorder.on_released(self)
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def locked(self) -> bool:
        locked = getattr(self._inner, "locked", None)
        return locked() if locked is not None else False

    # -- condition protocol ---------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        self._recorder.on_released(self)
        try:
            return self._inner.wait(timeout)
        finally:
            self._recorder.on_acquired(self, 0.0)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        self._recorder.on_released(self)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._recorder.on_acquired(self, 0.0)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


def sanitize_lock(obj, recorder: LockOrderRecorder, attr: str = "_lock",
                  class_name: Optional[str] = None) -> SanitizedLock:
    """Replace ``obj.<attr>`` with a SanitizedLock (idempotent).

    Must be called before the object's threads start: the swap is not
    atomic with respect to concurrent acquirers of the old lock.
    """
    inner = getattr(obj, attr)
    if isinstance(inner, SanitizedLock):
        return inner
    name = class_name or f"{type(obj).__name__}.{attr}"
    wrapped = SanitizedLock(inner, class_name=name, recorder=recorder)
    setattr(obj, attr, wrapped)
    return wrapped


class ProtocolRecorder(RuntimeRecorder):
    """Counts runtime acquire/release events per resource protocol.

    The static engine (:mod:`repro.analysis.protocols`) proves every
    *lexical* acquire reaches a release; this records the events a live
    fabric performs — event-spine subscribe/unsubscribe, stream
    subscription open/close — keyed
    ``(protocol, verb)`` like :func:`~repro.analysis.protocols.
    protocol_sites`.  Beside the subset gate, chaos runs assert the
    balance law the checks promise: ``unsubscribes <= subscribes``.
    """

    counter_name = "sanitizer.protocol_events"

    def record(self, protocol: str, verb: str, amount: int = 1) -> None:
        super().record((protocol, verb), amount)

    # -- views ----------------------------------------------------------------
    def observed(self) -> set:
        """The distinct ``(protocol, verb)`` pairs seen at runtime."""
        return set(self.events())

    def static(self, sources: Sequence[SourceFile]) -> set:
        return {(protocol, verb)
                for protocol, verbs in protocol_sites(list(sources)).items()
                for verb in verbs}

    def count(self, protocol: str, verb: str) -> int:
        with self._mutex:
            return self._events.get((protocol, verb), 0)


class AccessRecorder(RuntimeRecorder):
    """Tags attribute accesses on guarded classes with thread identity.

    The static pass (:mod:`repro.analysis.threadroles`) infers which
    ``ClassName.attr`` slots are reachable from several thread *roles*;
    this records the accesses a live fabric performs, as exact counts
    keyed ``(Class.attr, role, kind)``, mapping each accessing thread
    onto the same taxonomy via :func:`~repro.analysis.threadroles.
    role_for_thread`.  Every attribute observed from ≥ 2 roles must be
    in the static shared-set (:meth:`~repro.analysis.threadroles.
    RoleReport.shared_attrs`).
    """

    counter_name = "sanitizer.attr_accesses"

    def __init__(self, metrics=None):
        super().__init__(metrics)
        #: per-recorder cache of tracked subclasses, keyed (class, attrs)
        self._class_cache: Dict[Tuple[type, frozenset], type] = {}

    def observe(self, class_name: str, attr: str, kind: str) -> None:
        role = role_for_thread(threading.current_thread().name)
        self.record((f"{class_name}.{attr}", role, kind))

    # -- views ----------------------------------------------------------------
    def _roles(self, kinds: Tuple[str, ...]) -> Dict[str, frozenset]:
        roles: Dict[str, set] = {}
        for key, role, kind in self.events():
            if kind in kinds:
                roles.setdefault(key, set()).add(role)
        return {key: frozenset(seen) for key, seen in roles.items()}

    def observed_roles(self) -> Dict[str, frozenset]:
        """``ClassName.attr`` → the roles that touched it."""
        return self._roles(("read", "write"))

    def cross_role_attrs(self) -> set:
        """Attributes observed from ≥ 2 distinct roles (any access kind)."""
        return {key for key, roles in self.observed_roles().items()
                if len(roles) >= 2}

    def cross_role_writers(self) -> set:
        """Attributes *written* from ≥ 2 distinct roles."""
        return {key for key, roles in self._roles(("write",)).items()
                if len(roles) >= 2}

    def counts(self) -> Dict[Tuple[str, str, str], int]:
        """Access counts keyed ``(Class.attr, role, kind)``."""
        return self.events()

    observed = cross_role_attrs

    def static(self, sources: Sequence[SourceFile]) -> set:
        return build_role_report(sources).shared_attrs()


def _tracked_subclass(cls: type, tracked: frozenset, class_name: str,
                      recorder: AccessRecorder) -> type:
    sub = recorder._class_cache.get((cls, tracked))
    if sub is not None:
        return sub

    def __getattribute__(self, attr):
        if attr in tracked:
            recorder.observe(class_name, attr, "read")
        return object.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        if attr in tracked:
            recorder.observe(class_name, attr, "write")
        object.__setattr__(self, attr, value)

    sub = type(f"_Tracked{cls.__name__}", (cls,), {
        "__getattribute__": __getattribute__,
        "__setattr__": __setattr__,
        "_repro_tracked_attrs": tracked,
    })
    recorder._class_cache[(cls, tracked)] = sub
    return sub


def sanitize_access(obj, recorder: AccessRecorder, attrs,
                    class_name: Optional[str] = None):
    """Rebind ``obj``'s class so reads/writes of ``attrs`` report to
    ``recorder`` (idempotent).

    Like :func:`sanitize_lock`, call before the object's threads start;
    the class swap is not atomic with respect to concurrent accessors.
    """
    cls = type(obj)
    if getattr(cls, "_repro_tracked_attrs", None) is not None:
        return obj
    name = class_name or cls.__name__
    obj.__class__ = _tracked_subclass(cls, frozenset(attrs), name, recorder)
    return obj


def sanitize_events(events, recorder: ProtocolRecorder):
    """Record subscription-protocol events on an ``EventSpine``
    (idempotent).

    Instance-level rebinds of ``subscribe``/``unsubscribe``; an
    unsubscribe only counts when it actually removed a token (the call
    is idempotent by contract), so the balance law
    ``unsubscribes <= subscribes`` holds exactly.
    """
    if getattr(events, "_protocol_recorder", None) is not None:
        return events
    inner_subscribe = events.subscribe
    inner_unsubscribe = events.unsubscribe

    def subscribe(subscriber):
        token = inner_subscribe(subscriber)
        recorder.record("subscription", "subscribe")
        return token

    def unsubscribe(token):
        removed = inner_unsubscribe(token)
        if removed:
            recorder.record("subscription", "unsubscribe")
        return removed

    events.subscribe = subscribe
    events.unsubscribe = unsubscribe
    events._protocol_recorder = recorder
    return events


def sanitize_result_stream(server, recorder: ProtocolRecorder):
    """Record stream-subscription lifecycle events (idempotent).

    Wraps ``server.subscribe`` so every subscription handed out records
    its open, and wraps ``close``/``detach`` on the subscription
    instance.
    """
    if getattr(server, "_protocol_recorder", None) is not None:
        return server
    inner_subscribe = server.subscribe

    def subscribe(*args, **kwargs):
        sub = inner_subscribe(*args, **kwargs)
        recorder.record("stream", "subscribe")
        inner_close = sub.close
        inner_detach = sub.detach
        closed = threading.Event()

        def close():
            if not closed.is_set():
                closed.set()
                recorder.record("stream", "close")
            inner_close()

        def detach():
            recorder.record("stream", "detach")
            inner_detach()

        sub.close = close
        sub.detach = detach
        return sub

    server.subscribe = subscribe
    server._protocol_recorder = recorder
    return server
