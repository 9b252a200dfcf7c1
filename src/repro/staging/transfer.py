"""Named data stores and a bandwidth-modelled transfer service.

The substitution for Globus: each *store* is a named location holding
byte objects; the *transfer service* copies objects between stores with
a latency + bandwidth cost model and returns :class:`DataRef` handles
that functions accept in place of in-band payloads.  The live fabric
applies the modelled transfer time as a real delay so end-to-end
experiments see realistic staging costs.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable

from repro.errors import NotFoundError


@dataclass(frozen=True)
class DataRef:
    """A location-qualified reference to a staged object.

    This is what gets passed *through* the funcX service instead of the
    data itself — it is a few hundred bytes regardless of object size.
    """

    store: str
    key: str
    size: int
    checksum: int

    def as_argument(self) -> dict:
        """Plain-dict form safe for any serializer."""
        return {
            "__dataref__": True,
            "store": self.store,
            "key": self.key,
            "size": self.size,
            "checksum": self.checksum,
        }

    @classmethod
    def from_argument(cls, record: object) -> "DataRef":
        if not isinstance(record, dict) or not record.get("__dataref__"):
            raise ValueError("not a DataRef record")
        return cls(
            store=record["store"],
            key=record["key"],
            size=record["size"],
            checksum=record["checksum"],
        )


class DataStore:
    """A named storage location (filesystem / repository stand-in)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.RLock()
        self._objects: dict[str, bytes] = {}

    def put(self, data: bytes, key: str | None = None) -> DataRef:
        key = key or str(uuid.uuid4())
        with self._lock:
            self._objects[key] = bytes(data)
        return DataRef(
            store=self.name,
            key=key,
            size=len(data),
            checksum=_checksum(data),
        )

    def get(self, ref: DataRef) -> bytes:
        if ref.store != self.name:
            raise NotFoundError("object", f"{ref.key} (wrong store {ref.store})")
        with self._lock:
            data = self._objects.get(ref.key)
        if data is None:
            raise NotFoundError("object", ref.key)
        if _checksum(data) != ref.checksum:
            raise ValueError(f"checksum mismatch for {ref.key}")
        return data

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._objects.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)


def _checksum(data: bytes) -> int:
    import zlib

    return zlib.crc32(data)


# ---------------------------------------------------------------------------
# Process-level store registry.
#
# Functions execute on workers with only their arguments; passing a
# DataRef works because the *site* (here: the process) can resolve the
# store by name — exactly how a Globus endpoint id resolves to a real
# filesystem at the site.  The registry is that resolution table.
# ---------------------------------------------------------------------------
_REGISTRY_LOCK = threading.RLock()
_STORE_REGISTRY: dict[str, "DataStore"] = {}


def register_store(store: "DataStore") -> "DataStore":
    """Make a store resolvable by name from worker functions."""
    with _REGISTRY_LOCK:
        _STORE_REGISTRY[store.name] = store
    return store


def resolve_store(name: str) -> "DataStore":
    """Look up a registered store (raises :class:`NotFoundError`)."""
    with _REGISTRY_LOCK:
        store = _STORE_REGISTRY.get(name)
    if store is None:
        raise NotFoundError("store", name)
    return store


def fetch_ref(record: dict) -> bytes:
    """Worker-side helper: resolve a DataRef record and read its bytes.

    Designed for use *inside* function bodies (imports locally)::

        def process(data_ref):
            from repro.staging.transfer import fetch_ref
            raw = fetch_ref(data_ref)
            ...
    """
    ref = DataRef.from_argument(record)
    return resolve_store(ref.store).get(ref)


def unregister_store(name: str) -> bool:
    """Remove a store from the resolution table.

    Returns ``True`` when the name was registered.  Lets short-lived
    stores leave the process-level registry when their owner shuts down
    instead of accreting forever.
    """
    with _REGISTRY_LOCK:
        return _STORE_REGISTRY.pop(name, None) is not None


def clear_registry() -> None:
    """Testing hook: forget every registered store."""
    with _REGISTRY_LOCK:
        _STORE_REGISTRY.clear()


@dataclass(frozen=True)
class TransferRecord:
    """Audit record for one completed transfer."""

    transfer_id: str
    source: str
    destination: str
    size: int
    duration: float
    started_at: float


@dataclass
class _Link:
    latency: float        # seconds
    bandwidth: float      # bytes/second


class TransferService:
    """Copies objects between stores with a latency/bandwidth cost model.

    Parameters
    ----------
    default_latency:
        Per-transfer setup latency, seconds.
    default_bandwidth:
        Link bandwidth, bytes/second (1 GbE ≈ 1.25e8).
    apply_delay:
        Whether to physically sleep the modelled transfer time (live
        fabric realism); disable for unit tests.
    """

    def __init__(
        self,
        default_latency: float = 0.05,
        default_bandwidth: float = 1.25e8,
        apply_delay: bool = False,
        clock: Callable[[], float] | None = None,
        sleeper: Callable[[float], None] | None = None,
    ):
        self._stores: dict[str, DataStore] = {}
        self._links: dict[tuple[str, str], _Link] = {}
        self._default = _Link(default_latency, default_bandwidth)
        self._apply_delay = apply_delay
        self._clock = clock or time.monotonic
        self._sleep = sleeper or time.sleep
        self._lock = threading.RLock()
        self.records: list[TransferRecord] = []

    # -- topology ----------------------------------------------------------
    def register_store(self, store: DataStore) -> DataStore:
        with self._lock:
            self._stores[store.name] = store
        return store

    def create_store(self, name: str) -> DataStore:
        return self.register_store(DataStore(name))

    def store(self, name: str) -> DataStore:
        store = self._stores.get(name)
        if store is None:
            raise NotFoundError("store", name)
        return store

    def set_link(self, source: str, destination: str, latency: float, bandwidth: float) -> None:
        if latency < 0 or bandwidth <= 0:
            raise ValueError("latency must be >=0 and bandwidth positive")
        self._links[(source, destination)] = _Link(latency, bandwidth)

    def link(self, source: str, destination: str) -> _Link:
        return self._links.get((source, destination), self._default)

    # -- transfers --------------------------------------------------------------
    def estimate(self, source: str, destination: str, size: int) -> float:
        """Modelled transfer time in seconds."""
        link = self.link(source, destination)
        return link.latency + size / link.bandwidth

    def transfer(self, ref: DataRef, destination: str) -> DataRef:
        """Stage an object to ``destination``; returns the new reference."""
        src_store = self.store(ref.store)
        dst_store = self.store(destination)
        data = src_store.get(ref)
        duration = self.estimate(ref.store, destination, ref.size)
        started = self._clock()
        if self._apply_delay and duration > 0:
            self._sleep(duration)
        new_ref = dst_store.put(data, key=ref.key)
        with self._lock:
            self.records.append(
                TransferRecord(
                    transfer_id=str(uuid.uuid4()),
                    source=ref.store,
                    destination=destination,
                    size=ref.size,
                    duration=duration,
                    started_at=started,
                )
            )
        return new_ref

    def total_bytes_moved(self) -> int:
        with self._lock:
            return sum(r.size for r in self.records)
