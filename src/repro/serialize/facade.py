"""The ordered-fallback serialization facade (paper section 4.6)."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import DeserializationError, SerializationError
from repro.serialize.buffers import pack_buffer, peek_header, unpack_buffer
from repro.serialize.methods import (
    DEFAULT_CODE_METHODS,
    DEFAULT_DATA_METHODS,
    SerializationMethod,
    TracebackMethod,
)
from repro.serialize.traceback import RemoteExceptionWrapper


class FuncXSerializer:
    """Serialize arbitrary objects by trying methods in speed order.

    The facade keeps two ordered method lists: one for data payloads and one
    for code (callables).  ``serialize`` walks the appropriate list until a
    method succeeds and returns a routed buffer; ``deserialize`` reads the
    buffer header to select the exact decoding method.

    Parameters
    ----------
    data_methods, code_methods:
        Override the default method orderings (useful for the serializer
        ablation benchmark).
    """

    def __init__(
        self,
        data_methods: Sequence[SerializationMethod] | None = None,
        code_methods: Sequence[SerializationMethod] | None = None,
    ):
        self._data_methods = tuple(data_methods or DEFAULT_DATA_METHODS)
        self._code_methods = tuple(code_methods or DEFAULT_CODE_METHODS)
        self._by_id: dict[str, SerializationMethod] = {}
        for method in (*self._data_methods, *self._code_methods):
            existing = self._by_id.get(method.identifier)
            if existing is not None and type(existing) is not type(method):
                raise ValueError(
                    f"conflicting methods registered for id {method.identifier!r}"
                )
            self._by_id[method.identifier] = method
        # The traceback decoder must always be available: any worker may
        # return a wrapped exception regardless of configured orderings.
        self._by_id.setdefault(TracebackMethod.identifier, TracebackMethod())

    # ------------------------------------------------------------------
    def serialize(self, obj: Any, routing_tag: str = "") -> bytes:
        """Serialize ``obj`` into a routed buffer.

        Callables go through the code-method chain; exception wrappers go
        straight to the traceback method; everything else uses the data
        chain.
        """
        if isinstance(obj, RemoteExceptionWrapper):
            method = self._by_id[TracebackMethod.identifier]
            return pack_buffer(method.identifier, routing_tag, method.serialize(obj))

        methods = self._code_methods if callable(obj) else self._data_methods
        # A method refuses by type without raising; the error text is
        # built only once every method has refused.
        errors: dict[SerializationMethod, SerializationError] = {}
        for method in methods:
            if not method.accepts(obj):
                continue
            try:
                payload = method.serialize(obj)
            except SerializationError as exc:
                errors[method] = exc
                continue
            return pack_buffer(method.identifier, routing_tag, payload)
        tried = "; ".join(
            f"{type(method).__name__}: "
            f"{errors.get(method, f'does not take a {type(obj).__name__}')}"
            for method in methods)
        raise SerializationError(
            f"no serialization method accepted object {type(obj).__name__}; "
            f"tried: {tried}")

    def unpack(self, buffer: bytes) -> tuple[str, Any]:
        """Routing tag and decoded object from one parse of the header."""
        header, payload = unpack_buffer(buffer)
        method = self._by_id.get(header.method)
        if method is None:
            raise DeserializationError(f"unknown serialization method {header.method!r}")
        return header.routing_tag, method.deserialize(payload)

    def deserialize(self, buffer: bytes) -> Any:
        """Decode a routed buffer back into the original object."""
        return self.unpack(buffer)[1]

    def routing_tag(self, buffer: bytes) -> str:
        """Read the routing tag without deserializing the payload."""
        return peek_header(buffer).routing_tag

    # ------------------------------------------------------------------
    def serialize_function(self, func: Callable[..., Any], routing_tag: str = "") -> bytes:
        """Explicitly serialize a callable via the code-method chain."""
        if not callable(func):
            raise SerializationError(f"expected callable, got {type(func).__name__}")
        return self.serialize(func, routing_tag=routing_tag)

    def check_roundtrip(self, obj: Any) -> bool:
        """Whether ``obj`` survives serialize→deserialize (by equality)."""
        try:
            return self.deserialize(self.serialize(obj)) == obj
        except (SerializationError, DeserializationError):
            return False
