"""Individual serialization methods used by the facade.

The paper's serializer "sorts the serialization libraries by speed and
applies them in order successively until the object is serialized",
leveraging cpickle, dill, tblib and JSON.  We implement equivalents from
scratch on the standard library:

* :class:`JsonMethod` — fastest, handles plain data (dict/list/str/num).
* :class:`PickleMethod` — cpickle equivalent; handles most Python objects.
* :class:`SourceCodeMethod` — serializes a *function* as its source text,
  reconstructed with ``exec`` at the destination.  This is how funcX ships
  interactively defined functions whose modules do not exist remotely.
* :class:`CodePickleMethod` — dill equivalent built on ``marshal``: encodes
  the code object, defaults and (best-effort) closure of a function so that
  lambdas and nested functions — which plain pickle rejects — round-trip.
* :class:`TracebackMethod` — tblib equivalent for exception + traceback
  transport (see :mod:`repro.serialize.traceback`).

Each method owns a two-character identifier used in buffer headers.
"""

from __future__ import annotations

import json
import marshal
import pickle
import sys
import types
from abc import ABC, abstractmethod
from typing import Any

from repro.errors import DeserializationError, SerializationError
from repro.serialize.traceback import RemoteExceptionWrapper


class SerializationMethod(ABC):
    """A single strategy for converting objects to and from bytes.

    Attributes
    ----------
    identifier:
        Two-character code stored in buffer headers (e.g. ``"01"``).
    for_code:
        Whether this method is intended for callables (function bodies)
        rather than data payloads.  The facade tries code methods only when
        serializing callables.
    """

    identifier: str = "??"
    for_code: bool = False

    def accepts(self, obj: Any) -> bool:
        """A cheap type test the facade makes before :meth:`serialize`:
        ``False`` refuses ``obj`` without raising."""
        return True

    @abstractmethod
    def serialize(self, obj: Any) -> bytes:
        """Encode ``obj``; raise :class:`SerializationError` if unsupported."""

    @abstractmethod
    def deserialize(self, payload: bytes | memoryview) -> Any:
        """Decode ``payload`` (any bytes-like: the facade hands over a
        view, not a copy); raise :class:`DeserializationError` on corrupt
        data."""


#: One codec for every call: ``json.dumps`` with any argument builds a
#: fresh ``JSONEncoder`` each time.
_json_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_json_decode = json.JSONDecoder().decode


class JsonMethod(SerializationMethod):
    """JSON for plain data — the fastest path for simple payloads."""

    identifier = "00"
    for_code = False

    def accepts(self, obj: Any) -> bool:
        # A top-level tuple decays to a list and bytes are not JSON at
        # all: every ``(args, kwargs)`` payload is refused here, by type,
        # before paying for an encode + decode + compare that must fail.
        return not isinstance(obj, (tuple, bytes, bytearray))

    def serialize(self, obj: Any) -> bytes:
        if not self.accepts(obj):
            raise SerializationError(
                f"a top-level {type(obj).__name__} does not survive JSON")
        try:
            text = _json_encode(obj)
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"not JSON-serializable: {exc}") from exc
        # JSON must round-trip *exactly*: tuples decay to lists and non-str
        # dict keys to strings, which would corrupt payloads silently.
        if _json_decode(text) != obj:
            raise SerializationError("object does not survive JSON round-trip")
        return text.encode("utf-8")

    def deserialize(self, payload: bytes | memoryview) -> Any:
        try:
            return _json_decode(str(payload, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DeserializationError(f"corrupt JSON payload: {exc}") from exc


class PickleMethod(SerializationMethod):
    """Binary pickle for general Python objects (cpickle equivalent)."""

    identifier = "01"
    for_code = False

    def serialize(self, obj: Any) -> bytes:
        try:
            return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickle raises many types
            raise SerializationError(f"not picklable: {exc}") from exc

    def deserialize(self, payload: bytes | memoryview) -> Any:
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise DeserializationError(f"corrupt pickle payload: {exc}") from exc


class SourceCodeMethod(SerializationMethod):
    """Ship a function as its source text.

    The paper requires that "the function body must specify all imported
    modules" (section 3) precisely so that source-shipping works: the
    destination ``exec``s the source in a fresh namespace and pulls the
    function out by name.
    """

    identifier = "02"
    for_code = True

    def serialize(self, obj: Any) -> bytes:
        import inspect
        import textwrap

        if not isinstance(obj, types.FunctionType):
            raise SerializationError("source method only serializes plain functions")
        if obj.__closure__:
            # A closure's captured cells are invisible to exec'd source;
            # the code-pickle method handles those.
            raise SerializationError("function captures a closure; source unsafe")
        try:
            source = inspect.getsource(obj)
        except (OSError, TypeError) as exc:
            raise SerializationError(f"source unavailable: {exc}") from exc
        source = textwrap.dedent(source)
        # Decorated or indented definitions would exec incorrectly.
        if not source.lstrip().startswith("def "):
            raise SerializationError("source does not start with a def statement")
        record = {"name": obj.__name__, "source": source}
        return json.dumps(record).encode("utf-8")

    def deserialize(self, payload: bytes | memoryview) -> Any:
        try:
            record = json.loads(str(payload, "utf-8"))
            namespace: dict[str, Any] = {}
            exec(record["source"], namespace)  # noqa: S102 - core mechanism
            return namespace[record["name"]]
        except DeserializationError:
            raise
        except Exception as exc:
            raise DeserializationError(f"cannot reconstruct function: {exc}") from exc


class CodePickleMethod(SerializationMethod):
    """Encode a function through its code object (dill equivalent).

    Handles lambdas and closures that plain pickle rejects.  The code object
    is marshalled; defaults and closure cells are pickled.  Functions whose
    closures capture unpicklable state fail over to the next method.
    """

    identifier = "03"
    for_code = True

    def serialize(self, obj: Any) -> bytes:
        if not isinstance(obj, types.FunctionType):
            raise SerializationError("code-pickle only serializes plain functions")
        try:
            code_bytes = marshal.dumps(obj.__code__)
            closure_values = (
                tuple(cell.cell_contents for cell in obj.__closure__)
                if obj.__closure__
                else None
            )
            record = (
                obj.__name__,
                code_bytes,
                pickle.dumps(obj.__defaults__, protocol=pickle.HIGHEST_PROTOCOL),
                pickle.dumps(closure_values, protocol=pickle.HIGHEST_PROTOCOL),
            )
            return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(f"code-pickle failed: {exc}") from exc

    def deserialize(self, payload: bytes | memoryview) -> Any:
        try:
            name, code_bytes, defaults_b, closure_b = pickle.loads(payload)
            code = marshal.loads(code_bytes)
            defaults = pickle.loads(defaults_b)
            closure_values = pickle.loads(closure_b)
            closure = (
                tuple(types.CellType(v) for v in closure_values)
                if closure_values is not None
                else None
            )
            # Builtins must be present for the reconstructed function to run.
            globals_ns: dict[str, Any] = {"__builtins__": __builtins__}
            func = types.FunctionType(code, globals_ns, name, defaults, closure)
            return func
        except Exception as exc:
            raise DeserializationError(f"cannot rebuild code object: {exc}") from exc


class NumpyMethod(SerializationMethod):
    """Zero-copy-ish transport for contiguous NumPy arrays.

    Science payloads (detector frames, spectra) are overwhelmingly numeric
    arrays; pickling them costs an extra buffer copy and pickle-opcode
    overhead.  This method writes ``dtype\\x00shape\\x00raw-bytes`` directly
    from the array's buffer (the mpi4py guide's buffer-provider idiom) and
    reconstructs with ``np.frombuffer``.

    Only C-contiguous, non-object arrays qualify; anything else falls
    through to pickle.
    """

    identifier = "05"
    for_code = False

    _SEP = b"\x00"
    #: Longer than any ``dtype\\x00shape\\x00`` header: at most 64
    #: dimensions, whose non-zero sizes multiply within ``intp``.
    _MAX_PREFIX = 1024

    def accepts(self, obj: Any) -> bool:
        # An object cannot be an ndarray of a module nobody has loaded:
        # a deployment that never sees an array never imports NumPy.
        np = sys.modules.get("numpy")
        return np is not None and isinstance(obj, np.ndarray)

    def serialize(self, obj: Any) -> bytes:
        if not self.accepts(obj):
            raise SerializationError("not a numpy array")
        if obj.dtype.hasobject:
            raise SerializationError("object arrays are not buffer-safe")
        if not obj.flags["C_CONTIGUOUS"]:
            raise SerializationError("array is not C-contiguous")
        dtype = obj.dtype.str.encode("ascii")
        shape = ",".join(str(d) for d in obj.shape).encode("ascii")
        return dtype + self._SEP + shape + self._SEP + obj.tobytes()

    def deserialize(self, payload: bytes | memoryview) -> Any:
        import numpy as np

        try:
            # The header is parsed from a short prefix; the array bytes
            # are copied once, by the final ``copy``.
            prefix = bytes(payload[:self._MAX_PREFIX])
            dtype_b, shape_b, _ = prefix.split(self._SEP, 2)
            offset = len(dtype_b) + len(shape_b) + 2
            dtype = np.dtype(dtype_b.decode("ascii"))
            shape = tuple(int(d) for d in shape_b.decode("ascii").split(",") if d)
            array = np.frombuffer(payload, dtype=dtype, offset=offset).reshape(shape)
            return array.copy()  # writable, owns its memory
        except Exception as exc:
            raise DeserializationError(f"corrupt array payload: {exc}") from exc


class TracebackMethod(SerializationMethod):
    """Transport exceptions with their traceback text (tblib equivalent)."""

    identifier = "04"
    for_code = False

    def serialize(self, obj: Any) -> bytes:
        if not isinstance(obj, RemoteExceptionWrapper):
            raise SerializationError("traceback method only serializes wrappers")
        try:
            return pickle.dumps(obj.to_record(), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SerializationError(f"traceback not picklable: {exc}") from exc

    def deserialize(self, payload: bytes | memoryview) -> Any:
        try:
            return RemoteExceptionWrapper.from_record(pickle.loads(payload))
        except Exception as exc:
            raise DeserializationError(f"corrupt traceback payload: {exc}") from exc


#: Methods in the order the facade tries them for *data* payloads.
#: JSON first — not for raw speed (pickle is faster once JSON pays its
#: exact round-trip check; see bench_ablation_serializer) but because a
#: JSON buffer is wire-interoperable and deserializing it cannot execute
#: code; then the NumPy buffer fast path; then general pickle.
DEFAULT_DATA_METHODS: tuple[SerializationMethod, ...] = (
    JsonMethod(),
    NumpyMethod(),
    PickleMethod(),
    TracebackMethod(),
)

#: Methods in the order the facade tries them for *code* (callables).
#: Source text first: ~30x slower to produce than code-pickle, but paid
#: once per registration, and — unlike marshal'd code objects — portable
#: across Python versions between client and worker.
DEFAULT_CODE_METHODS: tuple[SerializationMethod, ...] = (
    SourceCodeMethod(),
    CodePickleMethod(),
    PickleMethod(),
)
