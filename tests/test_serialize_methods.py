"""Unit tests for the individual serialization methods."""

from __future__ import annotations

import pytest

from repro.errors import DeserializationError, SerializationError
from repro.serialize.methods import (
    CodePickleMethod,
    JsonMethod,
    PickleMethod,
    SourceCodeMethod,
    TracebackMethod,
)
from repro.serialize.traceback import RemoteExceptionWrapper


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------
class TestJsonMethod:
    def test_roundtrip_dict(self):
        m = JsonMethod()
        obj = {"a": 1, "b": [1.5, "x", None, True]}
        assert m.deserialize(m.serialize(obj)) == obj

    def test_roundtrip_scalars(self):
        m = JsonMethod()
        for obj in (0, -3, 2.5, "hello", None, True, False, []):
            assert m.deserialize(m.serialize(obj)) == obj

    def test_rejects_bytes(self):
        with pytest.raises(SerializationError):
            JsonMethod().serialize(b"raw")

    def test_rejects_set(self):
        with pytest.raises(SerializationError):
            JsonMethod().serialize({1, 2})

    def test_top_level_tuple_is_refused_before_any_encoding(self, monkeypatch):
        # Every (args, kwargs) payload is one: it must cost a type test,
        # not an encode + decode + compare that can only fail.
        from repro.serialize import methods

        calls = []
        real = methods._json_encode
        monkeypatch.setattr(
            methods, "_json_encode", lambda obj: calls.append(obj) or real(obj))
        for obj in (([1], {}), (), b"raw", bytearray(b"raw")):
            with pytest.raises(SerializationError):
                JsonMethod().serialize(obj)
        assert calls == []
        with pytest.raises(SerializationError):  # nested: the exact check
            JsonMethod().serialize([(1, 2)])
        assert len(calls) == 1

    def test_deserializes_a_view(self):
        m = JsonMethod()
        assert m.deserialize(memoryview(m.serialize({"a": [1]}))) == {"a": [1]}

    def test_rejects_custom_object(self):
        class Thing:
            pass

        with pytest.raises(SerializationError):
            JsonMethod().serialize(Thing())

    def test_corrupt_payload(self):
        with pytest.raises(DeserializationError):
            JsonMethod().deserialize(b"{not json")

    def test_identifier(self):
        assert JsonMethod.identifier == "00"
        assert not JsonMethod.for_code


# ---------------------------------------------------------------------------
# Pickle
# ---------------------------------------------------------------------------
class TestPickleMethod:
    def test_roundtrip_complex_object(self):
        m = PickleMethod()
        obj = {"nested": [(1, 2), {3, 4}, {"k": bytearray(b"v")}]}
        assert m.deserialize(m.serialize(obj)) == obj

    def test_roundtrip_numpy(self):
        import numpy as np

        m = PickleMethod()
        arr = np.arange(10.0).reshape(2, 5)
        out = m.deserialize(m.serialize(arr))
        assert (out == arr).all()

    def test_rejects_unpicklable(self):
        import threading

        with pytest.raises(SerializationError):
            PickleMethod().serialize(threading.Lock())

    def test_corrupt_payload(self):
        with pytest.raises(DeserializationError):
            PickleMethod().deserialize(b"\x00\x01garbage")


# ---------------------------------------------------------------------------
# Source code
# ---------------------------------------------------------------------------
def module_level_double(x):
    return 2 * x


def module_level_with_imports(n):
    import math

    return math.sqrt(n)


class TestSourceCodeMethod:
    def test_roundtrip_simple(self):
        m = SourceCodeMethod()
        func = m.deserialize(m.serialize(module_level_double))
        assert func(21) == 42
        assert func.__name__ == "module_level_double"

    def test_roundtrip_with_body_import(self):
        m = SourceCodeMethod()
        func = m.deserialize(m.serialize(module_level_with_imports))
        assert func(16) == 4.0

    def test_rejects_lambda(self):
        with pytest.raises(SerializationError):
            SourceCodeMethod().serialize(lambda x: x)

    def test_rejects_non_function(self):
        with pytest.raises(SerializationError):
            SourceCodeMethod().serialize(42)

    def test_rejects_builtin(self):
        with pytest.raises(SerializationError):
            SourceCodeMethod().serialize(len)

    def test_is_code_method(self):
        assert SourceCodeMethod.for_code


# ---------------------------------------------------------------------------
# Code pickle (dill equivalent)
# ---------------------------------------------------------------------------
class TestCodePickleMethod:
    def test_roundtrip_lambda(self):
        m = CodePickleMethod()
        func = m.deserialize(m.serialize(lambda x, y=3: x * y))
        assert func(4) == 12
        assert func(4, y=5) == 20

    def test_roundtrip_closure(self):
        m = CodePickleMethod()

        def make_adder(k):
            def add(x):
                return x + k

            return add

        func = m.deserialize(m.serialize(make_adder(10)))
        assert func(5) == 15

    def test_roundtrip_defaults(self):
        m = CodePickleMethod()

        def f(a, b=7, c="x"):
            return (a, b, c)

        out = m.deserialize(m.serialize(f))
        assert out(1) == (1, 7, "x")

    def test_rejects_non_function(self):
        with pytest.raises(SerializationError):
            CodePickleMethod().serialize("nope")

    def test_rejects_unpicklable_closure(self):
        import threading

        lock = threading.Lock()

        def f():
            return lock

        with pytest.raises(SerializationError):
            CodePickleMethod().serialize(f)

    def test_corrupt_payload(self):
        with pytest.raises(DeserializationError):
            CodePickleMethod().deserialize(b"nonsense")


# ---------------------------------------------------------------------------
# Traceback method
# ---------------------------------------------------------------------------
class TestTracebackMethod:
    def _make_wrapper(self) -> RemoteExceptionWrapper:
        try:
            raise ValueError("boom")
        except ValueError as exc:
            return RemoteExceptionWrapper(exc)

    def test_roundtrip(self):
        m = TracebackMethod()
        wrapper = self._make_wrapper()
        out = m.deserialize(m.serialize(wrapper))
        assert isinstance(out, RemoteExceptionWrapper)
        assert out.exc_type_name == "ValueError"
        assert "boom" in out.format()

    def test_rejects_plain_exception(self):
        with pytest.raises(SerializationError):
            TracebackMethod().serialize(ValueError("x"))

    def test_format_contains_frames(self):
        wrapper = self._make_wrapper()
        text = wrapper.format()
        assert "Traceback (most recent call last):" in text
        assert "_make_wrapper" in text


# ---------------------------------------------------------------------------
# NumPy buffer method
# ---------------------------------------------------------------------------
class TestNumpyMethod:
    def _method(self):
        from repro.serialize.methods import NumpyMethod

        return NumpyMethod()

    def test_roundtrip_2d(self):
        import numpy as np

        m = self._method()
        arr = np.arange(12.0).reshape(3, 4)
        assert (m.deserialize(memoryview(m.serialize(arr))) == arr).all()
        out = m.deserialize(m.serialize(arr))
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert (out == arr).all()

    def test_roundtrip_scalar_shapes(self):
        import numpy as np

        m = self._method()
        for arr in (np.array(5), np.array([1, 2, 3], dtype=np.int32),
                    np.zeros((2, 0, 3))):
            out = m.deserialize(m.serialize(arr))
            assert out.shape == arr.shape and out.dtype == arr.dtype

    def test_result_is_writable(self):
        import numpy as np

        m = self._method()
        out = m.deserialize(m.serialize(np.ones(4)))
        out[0] = 99.0  # frombuffer views are read-only; we must copy

    def test_deserialize_copies_the_array_once(self):
        import tracemalloc

        import numpy as np

        m = self._method()
        arr = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        payload = memoryview(m.serialize(arr))  # as the facade hands it over
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = m.deserialize(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out == arr).all()
        assert peak - start <= 1.1 * arr.nbytes

    def test_rejects_non_array(self):
        with pytest.raises(SerializationError):
            self._method().serialize([1, 2, 3])

    def test_rejects_object_dtype(self):
        import numpy as np

        with pytest.raises(SerializationError):
            self._method().serialize(np.array([object()]))

    def test_rejects_non_contiguous(self):
        import numpy as np

        arr = np.arange(16.0).reshape(4, 4).T  # F-ordered view
        with pytest.raises(SerializationError):
            self._method().serialize(arr)

    def test_corrupt_payload(self):
        with pytest.raises(DeserializationError):
            self._method().deserialize(b"nonsense")

    def test_facade_routes_arrays_to_numpy_method(self):
        import numpy as np

        from repro.serialize import FuncXSerializer
        from repro.serialize.buffers import peek_header
        from repro.serialize.methods import NumpyMethod

        s = FuncXSerializer()
        arr = np.arange(100, dtype=np.float32)
        buf = s.serialize(arr)
        assert peek_header(buf).method == NumpyMethod.identifier
        assert (s.deserialize(buf) == arr).all()

    def test_facade_still_pickles_object_arrays(self):
        import numpy as np

        from repro.serialize import FuncXSerializer

        s = FuncXSerializer()
        arr = np.array([{"a": 1}, None], dtype=object)
        out = s.deserialize(s.serialize(arr))
        assert out[0] == {"a": 1}
