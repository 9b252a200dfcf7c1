"""Unit tests for the routed-buffer wire format."""

from __future__ import annotations

import pytest

from repro.errors import DeserializationError
from repro.serialize.buffers import BufferHeader, pack_buffer, peek_header, unpack_buffer


class TestPackUnpack:
    def test_roundtrip(self):
        buf = pack_buffer("01", "task-123", b"payload bytes")
        header, payload = unpack_buffer(buf)
        assert header == BufferHeader(method="01", routing_tag="task-123", payload_length=13)
        assert payload == b"payload bytes"

    def test_empty_payload(self):
        header, payload = unpack_buffer(pack_buffer("00", "t", b""))
        assert payload == b""
        assert header.payload_length == 0

    def test_empty_tag(self):
        header, _ = unpack_buffer(pack_buffer("00", "", b"x"))
        assert header.routing_tag == ""

    def test_unicode_tag(self):
        header, _ = unpack_buffer(pack_buffer("00", "tâche-€", b"x"))
        assert header.routing_tag == "tâche-€"

    def test_binary_payload_with_newlines(self):
        payload = b"\n\x1f\n\x00binary\nmess"
        header, out = unpack_buffer(pack_buffer("01", "tag", payload))
        assert out == payload

    def test_large_payload(self):
        payload = bytes(range(256)) * 4096
        _, out = unpack_buffer(pack_buffer("01", "big", payload))
        assert out == payload

    def test_payload_is_a_view_not_a_copy(self):
        buf = pack_buffer("01", "big", bytes(range(256)) * 512)
        _, out = unpack_buffer(buf)
        assert isinstance(out, memoryview) and out.obj is buf


class TestValidation:
    def test_bad_method_length(self):
        with pytest.raises(ValueError):
            pack_buffer("001", "t", b"")
        with pytest.raises(ValueError):
            pack_buffer("1", "t", b"")

    def test_tag_with_separator_rejected(self):
        with pytest.raises(ValueError):
            pack_buffer("00", "bad\x1ftag", b"")

    def test_tag_with_newline_rejected(self):
        with pytest.raises(ValueError):
            pack_buffer("00", "bad\ntag", b"")

    def test_truncated_payload(self):
        buf = pack_buffer("00", "t", b"12345678")
        with pytest.raises(DeserializationError):
            unpack_buffer(buf[:-3])

    def test_missing_terminator(self):
        with pytest.raises(DeserializationError):
            unpack_buffer(b"00\x1ftag\x1f5")

    def test_malformed_header_fields(self):
        with pytest.raises(DeserializationError):
            unpack_buffer(b"00\x1fonly-two-fields\n")

    def test_non_numeric_length(self):
        with pytest.raises(DeserializationError):
            unpack_buffer(b"00\x1ft\x1fxyz\npayload")

    def test_negative_length(self):
        with pytest.raises(DeserializationError):
            unpack_buffer(b"00\x1ft\x1f-5\npayload")


class TestPeek:
    def test_peek_does_not_need_payload(self):
        buf = pack_buffer("02", "route-me", b"abcdef")
        header = peek_header(buf)
        assert header.routing_tag == "route-me"
        assert header.method == "02"

    def test_peek_on_header_only_prefix(self):
        buf = pack_buffer("02", "route-me", b"abcdef")
        end = buf.find(b"\n") + 1
        header = peek_header(buf[:end])
        assert header.payload_length == 6
