"""Differential test of the routed-buffer codec against a reference copy.

``reference_pack_buffer`` and ``reference_parse_header`` are the codec as
it stood before its header became a tuple and its packing one format
step, kept verbatim: the live codec must write the same bytes and accept
and refuse the same inputs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeserializationError
from repro.serialize.buffers import BufferHeader, _parse_header, pack_buffer

_SEP = b"\x1f"
_END = b"\n"
_MAX_HEADER = 4096


def reference_pack_buffer(method: str, routing_tag: str, payload: bytes) -> bytes:
    if len(method) != 2:
        raise ValueError(f"method identifier must be 2 chars, got {method!r}")
    tag_bytes = routing_tag.encode("utf-8")
    if _SEP in tag_bytes or _END in tag_bytes:
        raise ValueError("routing tag contains reserved separator bytes")
    header = method.encode("ascii") + _SEP + tag_bytes + _SEP + str(len(payload)).encode("ascii") + _END
    return header + payload


def reference_parse_header(buffer: bytes) -> tuple[BufferHeader, int]:
    end = buffer.find(_END, 0, _MAX_HEADER)
    if end < 0:
        raise DeserializationError("buffer header terminator not found")
    header = buffer[:end]
    parts = header.split(_SEP)
    if len(parts) != 3:
        raise DeserializationError(f"malformed buffer header: {header!r}")
    method_b, tag_b, length_b = parts
    try:
        method = method_b.decode("ascii")
        tag = tag_b.decode("utf-8")
        length = int(length_b)
    except (UnicodeDecodeError, ValueError) as exc:
        raise DeserializationError(f"corrupt buffer header: {exc}") from exc
    if len(method) != 2 or length < 0:
        raise DeserializationError(f"invalid buffer header fields: {header!r}")
    return BufferHeader(method=method, routing_tag=tag,
                        payload_length=length), end + 1


def outcome(fn, *args):
    """``fn``'s return value, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type across implementations
        return type(exc)


def parsed(fn, buffer: bytes):
    """``(method, tag, length, offset)``, or ``DeserializationError``."""
    try:
        header, offset = fn(buffer)
    except DeserializationError:
        return DeserializationError
    return (header.method, header.routing_tag, header.payload_length, offset)


methods = st.text(alphabet=st.characters(max_codepoint=127),
                  min_size=2, max_size=2)
tags = st.text(alphabet=st.characters(blacklist_characters="\x1f\n",
                                      blacklist_categories=("Cs",)),
               max_size=40)
payloads = st.binary(max_size=300)
#: Bytes a header is made of, so random strings reach every branch.
header_like = st.lists(
    st.sampled_from([b"\x1f", b"\n", b"0", b"7", b"-", b"+", b" ", b"_",
                     b"ab", b"\xc3\xa9", b"\xff", b"\x00"]),
    max_size=12).map(b"".join)
#: Separator-joined fields ending in the terminator: wrong field counts,
#: bad methods and every spelling ``int`` does or does not take.
header_fields = st.lists(
    st.sampled_from([b"", b"0", b"00", b"000", b"\xc3\xa9", b"\xff", b"t",
                     b"5", b"-5", b"+5", b" 5 ", b"1_0", b"-0", b"x"]),
    min_size=1, max_size=4).map(lambda fields: b"\x1f".join(fields) + b"\n")


@given(method=methods, tag=tags, payload=payloads)
@settings(max_examples=300)
def test_packed_bytes_are_identical(method, tag, payload):
    assert (outcome(pack_buffer, method, tag, payload)
            == outcome(reference_pack_buffer, method, tag, payload))


@given(method=st.text(max_size=3), tag=st.text(max_size=10),
       payload=payloads)
@settings(max_examples=150)
def test_refused_packs_raise_alike(method, tag, payload):
    # Any method length, non-ASCII methods, tags with separators and
    # surrogates included.
    assert (outcome(pack_buffer, method, tag, payload)
            == outcome(reference_pack_buffer, method, tag, payload))


@given(buffer=st.binary(max_size=200) | header_like | header_fields)
@settings(max_examples=400)
def test_arbitrary_bytes_parse_alike(buffer):
    assert parsed(_parse_header, buffer) == parsed(reference_parse_header, buffer)


@given(method=st.text(alphabet="0123456789", min_size=2, max_size=2),
       tag=tags, payload=payloads, data=st.data())
@settings(max_examples=400)
def test_mutated_buffers_parse_alike(method, tag, payload, data):
    buffer = bytearray(reference_pack_buffer(method, tag, payload))
    header_end = buffer.index(_END)
    index = data.draw(st.integers(0, header_end)
                      | st.integers(0, len(buffer) - 1))
    buffer[index] = data.draw(st.integers(0, 255))
    buffer = bytes(buffer)
    assert parsed(_parse_header, buffer) == parsed(reference_parse_header, buffer)
