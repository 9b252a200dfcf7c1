"""Tagged payload buffers.

The paper packs serialized objects "into buffers with headers that include
routing tags and the serialization method, such that only the buffers need
be unpacked and deserialized at the destination" (section 4.6).

Wire format (all ASCII header, binary payload)::

    <method:2><\x1f><routing-tag><\x1f><payload-length:decimal><\n><payload>

The routing tag is free-form (task id, endpoint id, "result", ...) and is
readable without deserializing the payload, which is what lets forwarders
route buffers they cannot (and should not) decode.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import DeserializationError

_SEP = b"\x1f"
_END = b"\n"
_MAX_HEADER = 4096


class BufferHeader(NamedTuple):
    """Decoded buffer header."""

    method: str
    routing_tag: str
    payload_length: int


#: Just under glibc's 32 MiB ceiling for its dynamic mmap threshold on
#: 64-bit: freeing a larger block moves nothing.
_MAX_RESIDENT = 31 * 1024 * 1024


def keep_resident(nbytes: int) -> None:
    """Keep buffers of up to ``nbytes`` on the heap, their pages resident.

    glibc's default mmap and trim thresholds are both 128 KiB: a payload
    buffer that size gets a fresh ``mmap``, or is trimmed off the heap
    top when freed, and the next one faults its pages back in.  Freeing
    one mmapped block of ``nbytes`` raises the mmap threshold to that
    size and the trim threshold to twice it (mallopt(3), dynamic
    threshold); this call does that once per process.  A no-op on other
    allocators and when thresholds were set explicitly (``MALLOC_*``,
    ``GLIBC_TUNABLES``).
    """
    bytes(min(nbytes, _MAX_RESIDENT))  # allocated and freed at once


def pack_buffer(method: str, routing_tag: str, payload: bytes) -> bytes:
    """Pack ``payload`` into a routed buffer.

    Parameters
    ----------
    method:
        Two-character serialization-method identifier.
    routing_tag:
        Free-form routing string; must not contain the separator byte.
    payload:
        The serialized object bytes.
    """
    if len(method) != 2:
        raise ValueError(f"method identifier must be 2 chars, got {method!r}")
    tag_bytes = routing_tag.encode("utf-8")
    if _SEP in tag_bytes or _END in tag_bytes:
        raise ValueError("routing tag contains reserved separator bytes")
    # The wire format above, header and payload built in one step.
    return b"%s\x1f%s\x1f%d\n%s" % (
        method.encode("ascii"), tag_bytes, len(payload), payload)


def _parse_header(buffer: bytes) -> tuple[BufferHeader, int]:
    """The decoded header and the offset its payload starts at."""
    end = buffer.find(_END, 0, _MAX_HEADER)
    if end < 0:
        raise DeserializationError("buffer header terminator not found")
    header = buffer[:end]
    try:
        method_b, tag_b, length_b = header.split(_SEP)
        method = method_b.decode("ascii")
        tag = tag_b.decode("utf-8")
        length = int(length_b)
    except ValueError as exc:  # wrong field count, bad text or length
        raise DeserializationError(
            f"corrupt buffer header {header!r}: {exc}") from exc
    if len(method) != 2 or length < 0:
        raise DeserializationError(f"invalid buffer header fields: {header!r}")
    return BufferHeader(method, tag, length), end + 1


def peek_header(buffer: bytes) -> BufferHeader:
    """Decode only the header of a packed buffer (no payload copy)."""
    return _parse_header(buffer)[0]


def unpack_buffer(buffer: bytes) -> tuple[BufferHeader, memoryview]:
    """Split a packed buffer into its header and a view of its payload.

    One header parse and no copy: the payload is a ``memoryview`` over
    ``buffer`` (it compares equal to the bytes it covers and keeps
    ``buffer`` alive while referenced).

    Raises
    ------
    DeserializationError
        If the header is malformed or the payload is truncated.
    """
    header, start = _parse_header(buffer)
    payload = memoryview(buffer)[start : start + header.payload_length]
    if len(payload) != header.payload_length:
        raise DeserializationError(
            f"truncated payload: expected {header.payload_length} bytes, "
            f"got {len(payload)}"
        )
    return header, payload
