"""Byte-level encoding helpers shared by the TLS and mcTLS codecs.

TLS encodes everything as big-endian integers and length-prefixed opaque
vectors with 1-, 2- or 3-byte length fields.  :class:`Writer` and
:class:`Reader` provide exactly those operations plus strict bounds
checking, so message codecs stay declarative.

Every field operation is one Python frame: the fixed-width and vector
methods are made per width by the factories below rather than chained
through shared helpers, because handshake decoding calls them a few
hundred times per connection.
"""

from __future__ import annotations


class DecodeError(Exception):
    """Raised when incoming bytes cannot be parsed as the expected shape."""


def _write_uint(size: int):
    limit = 1 << (8 * size)

    def write(self, value: int) -> "Writer":
        if value < 0 or value >= limit:
            raise ValueError(f"{value} does not fit in {size} bytes")
        self._chunks.append(value.to_bytes(size, "big"))
        return self

    return write


def _write_vec(length_size: int, text: bool = False):
    limit = 1 << (8 * length_size)

    def write(self, data) -> "Writer":
        if text:
            data = data.encode("utf-8")
        if len(data) >= limit:
            raise ValueError("vector too long for its length prefix")
        self._chunks += (len(data).to_bytes(length_size, "big"), bytes(data))
        return self

    return write


class Writer:
    """Accumulates a wire-format message."""

    def __init__(self) -> None:
        self._chunks = []

    u8 = _write_uint(1)
    u16 = _write_uint(2)
    u24 = _write_uint(3)
    u32 = _write_uint(4)
    u64 = _write_uint(8)

    def raw(self, data: bytes) -> "Writer":
        self._chunks.append(bytes(data))
        return self

    vec8 = _write_vec(1)
    vec16 = _write_vec(2)
    vec24 = _write_vec(3)

    string8 = _write_vec(1, text=True)
    string16 = _write_vec(2, text=True)

    def bytes(self) -> bytes:
        return b"".join(self._chunks)

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)


def _read_uint(size: int):
    def read(self) -> int:
        start = self._offset
        end = start + size
        if end > len(self._data):
            raise DecodeError("message truncated")
        self._offset = end
        return int.from_bytes(self._data[start:end], "big")

    return read


def _read_vec(length_size: int, text: bool = False):
    def read(self):
        data, start = self._data, self._offset + length_size
        if start > len(data):
            raise DecodeError("message truncated")
        end = start + int.from_bytes(data[self._offset : start], "big")
        if end > len(data):
            raise DecodeError("message truncated")
        self._offset = end
        if not text:
            return data[start:end]
        try:
            return data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in string field") from exc

    return read


class Reader:
    """Consumes a wire-format message with strict bounds checking."""

    def __init__(self, data: bytes):
        self._data = data
        self._offset = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    @property
    def exhausted(self) -> bool:
        return self._offset == len(self._data)

    def expect_end(self) -> None:
        if self._offset != len(self._data):
            raise DecodeError(f"{self.remaining} unexpected trailing bytes")

    def u8(self) -> int:
        offset = self._offset
        if offset >= len(self._data):
            raise DecodeError("message truncated")
        self._offset = offset + 1
        return self._data[offset]

    u16 = _read_uint(2)
    u24 = _read_uint(3)
    u32 = _read_uint(4)
    u64 = _read_uint(8)

    def raw(self, n: int) -> bytes:
        start = self._offset
        if n < 0 or start + n > len(self._data):
            raise DecodeError("message truncated")
        self._offset = start + n
        return self._data[start : start + n]

    def rest(self) -> bytes:
        start, self._offset = self._offset, len(self._data)
        return self._data[start:]

    vec8 = _read_vec(1)
    vec16 = _read_vec(2)
    vec24 = _read_vec(3)
    string8 = _read_vec(1, text=True)
    string16 = _read_vec(2, text=True)
