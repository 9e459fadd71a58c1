"""Cursor-based receive buffer for record de-framing.

The record engine (:mod:`repro.tls.record`) used to consume its
receive buffer with ``del buf[:n]`` per record.  CPython's ``bytearray``
makes prefix deletion cheap (the ``ob_start`` offset optimisation), but
it is still a per-record call plus periodic internal copying; a cursor
makes the consume step an integer addition and batches reclamation into
one deletion per :meth:`append` once the dead prefix crosses a threshold.

The buffer deliberately exposes ``data``/``pos`` so record parsers can
run ``struct.unpack_from(self.data, self.pos)`` straight against the
underlying ``bytearray`` — no peek copies.  Callers must treat any
slice they keep past the next ``append``/``consume`` as volatile and
copy it out (``parse_record`` copies exactly once, into the record).
"""

from __future__ import annotations

# Reclaim the consumed prefix once it exceeds this many bytes (or the
# buffer is fully drained, which makes the deletion free).
_COMPACT_BYTES = 1 << 16


class RecordBuffer:
    """Append-at-tail, consume-by-cursor byte buffer."""

    __slots__ = ("data", "pos")

    def __init__(self) -> None:
        self.data = bytearray()
        self.pos = 0

    def __len__(self) -> int:
        return len(self.data) - self.pos

    def __bool__(self) -> bool:
        return len(self.data) > self.pos

    def append(self, chunk) -> None:
        pos = self.pos
        if pos and (pos >= len(self.data) or pos > _COMPACT_BYTES):
            del self.data[:pos]
            self.pos = 0
        self.data += chunk

    def consume(self, n: int) -> None:
        """Advance the cursor past ``n`` already-parsed bytes."""
        self.pos += n

    def take(self, n: int) -> bytes:
        """Copy out the next ``n`` bytes and advance the cursor."""
        start = self.pos
        end = start + n
        self.pos = end
        # memoryview slice: one copy (bytearray slicing would copy twice).
        return bytes(memoryview(self.data)[start:end])

    def clear(self) -> None:
        self.data.clear()
        self.pos = 0
