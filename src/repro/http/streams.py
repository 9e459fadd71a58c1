"""Multiplexed streams over mcTLS contexts (the HTTP/2 use case, §4.2).

"One of the features of HTTP/2 is multiplexing multiple streams over a
single transport connection. mcTLS allows browsers to easily set
different access controls for each stream."

:class:`StreamMultiplexer` maps logical streams onto encryption contexts:
each stream is bound to one context at creation, so per-stream access
control falls out of mcTLS's per-context permissions.  Frames are
length-prefixed with a stream id, so several streams can share a context
(e.g. all image streams in a "middlebox may compress" context while API
streams live in an endpoint-only context).

Frame format (inside a context's record stream)::

    stream_id(4) || flags(1) || length(3) || payload

Flags: 0x01 = END_STREAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

FLAG_END_STREAM = 0x01
_FRAME_HEADER = 8
MAX_FRAME_PAYLOAD = (1 << 24) - 1


class StreamError(Exception):
    """Raised on protocol violations in the stream layer."""


@dataclass
class StreamEvent:
    """Data (or end-of-stream) delivered for one stream."""

    stream_id: int
    context_id: int
    data: bytes
    end_stream: bool = False


def encode_frame(stream_id: int, payload: bytes, end_stream: bool = False) -> bytes:
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise StreamError("frame payload too long")
    flags = FLAG_END_STREAM if end_stream else 0
    return (
        stream_id.to_bytes(4, "big")
        + bytes([flags])
        + len(payload).to_bytes(3, "big")
        + payload
    )


class _FrameBuffer:
    """Reassembles frames from one context's byte stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, int, bytes]]:
        self._buf += data
        frames = []
        while len(self._buf) >= _FRAME_HEADER:
            stream_id = int.from_bytes(self._buf[:4], "big")
            flags = self._buf[4]
            length = int.from_bytes(self._buf[5:8], "big")
            if len(self._buf) < _FRAME_HEADER + length:
                break
            payload = bytes(self._buf[_FRAME_HEADER : _FRAME_HEADER + length])
            del self._buf[: _FRAME_HEADER + length]
            frames.append((stream_id, flags, payload))
        return frames


class StreamMultiplexer:
    """Logical streams over an mcTLS connection's contexts.

    One multiplexer per endpoint.  Both endpoints must open streams with
    the same (stream_id → context) binding; by convention the client uses
    odd stream ids and the server even ones (like HTTP/2), so ids never
    collide.
    """

    def __init__(self, connection, is_client: bool = True):
        self.connection = connection
        self.is_client = is_client
        self._next_id = 1 if is_client else 2
        self._stream_context: Dict[int, int] = {}
        self._closed_local: set = set()
        self._closed_remote: set = set()
        self._buffers: Dict[int, _FrameBuffer] = {}

    # -- opening / sending ----------------------------------------------

    def open_stream(self, context_id: int, stream_id: Optional[int] = None) -> int:
        """Open a stream bound to ``context_id``; returns the stream id."""
        if stream_id is None:
            stream_id = self._next_id
            self._next_id += 2
        if stream_id in self._stream_context:
            raise StreamError(f"stream {stream_id} already open")
        self._stream_context[stream_id] = context_id
        return stream_id

    def send(self, stream_id: int, data: bytes, end_stream: bool = False) -> None:
        context_id = self._context_for(stream_id)
        if stream_id in self._closed_local:
            raise StreamError(f"stream {stream_id} already closed locally")
        frame = encode_frame(stream_id, data, end_stream=end_stream)
        self.connection.send_application_data(frame, context_id=context_id)
        if end_stream:
            self._closed_local.add(stream_id)

    def _context_for(self, stream_id: int) -> int:
        try:
            return self._stream_context[stream_id]
        except KeyError:
            raise StreamError(f"unknown stream {stream_id}") from None

    # -- receiving -----------------------------------------------------------

    def on_application_data(self, context_id: int, data: bytes) -> List[StreamEvent]:
        """Feed one context's application data; returns stream events.

        A peer-opened stream is registered implicitly with the context it
        first appears in.
        """
        buffer = self._buffers.setdefault(context_id, _FrameBuffer())
        events = []
        for stream_id, flags, payload in buffer.feed(data):
            bound = self._stream_context.setdefault(stream_id, context_id)
            if bound != context_id:
                raise StreamError(
                    f"stream {stream_id} moved contexts ({bound} → {context_id})"
                )
            end = bool(flags & FLAG_END_STREAM)
            if stream_id in self._closed_remote:
                raise StreamError(f"data on remotely closed stream {stream_id}")
            if end:
                self._closed_remote.add(stream_id)
            events.append(
                StreamEvent(
                    stream_id=stream_id,
                    context_id=context_id,
                    data=payload,
                    end_stream=end,
                )
            )
        return events
