"""Asyncio driver for a single sans-I/O endpoint connection.

:class:`AsyncConnection` owns a :class:`asyncio.StreamReader` /
:class:`asyncio.StreamWriter` pair and pumps transport bytes through any
:class:`repro.core.Connection` (plain TLS, mcTLS, or the plaintext
baseline).  The protocol object never sees the event loop; everything
stays ``receive_data()`` / ``data_to_send()``.

Flow control is honoured on both sides: reads go through the stream
reader (bounded buffer), writes ``drain()`` after every flush so a slow
peer back-pressures the sender instead of ballooning memory.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, List, Optional, Tuple

from repro.core import Connection
from repro.core.events import ApplicationData, Event

__all__ = ["AsyncConnection", "SessionEnded", "connect"]

RECV_SIZE = 65536

# A peer that streams garbage (e.g. a fault-injected mutator flipping
# length fields) can keep a pump loop consuming forever without ever
# satisfying its predicate.  Bound the damage: no sane handshake or
# single application exchange in this stack needs more than this many
# transport bytes.
MAX_PUMP_BYTES = 16 * 1024 * 1024


class SessionEnded(ConnectionError):
    """The peer ended the session cleanly (close_notify or orderly EOF).

    Subclasses :class:`ConnectionError` so existing ``except
    ConnectionError`` handlers keep working, while letting callers that
    care distinguish a clean end from a torn connection.
    """


def tune_socket(sock: socket.socket) -> None:
    """Apply the transport options every socket in this stack wants.

    ``TCP_NODELAY`` because the sans-I/O cores already emit whole flights
    (Nagle only adds latency between our record-sized writes);
    ``SO_REUSEADDR`` so benchmark/test servers can rebind a
    just-released port instead of tripping over TIME_WAIT.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - non-TCP sockets
        pass
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    except (OSError, AttributeError):  # pragma: no cover
        pass


class AsyncConnection:
    """Drives a :class:`repro.core.Connection` over asyncio streams.

    ``default_timeout`` bounds every pump that does not pass an explicit
    timeout — servers set it from their idle-timeout knob so one stalled
    peer cannot pin a handler task forever.
    """

    def __init__(
        self,
        connection: Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        default_timeout: float = 30.0,
    ):
        self.connection = connection
        self.reader = reader
        self.writer = writer
        self.default_timeout = default_timeout
        self.events: List[Event] = []
        self.bytes_in = 0
        self.bytes_out = 0
        sock = writer.get_extra_info("socket")
        if sock is not None:
            tune_socket(sock)

    async def flush(self) -> None:
        views = self.connection.data_to_send_views()
        if views:
            self.bytes_out += sum(len(v) for v in views)
            # Scatter-gather: hand the per-record chunks straight to the
            # transport instead of joining them in userspace first.
            self.writer.writelines(views)
            await self.writer.drain()

    def _on_eof(self) -> None:
        """The peer half-closed.  After the handshake this is how plain
        TCP peers signal "done" (many don't bother with close_notify);
        mid-handshake it can only be a failure."""
        if self.connection.handshake_complete or self.connection.closed:
            raise SessionEnded("peer ended the session")
        raise ConnectionError("peer closed the connection mid-handshake")

    async def pump_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        max_bytes: int = MAX_PUMP_BYTES,
    ) -> None:
        """Receive and process until ``predicate()`` holds.

        Bounded by a deadline (``timeout`` seconds over the whole pump,
        not per read) and by ``max_bytes`` of transport input, so a peer
        streaming garbage forever cannot pin the task.
        """
        if timeout is None:
            timeout = self.default_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        await self.flush()
        consumed = 0
        while not predicate():
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"pump_until deadline ({timeout:.1f}s) exceeded"
                )
            data = await asyncio.wait_for(self.reader.read(RECV_SIZE), remaining)
            if not data:
                self._on_eof()
            consumed += len(data)
            self.bytes_in += len(data)
            if consumed > max_bytes:
                raise ConnectionError(
                    f"pump_until consumed {consumed} bytes without progress "
                    f"(bound: {max_bytes})"
                )
            self.events.extend(self.connection.receive_data(data))
            await self.flush()

    async def handshake(self, timeout: Optional[float] = None) -> None:
        if not self.connection.handshake_complete:
            # start_handshake() is part of the Connection protocol: a
            # no-op on passive (server) sides, the ClientHello elsewhere.
            self.connection.start_handshake()
            # Protocols whose handshake completes instantly (plain TCP)
            # queue their HandshakeComplete during start; drain it.
            self.events.extend(self.connection.receive_data(b""))
        await self.pump_until(
            lambda: self.connection.handshake_complete, timeout
        )

    async def send(self, data: bytes, context_id: Optional[int] = None) -> None:
        if context_id is None:
            self.connection.send_application_data(data)
        else:
            self.connection.send_application_data(data, context_id=context_id)
        await self.flush()

    async def recv_app_data(self, timeout: Optional[float] = None):
        """Wait for the next application-data event.

        Raises :class:`SessionEnded` if the session ends first (by
        close_notify — the connection marks itself closed — or the
        peer's orderly EOF).
        """

        def ready():
            return self.connection.closed or any(
                isinstance(e, ApplicationData) for e in self.events
            )

        await self.pump_until(ready, timeout)
        for i, event in enumerate(self.events):
            if isinstance(event, ApplicationData):
                return self.events.pop(i)
        raise SessionEnded("session closed before application data")

    async def close(self) -> None:
        try:
            self.connection.close()
            await self.flush()
        except (ConnectionError, OSError):
            pass
        finally:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def connect(
    addr: Tuple[str, int],
    connection: Connection,
    timeout: float = 10.0,
    default_timeout: float = 30.0,
) -> AsyncConnection:
    """Dial ``addr`` and wrap ``connection`` over the stream pair."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*addr), timeout
    )
    return AsyncConnection(
        connection, reader, writer, default_timeout=default_timeout
    )
