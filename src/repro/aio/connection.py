"""Asyncio driver for a single sans-I/O endpoint connection.

:class:`AsyncConnection` is an :class:`asyncio.BufferedProtocol`: every
read lands in ``buffer_updated``, which feeds any
:class:`repro.core.Connection` (plain TLS, mcTLS, or the plaintext
baseline), queues its events and writes its answer straight to the
transport — no task, timer or future per read.  The coroutine API waits
on at most one future, woken by those callbacks, under one deadline
timer per wait.  The protocol object never sees the event loop;
everything stays ``receive_data()`` / ``data_to_send()``.

Flow control is honoured on both sides: ``send`` / ``flush`` await only
while the transport is write-paused (a slow peer back-pressures the
sender instead of ballooning memory), and reading pauses while
undelivered application data exceeds ``RECV_SIZE``.  That wait runs
under the same ``default_timeout`` deadline as a pump, and a close that
still holds unsent bytes aborts the transport once ``default_timeout``
passes, so a peer that stops reading cannot hold a handler or a slot.
``send`` is also the runtime's one scheduling point: once a connection
has written ``RECV_SIZE`` bytes since it last waited, it yields to the
loop once before it seals more, so the parties sharing a loop each take
a full receive buffer while a streaming sender still seals the rest
(EXPERIMENTS.md, "The chain pipelines": ``bulk_transfer`` first byte
8.2 -> 3.0 ms; a one-record budget, 1.1 ms, cost 4 % goodput).

Every connection of a loop reads into one shared ``RECV_SIZE`` buffer
(``get_buffer -> recv_into -> buffer_updated`` is synchronous); the
bytes are copied out before a core sees them, because cores keep what
they are given.  Measured (EXPERIMENTS.md, PR 22): ``data_received``
reads up to 256 KiB, 16 bulk records per callback, ``bulk_transfer``
first byte +38 %; a buffer per connection, RSS +10-15 % under churn.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.core import Connection
from repro.core.events import ApplicationData, Event

__all__ = ["AsyncConnection", "SessionEnded", "attach", "connect"]

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


_local = threading.local()


def recv_buffer() -> memoryview:
    """The one receive buffer of this thread, hence of the loop on it."""
    if not hasattr(_local, "buffer"):
        _local.buffer = memoryview(bytearray(RECV_SIZE))
    return _local.buffer


class AsyncConnection(asyncio.BufferedProtocol):
    """Drives a :class:`repro.core.Connection` from transport callbacks.

    Built by :func:`connect` / :func:`attach`; one coroutine drives it
    at a time.  ``default_timeout`` bounds every pump that does not pass
    an explicit timeout — servers set it from their idle-timeout knob so
    one stalled peer cannot pin a handler task forever.
    """

    bytes_in = bytes_out = 0
    transport: Optional[asyncio.Transport] = None
    _waiter: Optional[asyncio.Future] = None
    _error: Optional[BaseException] = None  # raised by the next pump
    _eof = _lost = _expired = _write_paused = False
    _app_bytes = 0  # undelivered; reading pauses above RECV_SIZE
    _consumed = 0  # transport bytes since a pump last made progress
    _max_bytes = MAX_PUMP_BYTES

    def __init__(self, connection: Connection, default_timeout: float = 30.0):
        self.connection = connection
        self.default_timeout = default_timeout
        self.events: List[Event] = []  # everything but application data
        self._app: Deque[ApplicationData] = deque()
        self._loop = asyncio.get_running_loop()
        self._buffer = recv_buffer()
        self._waited_at = 0  # bytes_out when this connection last waited

    # -- transport callbacks ---------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.bytes_in += nbytes
        self._consumed += nbytes
        try:
            self._check_bound()
            self._deliver(self.connection.receive_data(bytes(self._buffer[:nbytes])))
            self._write()
        except Exception as exc:
            self._error = self._error or exc
            self.transport.pause_reading()
        self._wake()

    def _check_bound(self) -> None:
        if self._consumed > self._max_bytes:
            raise ConnectionError(
                f"consumed {self._consumed} bytes without progress (bound: {self._max_bytes})"
            )

    def _deliver(self, events: List[Event]) -> None:
        for event in events:
            if isinstance(event, ApplicationData):
                self._app.append(event)
                self._app_bytes += len(event.data)
            else:
                self.events.append(event)
        if self._app_bytes > RECV_SIZE:
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # half-close: the write side stays open

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = self._lost = True
        self._write_paused = False
        self._error = self._error or exc
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _expire(self) -> None:
        self._expired = True
        self._wake()

    # -- coroutine API ---------------------------------------------------

    def _write(self) -> None:
        views = self.connection.data_to_send_views()
        if views:
            if self.transport.is_closing():
                raise self._error or ConnectionResetError("connection lost")
            self.bytes_out += sum(map(len, views))
            self.transport.writelines(views)

    async def _wait(self) -> None:
        self._waited_at = self.bytes_out
        self._waiter = self._loop.create_future()
        await self._waiter

    async def flush(self) -> None:
        """Write what the core holds; wait only while write-paused, and
        no longer than ``default_timeout``."""
        self._write()
        if self._write_paused:
            self._expired = False
            timer = self._loop.call_later(self.default_timeout, self._expire)
            try:
                while self._write_paused:
                    if self._expired:
                        raise asyncio.TimeoutError(
                            f"write-paused for {self.default_timeout:.1f}s"
                        )
                    await self._wait()
            finally:
                timer.cancel()

    async def pump_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        max_bytes: int = MAX_PUMP_BYTES,
    ) -> None:
        """Wait until ``predicate()`` holds over what the callbacks feed.

        Bounded by one deadline (``timeout`` seconds over the whole pump,
        not per read) and by ``max_bytes`` of transport input since the
        last pump that made progress, so a peer streaming garbage
        forever cannot pin the task.
        """
        if timeout is None:
            timeout = self.default_timeout
        self._max_bytes = max_bytes
        await self.flush()
        timer = None
        try:
            while not predicate():
                if self._error is not None:
                    raise self._error
                if self._eof:
                    self._on_eof()
                self._check_bound()
                if timer is None:
                    self._expired = False
                    timer = self._loop.call_later(timeout, self._expire)
                elif self._expired:
                    raise asyncio.TimeoutError(f"no progress within {timeout:.1f}s")
                await self._wait()
            self._consumed = 0
        finally:
            if timer is not None:
                timer.cancel()

    def _on_eof(self) -> None:
        """The peer half-closed.  After the handshake this is how plain
        TCP peers signal "done" (many don't bother with close_notify);
        mid-handshake it can only be a failure."""
        if self.connection.handshake_complete or self.connection.closed:
            raise SessionEnded("peer ended the session")
        raise ConnectionError("peer closed the connection mid-handshake")

    async def handshake(self, timeout: Optional[float] = None) -> None:
        if not self.connection.handshake_complete:
            # A no-op on passive (server) sides, the ClientHello elsewhere.
            self.connection.start_handshake()
            # Protocols whose handshake completes instantly (plain TCP)
            # queue their HandshakeComplete during start; drain it.
            self._deliver(self.connection.receive_data(b""))
        await self.pump_until(lambda: self.connection.handshake_complete, timeout)

    async def send(self, data: bytes, context_id: Optional[int] = None) -> None:
        if self.bytes_out - self._waited_at >= RECV_SIZE:
            # A receive buffer's worth since this connection last waited:
            # let the reader on the other end of the loop take it first.
            self._waited_at = self.bytes_out
            await asyncio.sleep(0)
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
        await self.pump_until(lambda: self._app or self.connection.closed, timeout)
        if not self._app:
            raise SessionEnded("session closed before application data")
        event = self._app.popleft()
        self._app_bytes -= len(event.data)
        if self._app_bytes <= RECV_SIZE and self._error is None:
            self.transport.resume_reading()
        return event

    async def close(self) -> None:
        try:
            self.connection.close()
            self._write()
        except (ConnectionError, OSError):
            pass
        finally:
            self.transport.close()
            abort = None
            if self.transport.get_write_buffer_size():  # a peer that stopped reading
                abort = self._loop.call_later(self.default_timeout, self.transport.abort)
            try:
                while not self._lost:
                    await self._wait()
            finally:
                if abort is not None:
                    abort.cancel()


async def connect(
    addr: Tuple[str, int],
    connection: Connection,
    timeout: float = 10.0,
    default_timeout: float = 30.0,
) -> AsyncConnection:
    """Dial ``addr`` and drive ``connection`` over the new socket."""
    conn = AsyncConnection(connection, default_timeout)
    await asyncio.wait_for(
        asyncio.get_running_loop().create_connection(lambda: conn, *addr), timeout
    )
    return conn


async def attach(
    sock: socket.socket, connection: Connection, default_timeout: float = 30.0
) -> AsyncConnection:
    """Drive ``connection`` over an already connected (accepted) socket."""
    conn = AsyncConnection(connection, default_timeout)
    await asyncio.get_running_loop().create_connection(lambda: conn, sock=sock)
    return conn
