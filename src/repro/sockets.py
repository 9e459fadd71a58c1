"""Blocking-socket client glue and the socket helpers the runtimes share.

The paper's §5.4 deployability argument is that mcTLS slots into
applications with minimal effort.  Serving is ``repro.aio``'s job (and
``repro.mp``'s, which shards it across processes); this module keeps
what a plain blocking program needs to *dial* such a server —
:class:`SocketConnection` / :func:`connect` drive any endpoint
implementing the :class:`repro.core.Connection` protocol over a TCP
socket, with no per-protocol branches — plus the transport constants
and helpers both sides use (:func:`tune_socket`, :class:`SessionEnded`,
``RECV_SIZE``, ``MAX_PUMP_BYTES``, :func:`sendmsg_all`).
"""

from __future__ import annotations

import socket
from typing import Callable, List, Optional, Tuple

from repro.core import Connection
from repro.core.events import ApplicationData, Event

RECV_SIZE = 65536

# A peer that streams garbage (e.g. a fault-injected mutator flipping
# length fields) can keep a pump loop consuming forever without ever
# satisfying its predicate.  Bound the damage: no sane handshake or
# single application exchange in this stack needs more than this many
# transport bytes.
MAX_PUMP_BYTES = 16 * 1024 * 1024

# Linux caps a single sendmsg at IOV_MAX (1024) iovecs.
_IOV_MAX = 1024


def sendmsg_all(sock: socket.socket, views: List[bytes]) -> int:
    """Send every chunk in ``views``, scatter-gather where possible.

    The sans-I/O cores queue one chunk per record; ``sendmsg`` hands
    the kernel the whole list without a userspace join.  Handles partial sends by advancing through the
    chunk list, honours ``IOV_MAX``, and falls back to join +
    ``sendall`` on sockets without ``sendmsg``.  Returns bytes sent.
    """
    total = sum(len(v) for v in views)
    if not total:
        return 0
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - exotic sockets
        sock.sendall(b"".join(views))
        return total
    queue = [v for v in views if v]
    while queue:
        sent = sock.sendmsg(queue[:_IOV_MAX])
        # Drop fully-sent chunks; trim a partially-sent head.
        i = 0
        while i < len(queue) and sent >= len(queue[i]):
            sent -= len(queue[i])
            i += 1
        if i:
            del queue[:i]
        if sent and queue:
            queue[0] = memoryview(queue[0])[sent:]
    return total


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


class SocketConnection:
    """Drives a :class:`repro.core.Connection` over a blocking socket."""

    def __init__(self, connection: Connection, sock: socket.socket):
        self.connection = connection
        self.sock = sock
        tune_socket(sock)
        self.events: List[Event] = []
        self.bytes_in = 0
        self.bytes_out = 0

    def flush(self) -> None:
        views = self.connection.data_to_send_views()
        if views:
            self.bytes_out += sendmsg_all(self.sock, views)

    def _on_eof(self) -> None:
        """The peer half-closed.  After the handshake this is how plain
        TCP peers signal "done" (many don't bother with close_notify);
        mid-handshake it can only be a failure."""
        if self.connection.handshake_complete or self.connection.closed:
            raise SessionEnded("peer ended the session")
        raise ConnectionError("peer closed the connection mid-handshake")

    def pump_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 30.0,
        max_bytes: int = MAX_PUMP_BYTES,
    ) -> None:
        """Receive and process until ``predicate()`` holds.

        Bounded two ways: ``timeout`` on each receive, and ``max_bytes``
        of total transport input — a peer streaming garbage forever
        (fault mutators do) gets a ``ConnectionError``, not an unbounded
        loop.
        """
        self.sock.settimeout(timeout)
        self.flush()
        consumed = 0
        while not predicate():
            data = self.sock.recv(RECV_SIZE)
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
            self.flush()

    def handshake(self, timeout: float = 30.0) -> None:
        if not self.connection.handshake_complete:
            # start_handshake() is part of the Connection protocol: a
            # no-op on passive (server) sides, the ClientHello elsewhere.
            self.connection.start_handshake()
            # Protocols whose handshake completes instantly (plain TCP)
            # queue their HandshakeComplete during start; drain it.
            self.events.extend(self.connection.receive_data(b""))
        self.pump_until(lambda: self.connection.handshake_complete, timeout)

    def send(self, data: bytes, context_id: Optional[int] = None) -> None:
        if context_id is None:
            self.connection.send_application_data(data)
        else:
            self.connection.send_application_data(data, context_id=context_id)
        self.flush()

    def recv_app_data(self, timeout: float = 30.0):
        """Block until the next application-data event arrives.

        Raises :class:`SessionEnded` if the session ends first — whether
        by close_notify (the connection marks itself closed) or by the
        peer's orderly EOF — so half-close behaves identically to the
        asyncio runtime.
        """

        def ready():
            return self.connection.closed or any(
                isinstance(e, ApplicationData) for e in self.events
            )

        self.pump_until(ready, timeout)
        for i, event in enumerate(self.events):
            if isinstance(event, ApplicationData):
                return self.events.pop(i)
        raise SessionEnded("session closed before application data")

    def close(self) -> None:
        try:
            self.connection.close()
            self.flush()
        finally:
            self.sock.close()


def connect(
    addr: Tuple[str, int], connection: Connection, timeout: float = 10.0
) -> SocketConnection:
    """Dial ``addr`` and wrap ``connection`` over the socket."""
    sock = socket.create_connection(addr, timeout=timeout)
    return SocketConnection(connection, sock)
