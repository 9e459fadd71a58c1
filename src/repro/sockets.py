"""Real-socket transports for the sans-I/O protocol stacks.

The paper's §5.4 deployability argument is that mcTLS slots into
applications with minimal effort.  This module provides the blocking
socket glue: run any endpoint implementing the
:class:`repro.core.Connection` protocol over a TCP socket, and any
:class:`repro.core.RelayProcessor` (mcTLS middlebox, SplitTLS proxy,
blind relay) between a listening socket and an upstream connection.
The glue is generic — no per-protocol branches; everything a transport
needs is in the formal connection interface.

Everything is synchronous and thread-per-connection — deliberately
simple, since the protocol logic lives in the sans-I/O cores and this is
just plumbing (and what `examples/` uses for live demos).  The
production-shaped concurrent twin of this module is ``repro.aio``; the
two expose the same surface (``connect`` / ``EndpointServer`` /
``RelayServer``) so callers can switch with one import.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import Connection, RelayProcessor
from repro.core.events import ApplicationData, Event
from repro.core.instrument import Instruments, ServerStats

RECV_SIZE = 65536

# A peer that streams garbage (e.g. a fault-injected mutator flipping
# length fields) can keep a pump loop consuming forever without ever
# satisfying its predicate.  Bound the damage: no sane handshake or
# single application exchange in this stack needs more than this many
# transport bytes.
MAX_PUMP_BYTES = 16 * 1024 * 1024

# Linux caps a single sendmsg at IOV_MAX (1024) iovecs.
_IOV_MAX = 1024


def drain_views(source, method: str = "data_to_send") -> List[bytes]:
    """Drain ``source``'s pending output as a chunk list.

    Uses the scatter-gather drain (``data_to_send_views`` et al.) when
    the object provides it, falling back to the joined drain so minimal
    :class:`repro.core.Connection` implementations (test doubles,
    third-party stacks) still work over this transport glue.
    """
    views_fn = getattr(source, method + "_views", None)
    if views_fn is not None:
        return views_fn()
    data = getattr(source, method)()
    return [data] if data else []


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
        views = drain_views(self.connection)
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


class RelayServer:
    """Accepts downstream connections and relays them upstream through a
    :class:`repro.core.RelayProcessor` (one relay instance per
    connection).  Keeps a :class:`ServerStats` ledger like the endpoint
    servers; ``instruments`` (optional) is attached to every fresh relay
    object so middlebox-level counters aggregate across sessions."""

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        upstream_addr: Tuple[str, int],
        relay_factory: Callable[[], RelayProcessor],
        instruments: Optional[Instruments] = None,
    ):
        self.listen_addr = listen_addr
        self.upstream_addr = upstream_addr
        self.relay_factory = relay_factory
        self.instruments = instruments
        self.stats = ServerStats(instruments=instruments)
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def snapshot(self) -> Dict[str, object]:
        return self.stats.snapshot()

    def start(self) -> "RelayServer":
        self._listener = socket.create_server(self.listen_addr)
        tune_socket(self._listener)
        self._listener.settimeout(0.2)
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                downstream, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._handle, args=(downstream,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _make_relay(self) -> RelayProcessor:
        relay = self.relay_factory()
        if self.instruments is not None:
            relay.instruments = self.instruments
        return relay

    def _handle(self, downstream: socket.socket) -> None:
        relay = self._make_relay()
        self.stats.add(accepted=1, active=1)
        try:
            upstream = socket.create_connection(self.upstream_addr, timeout=10)
        except OSError:
            self.stats.add(errors=1, active=-1)
            downstream.close()
            return
        for sock in (downstream, upstream):
            tune_socket(sock)
            sock.settimeout(0.1)

        def flush() -> None:
            to_server = drain_views(relay, "data_to_server")
            if to_server:
                self.stats.add(bytes_out=sendmsg_all(upstream, to_server))
            to_client = drain_views(relay, "data_to_client")
            if to_client:
                self.stats.add(bytes_out=sendmsg_all(downstream, to_client))

        # Track EOF per direction: one side half-closing must not stop
        # the relay from draining the other (a server can keep streaming
        # a response after the client shuts down its write side).
        open_sides = {id(downstream): True, id(upstream): True}
        try:
            while not self._stopping.is_set() and any(open_sides.values()):
                moved = False
                for sock, feed in (
                    (downstream, relay.receive_from_client),
                    (upstream, relay.receive_from_server),
                ):
                    if not open_sides[id(sock)]:
                        continue
                    try:
                        data = sock.recv(RECV_SIZE)
                    except socket.timeout:
                        continue
                    except OSError:
                        return
                    if not data:
                        open_sides[id(sock)] = False
                        continue
                    moved = True
                    self.stats.add(bytes_in=len(data))
                    try:
                        feed(data)
                    except Exception:
                        # Garbage from one peer (or a fault mutator)
                        # kills this relay session, never the server.
                        self.stats.add(errors=1)
                        return
                    flush()
                if not moved:
                    flush()
        finally:
            self.stats.add(active=-1)
            downstream.close()
            upstream.close()

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()


class EndpointServer:
    """Accepts connections and runs a fresh sans-I/O server connection
    plus a user handler for each.

    The server owns the handshake (handlers receive a
    :class:`SocketConnection` whose handshake has already completed, and
    may call :meth:`SocketConnection.handshake` again as a no-op), so
    stats and resumption accounting are uniform across handlers and
    symmetric with :class:`repro.aio.AsyncEndpointServer`.

    When ``session_cache`` is given, ``connection_factory`` is called
    with it as its single argument (instead of zero arguments) so every
    per-connection protocol object shares the one server-side
    :class:`repro.tls.sessioncache.SessionCache` — the deployment shape
    for resumption over real sockets.  ``instruments`` (optional) is
    attached to every per-connection protocol object, aggregating
    protocol-level counters across the server's lifetime.
    """

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        connection_factory: Callable[..., Connection],
        handler: Callable[[SocketConnection], None],
        session_cache: Optional[object] = None,
        instruments: Optional[Instruments] = None,
        handshake_timeout: float = 30.0,
    ):
        self.listen_addr = listen_addr
        self.connection_factory = connection_factory
        self.handler = handler
        self.session_cache = session_cache
        self.instruments = instruments
        self.handshake_timeout = handshake_timeout
        self.stats = ServerStats(instruments=instruments)
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def _make_connection(self) -> Connection:
        if self.session_cache is not None:
            connection = self.connection_factory(self.session_cache)
        else:
            connection = self.connection_factory()
        if self.instruments is not None:
            connection.instruments = self.instruments
        return connection

    def snapshot(self) -> Dict[str, object]:
        """Stats plus the session cache's hit/miss ledger, if attached."""
        snap = self.stats.snapshot()
        cache_stats = getattr(self.session_cache, "stats", None)
        if cache_stats is not None:
            snap["session_cache"] = cache_stats.snapshot()
        return snap

    def start(self) -> "EndpointServer":
        self._listener = socket.create_server(self.listen_addr)
        tune_socket(self._listener)
        self._listener.settimeout(0.2)
        threading.Thread(target=self._accept_loop, daemon=True).start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(sock,), daemon=True
            ).start()

    def _handle(self, sock: socket.socket) -> None:
        wrapper = SocketConnection(self._make_connection(), sock)
        self.stats.add(accepted=1, active=1)
        try:
            try:
                wrapper.handshake(self.handshake_timeout)
            except Exception:
                self.stats.add(handshakes_failed=1)
                return
            self.stats.add(handshakes_ok=1)
            if wrapper.connection.resumed:
                self.stats.add(resumed=1)
            try:
                self.handler(wrapper)
            except SessionEnded:
                pass  # peer finished cleanly mid-handler
            except socket.timeout:
                self.stats.add(timeouts=1)
            except (ConnectionError, OSError):
                self.stats.add(errors=1)
            except Exception:
                # A protocol error from a misbehaving peer (TLSError,
                # DecodeError, ...) ends this connection only.
                self.stats.add(errors=1)
        finally:
            self.stats.add(
                active=-1,
                bytes_in=wrapper.bytes_in,
                bytes_out=wrapper.bytes_out,
            )
            sock.close()

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()


def connect(
    addr: Tuple[str, int], connection: Connection, timeout: float = 10.0
) -> SocketConnection:
    """Dial ``addr`` and wrap ``connection`` over the socket."""
    sock = socket.create_connection(addr, timeout=timeout)
    return SocketConnection(connection, sock)
