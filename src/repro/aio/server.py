"""Production-shaped asyncio servers for endpoints and middleboxes.

Two servers, both on transport callbacks (no coroutine per read):

* :class:`AsyncEndpointServer` — accepts connections and runs a fresh
  sans-I/O server connection (TLS / mcTLS / plain) plus an async user
  handler for each;
* :class:`AsyncRelayServer` — accepts downstream connections and relays
  them upstream through a two-sided relay object (mcTLS middlebox,
  SplitTLS proxy, blind relay): one instance, two protocols per session.

Both are built for load, not demos:

* **accept-backpressure** — a max-concurrent-connections semaphore is
  acquired *before* ``accept()``; excess connections queue in the kernel
  backlog instead of spawning unbounded tasks;
* **timeouts** — a handshake deadline and an idle deadline per
  connection, one timer each (activity postpones it; no timer per
  read), so stalled, dripping or malicious peers cannot pin tasks; a
  handler's write-paused ``send`` waits under the idle deadline too, and
  a close that still holds unsent bytes aborts once that deadline
  passes, so neither can a peer that stops reading;
* **flow control** — a write-paused transport stops the handler's
  ``send`` or pauses the relay's reads on the opposite socket, so a slow
  reader back-pressures the pipeline instead of buffering without bound;
* **error isolation** — a failure (protocol garbage from a fault-injected
  peer included) ends that connection only, never the accept loop;
* **graceful shutdown** — :meth:`stop` closes the listener, then lets
  in-flight sessions finish (``graceful=False``: cancels them);
* **stats** — a :class:`ServerStats` ledger per server (session-cache
  hit rates included when a ``SessionCache`` is attached).
"""

from __future__ import annotations

import asyncio
import socket
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.aio.connection import AsyncConnection, SessionEnded, attach, recv_buffer
from repro.core import Connection, RelayProcessor
from repro.core.instrument import Instruments, ServerStats

__all__ = ["AsyncEndpointServer", "AsyncRelayServer", "ServerStats"]

BACKLOG = 512  # the listener's kernel accept queue
CONNECT_TIMEOUT_S = 10.0  # a relay's dial to its upstream


class _AsyncServerBase:
    """Shared accept loop: semaphore-gated, task-tracked, stoppable."""

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        max_connections: int = 256,
        instruments: Optional[Instruments] = None,
    ):
        self.listen_addr = listen_addr
        self.max_connections = max_connections
        self.instruments = instruments
        self.stats = ServerStats(instruments=instruments)
        self._listener: Optional[socket.socket] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._accept_task: Optional[asyncio.Task] = None
        self._tasks: Set[asyncio.Task] = set()
        self._stopping = False

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    async def start(self) -> "_AsyncServerBase":
        self._listener = socket.create_server(self.listen_addr, backlog=BACKLOG)
        self._listener.setblocking(False)
        self._sem = asyncio.Semaphore(self.max_connections)
        self._accept_task = asyncio.create_task(self._accept_loop())
        return self

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping:
            # Backpressure: hold the accept until a connection slot
            # frees up; pending peers wait in the kernel backlog.
            await self._sem.acquire()
            try:
                conn, _ = await loop.sock_accept(self._listener)
            except (OSError, asyncio.CancelledError):
                self._sem.release()
                return
            self.stats.accepted += 1
            self.stats.active += 1
            task = asyncio.create_task(self._guarded_handle(conn))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _guarded_handle(self, conn: socket.socket) -> None:
        try:
            # asyncio sets TCP_NODELAY only where ``sock.proto`` says TCP; one
            # accepted from ``create_server``'s listener says 0 (Nagle: +40 ms).
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            await self._handle(conn)
        except asyncio.CancelledError:
            raise
        except Exception:
            # Nothing a single connection does may reach the accept
            # loop.  Specific failure accounting happens in _handle;
            # this is the last-resort bulkhead.
            self.stats.errors += 1
        finally:
            self.stats.active -= 1
            self._sem.release()
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    async def _handle(self, conn: socket.socket) -> None:
        raise NotImplementedError

    async def stop(self, graceful: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting; finish (graceful) or cancel in-flight sessions."""
        self._stopping = True
        if self._accept_task is not None:
            self._accept_task.cancel()
            try:
                await self._accept_task
            except asyncio.CancelledError:
                pass
            self._accept_task = None
        if self._listener is not None:
            self._listener.close()
        tasks = set(self._tasks)
        if tasks:
            if not graceful:
                for task in tasks:
                    task.cancel()
            done, pending = await asyncio.wait(tasks, timeout=timeout)
            if pending:
                # Graceful drain exceeded its budget; cut the stragglers.
                for task in pending:
                    task.cancel()
                await asyncio.wait(pending)
        self._tasks.clear()


class AsyncEndpointServer(_AsyncServerBase):
    """Accepts connections and runs a fresh sans-I/O server connection
    plus an async user handler for each.

    ``handler`` is an async callable taking an :class:`AsyncConnection`
    whose handshake has **already completed** — the server owns the
    handshake (and its timeout) so stats and resumption accounting are
    uniform across handlers.

    When ``session_cache`` is given, ``connection_factory`` is called
    with the cache as its single argument, so all per-connection
    protocol objects share one server-side session cache (the
    deployment shape for resumption); otherwise it is called with no
    arguments.
    """

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        connection_factory: Callable[..., Connection],
        handler: Callable[[AsyncConnection], Awaitable[None]],
        session_cache: Optional[object] = None,
        max_connections: int = 256,
        handshake_timeout: float = 30.0,
        idle_timeout: float = 30.0,
        instruments: Optional[Instruments] = None,
    ):
        super().__init__(listen_addr, max_connections, instruments)
        self.connection_factory = connection_factory
        self.handler = handler
        self.session_cache = session_cache
        self.handshake_timeout = handshake_timeout
        self.idle_timeout = idle_timeout

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
        snap: Dict[str, object] = self.stats.snapshot()
        cache_stats = getattr(self.session_cache, "stats", None)
        if cache_stats is not None:
            snap["session_cache"] = cache_stats.snapshot()
        return snap

    async def _handle(self, raw: socket.socket) -> None:
        conn = await attach(raw, self._make_connection(), self.idle_timeout)
        try:
            try:
                await conn.handshake(self.handshake_timeout)
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.handshakes_failed += 1
                return
            self.stats.handshakes_ok += 1
            if conn.connection.resumed:
                self.stats.resumed += 1
            try:
                await self.handler(conn)
            except SessionEnded:
                pass  # peer finished cleanly mid-handler
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.errors += 1
        finally:
            self.stats.bytes_in += conn.bytes_in
            self.stats.bytes_out += conn.bytes_out
            await conn.close()


class AsyncRelayServer(_AsyncServerBase):
    """Accepts downstream connections and relays them upstream through a
    two-sided relay object (one relay instance per connection).

    Half-close is relayed per direction while the opposite one keeps
    draining (a server may stream long after the client stops talking).
    A relay raising on garbage input ends that session only, once what
    it still holds for either side (fatal alerts included) is written.
    """

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        upstream_addr: Tuple[str, int],
        relay_factory: Callable[[], RelayProcessor],
        max_connections: int = 256,
        idle_timeout: float = 30.0,
        instruments: Optional[Instruments] = None,
    ):
        super().__init__(listen_addr, max_connections, instruments)
        self.upstream_addr = upstream_addr
        self.relay_factory = relay_factory
        self.idle_timeout = idle_timeout

    def _make_relay(self) -> RelayProcessor:
        relay = self.relay_factory()
        if self.instruments is not None:
            relay.instruments = self.instruments
        return relay

    async def _handle(self, raw: socket.socket) -> None:
        loop = asyncio.get_running_loop()
        session = _RelaySession(self.stats, self._make_relay(), self.idle_timeout)
        try:
            await asyncio.wait_for(
                loop.create_connection(lambda: session.up, *self.upstream_addr),
                CONNECT_TIMEOUT_S,
            )
            await loop.create_connection(lambda: session.down, sock=raw)
            await session.closed.wait()
        except (OSError, asyncio.TimeoutError):  # no upstream, no session
            self.stats.errors += 1
        finally:
            # Cancelled or half-built: cut what is open, leave no socket behind.
            session.abort()
            await session.closed.wait()


class _RelaySide(asyncio.BufferedProtocol):
    """One socket of a relay session: its reads feed one direction of
    the relay core; the session writes what that produced to both."""

    transport: Optional[asyncio.Transport] = None
    peer: "_RelaySide" = None

    def __init__(self, session: "_RelaySession", feed: Callable[[bytes], object]):
        self.session = session
        self.feed = feed

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.session.transports.append(transport)
        if self.peer.transport is None:
            transport.pause_reading()  # nothing is read until both sockets exist
        else:
            self.peer.transport.resume_reading()
            self.session.check_idle()  # arms the session's one idle timer

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.session.buffer

    def buffer_updated(self, nbytes: int) -> None:
        session = self.session
        session.last = session.loop.time()
        session.stats.bytes_in += nbytes
        try:
            self.feed(bytes(session.buffer[:nbytes]))
            session.flush()
        except Exception as exc:  # ends this session only
            session.finish(exc)

    def eof_received(self) -> bool:
        eofs = self.session.eofs
        eofs.add(self)  # a set: resume_reading() after EOF reports it again
        if len(eofs) == 2:
            self.session.finish()
        elif self.peer.transport.can_write_eof():
            self.peer.transport.write_eof()
        return True  # this socket's write side stays open

    def pause_writing(self) -> None:
        self.peer.transport.pause_reading()  # a slow reader stops what feeds it

    def resume_writing(self) -> None:
        self.peer.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.session.transports.remove(self.transport)
        self.session.finish(exc)


class _RelaySession:
    """Two sockets, one relay core, one idle timer — armed once: activity
    only moves ``last``, and a timer that fires before the session has
    been idle that long re-arms itself for the remainder.  A finished
    session whose sockets still hold unsent bytes re-arms it once more,
    to abort them."""

    def __init__(self, stats: ServerStats, relay: RelayProcessor, idle_timeout: float):
        self.stats = stats
        self.relay = relay
        self.idle_timeout = idle_timeout
        self.buffer = recv_buffer()
        self.down = _RelaySide(self, relay.receive_from_client)
        self.up = _RelaySide(self, relay.receive_from_server)
        self.down.peer, self.up.peer = self.up, self.down
        self.transports: List[asyncio.Transport] = []  # made and not yet lost
        self.eofs: Set[_RelaySide] = set()
        self.finished = False
        self.closed = asyncio.Event()  # finished, and every transport lost
        self.loop = asyncio.get_running_loop()
        self.last = self.loop.time()
        self.timer: Optional[asyncio.TimerHandle] = None  # armed once both sockets exist

    def flush(self) -> None:
        to_server = self.relay.data_to_server_views()
        if to_server:
            self.stats.bytes_out += sum(map(len, to_server))
            self.up.transport.writelines(to_server)
        to_client = self.relay.data_to_client_views()
        if to_client:
            self.stats.bytes_out += sum(map(len, to_client))
            self.down.transport.writelines(to_client)

    def check_idle(self) -> None:
        idle = self.loop.time() - self.last
        if idle >= self.idle_timeout:
            self.finish(asyncio.TimeoutError())
        else:
            self.timer = self.loop.call_later(self.idle_timeout - idle, self.check_idle)

    def finish(self, exc: Optional[BaseException] = None) -> None:
        """End the session once; a later call only notes a lost transport."""
        if not self.finished:
            self.finished = True
            if self.timer is not None:
                self.timer.cancel()
            if isinstance(exc, asyncio.TimeoutError):
                self.stats.timeouts += 1
            elif exc is not None:
                self.stats.errors += 1
            try:  # what validated before a failure, and the core's fatal alerts
                self.flush()
            except Exception:
                pass
            for transport in self.transports:
                transport.close()
            if any(t.get_write_buffer_size() for t in self.transports):
                # A peer that stopped reading would hold the close forever.
                self.timer = self.loop.call_later(self.idle_timeout, self.abort)
        if not self.transports:
            if self.timer is not None:
                self.timer.cancel()
            self.closed.set()

    def abort(self) -> None:
        self.finish()
        for transport in self.transports:
            transport.abort()
