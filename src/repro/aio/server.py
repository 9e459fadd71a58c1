"""Production-shaped asyncio servers for endpoints and middleboxes.

Two servers:

* :class:`AsyncEndpointServer` — accepts connections and runs a fresh
  sans-I/O server connection (TLS / mcTLS / plain) plus an async user
  handler for each;
* :class:`AsyncRelayServer` — accepts downstream connections and relays
  them upstream through a two-sided relay object (mcTLS middlebox,
  SplitTLS proxy, blind relay), one relay instance per connection.

Both are built for load, not demos:

* **accept-backpressure** — a max-concurrent-connections semaphore is
  acquired *before* ``accept()``; excess connections queue in the kernel
  backlog instead of spawning unbounded tasks;
* **timeouts** — a handshake deadline and an idle (per-read) deadline
  per connection, so stalled or malicious peers cannot pin tasks;
* **flow control** — every write path drains, so a slow reader
  back-pressures the pipeline instead of buffering without bound;
* **error isolation** — any per-connection failure (protocol garbage
  from a fault-injected peer included) ends that connection only; the
  accept loop never sees it;
* **graceful shutdown** — :meth:`stop` with ``graceful=True`` closes the
  listener, lets in-flight sessions finish, and only then returns;
  ``graceful=False`` cancels them;
* **stats** — a :class:`ServerStats` ledger per server, including
  session-cache hit rates when a ``SessionCache`` is attached.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.aio.connection import RECV_SIZE, AsyncConnection, SessionEnded, tune_socket
from repro.core import Connection, RelayProcessor
from repro.core.instrument import Instruments, ServerStats

__all__ = ["AsyncEndpointServer", "AsyncRelayServer", "ServerStats"]


class _AsyncServerBase:
    """Shared accept loop: semaphore-gated, task-tracked, stoppable."""

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        max_connections: int = 256,
        backlog: int = 512,
        instruments: Optional[Instruments] = None,
        listen_sock: Optional[socket.socket] = None,
    ):
        self.listen_addr = listen_addr
        self.max_connections = max_connections
        self.backlog = backlog
        self.instruments = instruments
        self.stats = ServerStats(instruments=instruments)
        self._listener: Optional[socket.socket] = None
        self._listen_sock = listen_sock
        self._sem: Optional[asyncio.Semaphore] = None
        self._accept_task: Optional[asyncio.Task] = None
        self._tasks: Set[asyncio.Task] = set()
        self._stopping = False

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    async def start(self) -> "_AsyncServerBase":
        if self._listen_sock is not None:
            # Pre-bound listener (worker pools: a SO_REUSEPORT sibling
            # socket, or one shared accept fd inherited across fork).
            self._listener = self._listen_sock
        else:
            self._listener = socket.create_server(
                self.listen_addr, backlog=self.backlog
            )
        tune_socket(self._listener)
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
        backlog: int = 512,
        instruments: Optional[Instruments] = None,
        listen_sock: Optional[socket.socket] = None,
    ):
        super().__init__(
            listen_addr, max_connections, backlog, instruments, listen_sock
        )
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
        reader, writer = await asyncio.open_connection(sock=raw)
        conn = AsyncConnection(
            self._make_connection(),
            reader,
            writer,
            default_timeout=self.idle_timeout,
        )
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
            except (ConnectionError, OSError):
                self.stats.errors += 1
            except Exception:
                self.stats.errors += 1
        finally:
            self.stats.bytes_in += conn.bytes_in
            self.stats.bytes_out += conn.bytes_out
            await conn.close()


class AsyncRelayServer(_AsyncServerBase):
    """Accepts downstream connections and relays them upstream through a
    two-sided relay object (one relay instance per connection).

    Half-close is propagated per direction: one side shutting down its
    write stream stops that pump but keeps the opposite direction
    draining until it too ends (a server may stream long after the
    client stops talking).  A relay raising on garbage input ends that
    session only.
    """

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        upstream_addr: Tuple[str, int],
        relay_factory: Callable[[], RelayProcessor],
        max_connections: int = 256,
        idle_timeout: float = 30.0,
        connect_timeout: float = 10.0,
        backlog: int = 512,
        instruments: Optional[Instruments] = None,
    ):
        super().__init__(listen_addr, max_connections, backlog, instruments)
        self.upstream_addr = upstream_addr
        self.relay_factory = relay_factory
        self.idle_timeout = idle_timeout
        self.connect_timeout = connect_timeout

    def _make_relay(self) -> RelayProcessor:
        relay = self.relay_factory()
        if self.instruments is not None:
            relay.instruments = self.instruments
        return relay

    async def _handle(self, raw: socket.socket) -> None:
        relay = self._make_relay()
        try:
            up_reader, up_writer = await asyncio.wait_for(
                asyncio.open_connection(*self.upstream_addr),
                self.connect_timeout,
            )
        except (OSError, asyncio.TimeoutError):
            self.stats.errors += 1
            return
        up_sock = up_writer.get_extra_info("socket")
        if up_sock is not None:
            tune_socket(up_sock)
        down_reader, down_writer = await asyncio.open_connection(sock=raw)

        async def flush() -> None:
            # Scatter-gather: the relay's per-record chunks go to the
            # transport as-is; no userspace join on the relay hot path.
            to_server = relay.data_to_server_views()
            if to_server:
                self.stats.bytes_out += sum(len(v) for v in to_server)
                up_writer.writelines(to_server)
            to_client = relay.data_to_client_views()
            if to_client:
                self.stats.bytes_out += sum(len(v) for v in to_client)
                down_writer.writelines(to_client)
            if to_server:
                await up_writer.drain()
            if to_client:
                await down_writer.drain()

        async def pump(reader, feed, other_writer) -> None:
            while True:
                data = await asyncio.wait_for(
                    reader.read(RECV_SIZE), self.idle_timeout
                )
                if not data:
                    # Half-close: relay the EOF after flushing whatever
                    # the relay still holds for the other side.
                    await flush()
                    try:
                        if other_writer.can_write_eof():
                            other_writer.write_eof()
                    except (OSError, RuntimeError):
                        pass
                    return
                self.stats.bytes_in += len(data)
                feed(data)
                await flush()

        pumps = [
            asyncio.create_task(
                pump(down_reader, relay.receive_from_client, up_writer)
            ),
            asyncio.create_task(
                pump(up_reader, relay.receive_from_server, down_writer)
            ),
        ]
        try:
            done, pending = await asyncio.wait(
                pumps, return_when=asyncio.FIRST_EXCEPTION
            )
            failed = [t for t in done if t.exception() is not None]
            if failed:
                if any(
                    isinstance(t.exception(), asyncio.TimeoutError)
                    for t in failed
                ):
                    self.stats.timeouts += 1
                else:
                    self.stats.errors += 1
        finally:
            for task in pumps:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            for writer in (up_writer, down_writer):
                writer.close()
            for writer in (up_writer, down_writer):
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
