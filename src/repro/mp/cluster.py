"""Multi-process sharded serving: N workers behind one listening port.

:class:`ClusterEndpointServer` forks ``workers`` processes through
:func:`repro.mp.fork.fork`, each running the unmodified
:class:`repro.aio.server.AsyncEndpointServer` over the same sans-I/O
connection seam — the protocol objects never learn they are sharded.
Every worker binds its own listening socket to the same address with
``SO_REUSEPORT``, and the kernel hashes incoming connections across
them: no shared accept queue, no thundering herd.  A host without
``SO_REUSEPORT`` gets a ``RuntimeError`` at construction.

The parent never accepts.  It holds the port with a bound, non-listening
socket until every worker reports ready, then closes it and becomes a
pure control plane over the helper's one duplex pipe per worker::

    child -> parent:  ("ready", pid) | ("snapshot", dict) | ("stopped", dict)
                      | ("error", "Type: message")
    parent -> child:  ("snapshot", None) | ("stop", {"graceful", "timeout"})

A worker that fails before ``ready`` makes :meth:`start` raise a
``RuntimeError`` naming it and its cause, with every worker ended.

Workers install a SIGTERM handler that triggers the same graceful drain
as a ``stop`` command, so external supervisors can roll the pool too.
:meth:`ClusterEndpointServer.stop` drains workers one at a time
(rolling): each worker stops accepting, finishes in-flight sessions,
reports its final stats and exits before the next worker is told to
stop — the port keeps serving throughout.

A crashed worker (e.g. SIGKILL mid-handshake) is isolated: its kernel
socket disappears, the survivors keep accepting, and the parent keeps
the worker's last known snapshot.  Nothing replaces it; supervision is
policy a layer up.

Shared state is the caller's problem, and fork is the mechanism:
anything captured by ``connection_factory`` *before* ``start()`` (most
importantly a :class:`repro.tls.TicketKeyManager` holding the ticket
keys) is copied into every worker, which is exactly what makes a ticket
sealed by one worker unseal at any other.  Per-worker mutable state
(session caches) is created *after* the fork via
``session_cache_factory``, so worker A's cache hit-ledger never aliases
worker B's.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.aio.connection import AsyncConnection
from repro.aio.server import AsyncEndpointServer
from repro.core import Connection
from repro.core.instrument import Instruments
from repro.mp.fork import Child, expect, fork, join

__all__ = ["ClusterEndpointServer", "aggregate_snapshots"]

BACKLOG = 512
START_TIMEOUT = 15.0  # seconds for the whole pool to report ready
CONTROL_TIMEOUT = 5.0  # seconds a live worker has to answer a snapshot

# Keys that are per-worker identity/detail, not summable load counters.
_NON_ADDITIVE_KEYS = frozenset({"pid", "instruments"})


def aggregate_snapshots(snaps: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-worker stat snapshots into one cluster-wide view.

    Numeric scalars add; one level of nested dicts (the session-cache
    ledger) adds element-wise.  ``pid`` and ``instruments`` (which hold
    histogram summaries whose percentiles do not add) stay per-worker.
    """
    total: Dict[str, object] = {}
    for snap in snaps:
        for key, value in snap.items():
            if key in _NON_ADDITIVE_KEYS:
                continue
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
            elif isinstance(value, dict):
                sub = total.setdefault(key, {})
                for sk, sv in value.items():
                    if isinstance(sv, (int, float)) and not isinstance(sv, bool):
                        sub[sk] = sub.get(sk, 0) + sv
    return total


def _bind_shared(addr: Tuple[str, int]) -> socket.socket:
    """A TCP socket bound to ``addr`` with ``SO_REUSEPORT``, so the
    parent and every worker can bind the same port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(addr)
    except OSError:
        sock.close()
        raise
    return sock


class ClusterEndpointServer:
    """Fork ``workers`` processes each serving the same port.

    Same call shape as :class:`AsyncEndpointServer`, minus the event
    loop: the parent API is synchronous (``start`` / ``snapshot`` /
    ``stop``) because the loops live in the children.

    ``session_cache_factory`` (not a cache instance) is invoked inside
    each worker after the fork, so caches are per-worker by
    construction.  Cross-worker resumption therefore *requires* tickets:
    seed the ``connection_factory`` closure with a ``TicketKeyManager``
    before ``start()`` and every worker inherits the same keys.  (Key
    *rotation* after the fork is per-worker and would diverge; rotate by
    restarting the pool, or keep ``rotation_period`` above the pool's
    lifetime.)
    """

    def __init__(
        self,
        listen_addr: Tuple[str, int],
        connection_factory: Callable[..., Connection],
        handler: Callable[[AsyncConnection], Awaitable[None]],
        workers: int = 2,
        session_cache_factory: Optional[Callable[[], object]] = None,
        max_connections: int = 256,
        handshake_timeout: float = 30.0,
        idle_timeout: float = 30.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError("ClusterEndpointServer needs SO_REUSEPORT")
        self.listen_addr = listen_addr
        self.connection_factory = connection_factory
        self.handler = handler
        self.workers = workers
        self.session_cache_factory = session_cache_factory
        self.max_connections = max_connections
        self.handshake_timeout = handshake_timeout
        self.idle_timeout = idle_timeout
        self._port: Optional[int] = None
        self._port_holder: Optional[socket.socket] = None
        self._records: List[Child] = []
        self._snapshots: List[Dict[str, object]] = [{} for _ in range(workers)]
        self._stopped = False

    # ------------------------------------------------------------------
    # parent control plane

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("cluster not started")
        return self._port

    @property
    def worker_pids(self) -> List[int]:
        return [child.pid for child in self._records]

    def alive_workers(self) -> List[int]:
        return [child.pid for child in self._records if child.process.is_alive()]

    def start(self) -> "ClusterEndpointServer":
        if self._port is not None:
            raise RuntimeError("cluster already started")
        holder = self._port_holder = _bind_shared(self.listen_addr)
        try:
            self._port = holder.getsockname()[1]
            self._records = fork(self.workers, self._worker_main, "cluster worker")
            deadline = time.monotonic() + START_TIMEOUT
            for child in self._records:
                expect(child, "ready", max(0.0, deadline - time.monotonic()))
        except BaseException:
            self.stop(graceful=False)
            raise
        finally:
            # The workers' own sockets hold the port from here on.
            holder.close()
            self._port_holder = None
        return self

    def snapshot(self) -> Dict[str, object]:
        """Aggregated cluster stats plus the per-worker breakdown.

        Live workers are polled over their control pipe; dead or
        unresponsive workers contribute their last known snapshot.
        """
        if not self._stopped:
            for child in self._records:
                self._ask(child, ("snapshot", None), "snapshot", CONTROL_TIMEOUT)
        return self._aggregate()

    def stop(
        self, graceful: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Rolling shutdown: drain workers one at a time; return final stats."""
        if not self._stopped:
            self._stopped = True
            budget = timeout if timeout is not None else 30.0
            for child in self._records:
                stop = {"graceful": graceful, "timeout": timeout}
                self._ask(child, ("stop", stop), "stopped", budget)
                join(child, budget)
        return self._aggregate()

    def _aggregate(self) -> Dict[str, object]:
        worker_snaps = [dict(snap) for snap in self._snapshots]
        agg = aggregate_snapshots(worker_snaps)
        agg["workers"] = worker_snaps
        agg["worker_count"] = len(self._records)
        agg["alive_workers"] = len(self.alive_workers())
        return agg

    def _ask(
        self, child: Child, command: Tuple[str, object], until: str, timeout: float
    ) -> None:
        """Send ``command``, then keep every stats snapshot the worker
        sends within ``timeout`` seconds, up to a message tagged
        ``until`` or its final ``stopped``.  A dead worker refuses the
        command and its pipe ends at once, but what it left queued is
        still read: a worker that shut down on its own (SIGTERM from
        outside) leaves its final snapshot there, and without reading
        it, its ledger would be lost to the aggregate."""
        try:
            child.pipe.send(command)
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        try:
            while child.pipe.poll(max(0.0, deadline - time.monotonic())):
                tag, payload = child.pipe.recv()
                if tag in ("snapshot", "stopped"):
                    self._snapshots[child.index] = payload
                if tag in (until, "stopped"):
                    return
        except (EOFError, OSError):
            pass

    # ------------------------------------------------------------------
    # worker side (runs in the forked child)

    def _worker_main(self, index: int, pipe) -> None:
        session_cache = (
            self.session_cache_factory()
            if self.session_cache_factory is not None
            else None
        )
        # The fork copied the parent's port holder; only the parent's
        # copy may keep the port, and only until the pool is ready.
        self._port_holder.close()
        listen_sock = _bind_shared((self.listen_addr[0], self._port))
        listen_sock.listen(BACKLOG)
        asyncio.run(self._serve(listen_sock, session_cache, pipe))

    async def _serve(self, listen_sock: socket.socket, session_cache, pipe) -> None:
        loop = asyncio.get_running_loop()
        server = AsyncEndpointServer(
            (self.listen_addr[0], self._port),
            self.connection_factory,
            self.handler,
            session_cache=session_cache,
            max_connections=self.max_connections,
            handshake_timeout=self.handshake_timeout,
            idle_timeout=self.idle_timeout,
            backlog=BACKLOG,
            instruments=Instruments(),
            listen_sock=listen_sock,
        )
        await server.start()

        stop_event = asyncio.Event()
        stop_args: Dict[str, object] = {}

        def on_sigterm() -> None:
            stop_args.setdefault("graceful", True)
            stop_event.set()

        def on_command() -> None:
            try:
                tag, payload = pipe.recv()
            except (EOFError, OSError):
                # Parent is gone; drain and exit rather than orphan.
                loop.remove_reader(pipe.fileno())
                stop_event.set()
                return
            if tag == "snapshot":
                pipe.send(("snapshot", self._worker_snapshot(server)))
            elif tag == "stop":
                stop_args.update(payload or {})
                stop_event.set()

        loop.add_signal_handler(signal.SIGTERM, on_sigterm)
        loop.add_reader(pipe.fileno(), on_command)
        pipe.send(("ready", os.getpid()))

        await stop_event.wait()
        loop.remove_reader(pipe.fileno())
        loop.remove_signal_handler(signal.SIGTERM)
        await server.stop(
            graceful=bool(stop_args.get("graceful", True)),
            timeout=stop_args.get("timeout"),
        )
        try:
            pipe.send(("stopped", self._worker_snapshot(server)))
        except OSError:  # the parent is gone
            pass

    def _worker_snapshot(self, server: AsyncEndpointServer) -> Dict[str, object]:
        snap = server.snapshot()
        snap["pid"] = os.getpid()
        if server.instruments is not None:
            snap["instruments"] = server.instruments.snapshot()
        return snap
