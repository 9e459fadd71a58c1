"""Real-loopback serving chains: client → middleboxes → server on TCP.

``repro.experiments.harness`` wires protocol objects over the *simulated*
network; this module serves the same :class:`TestBed` stacks over real
loopback sockets on the ``repro.aio`` runtime, in one process on one
event loop: :func:`start_chain` puts an endpoint server behind a chain
of relays, and :func:`run_chain_load` starts one, drives the load
generator (``repro.aio.run_load``) through it and reports.

Every protocol mode of §5 (mcTLS / mcTLS-CKD / mdTLS / SplitTLS /
E2E-TLS / NoEncrypt) runs with any number of middlebox hops, so the
Fig. 5 capacity question — handshakes/sec and concurrent sessions
sustained — and the industrial one — what each in-path hop adds to a
small periodic record — can be asked of a real socket path instead of
an in-memory pump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.aio import AsyncConnection, AsyncEndpointServer, AsyncRelayServer, run_load
from repro.core import Connection, Instruments, RelayProcessor
from repro.experiments.harness import Mode, TestBed
from repro.mctls import SessionTopology
from repro.tls.sessioncache import ClientSessionStore, SessionCache

LOOPBACK = "127.0.0.1"
_CHAIN_TIMEOUT = 60.0  # seconds: every chain's handshake and idle deadline


# -- per-connection factories (closures over TestBed's stack table) ---------


def server_connection_factory(bed: TestBed, mode: Mode) -> Callable[..., Connection]:
    """A factory for fresh server-side sans-I/O connections.

    Accepts an optional positional ``session_cache`` so it can be handed
    to ``AsyncEndpointServer`` with or without a cache attached.
    """
    return lambda session_cache=None: bed.make_server(mode, session_cache)


def client_connection_factory(
    bed: TestBed,
    mode: Mode,
    topology: Optional[SessionTopology] = None,
    session_store: Optional[ClientSessionStore] = None,
    framing: Optional[str] = None,
    field_schemas: Optional[Sequence] = None,
) -> Callable[..., Connection]:
    """A ``client_factory(resume=...)`` for the load generator.

    ``resume=True`` builds the client against the shared
    ``session_store`` (when the mode can resume at all); ``resume=False``
    always yields a full handshake.  ``framing`` / ``field_schemas`` override the bed's record framing
    (see :meth:`TestBed.make_client`).
    """

    def make(resume: bool = False):
        return bed.make_client(
            mode,
            topology,
            session_store=session_store if resume else None,
            framing=framing,
            field_schemas=field_schemas,
        )

    return make


def relay_factory(
    bed: TestBed, mode: Mode, index: int, count: int
) -> Callable[[], RelayProcessor]:
    """A per-connection relay factory for hop ``index`` of ``count``
    (index 0 is nearest the client)."""
    return lambda: bed.make_relay(mode, index, count)


# -- echo handlers ----------------------------------------------------------


async def echo_handler(conn: AsyncConnection) -> None:
    """Echo every application record back on the context it arrived on,
    until the peer ends the session (SessionEnded handled by the server)."""
    while True:
        event = await conn.recv_app_data()
        await conn.send(event.data, context_id=event.context_id)


# -- chains -----------------------------------------------------------------


@dataclass
class ServingChain:
    """A started client-facing port plus the servers behind it."""

    mode: Mode
    endpoint: AsyncEndpointServer
    relays: List[AsyncRelayServer] = field(default_factory=list)
    session_cache: Optional[SessionCache] = None

    @property
    def port(self) -> int:
        """The port clients dial: the outermost relay, else the server."""
        return (self.relays[0] if self.relays else self.endpoint).port

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {"server": self.endpoint.snapshot()}
        if self.relays:
            snap["relays"] = [r.stats.snapshot() for r in self.relays]
        return snap

    async def stop(self, graceful: bool = True) -> None:
        for relay in self.relays:
            await relay.stop(graceful=graceful)
        await self.endpoint.stop(graceful=graceful)


async def _start_relays(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int,
    upstream_port: int,
    max_connections: int,
    idle_timeout: float,
    instruments: Optional[Instruments] = None,
) -> List[AsyncRelayServer]:
    """Start ``n_middleboxes`` relays in front of ``upstream_port``:
    relay ``i`` forwards to relay ``i+1``, the last to the server — the
    wire topology of Fig. 1 on real sockets.  Index 0 (nearest the
    client) comes first in the returned list."""
    relays: List[AsyncRelayServer] = []
    for index in reversed(range(n_middleboxes)):
        relay = AsyncRelayServer(
            (LOOPBACK, 0),
            upstream_addr=(LOOPBACK, upstream_port),
            relay_factory=relay_factory(bed, mode, index, n_middleboxes),
            max_connections=max_connections,
            idle_timeout=idle_timeout,
            instruments=instruments,
        )
        await relay.start()
        relays.insert(0, relay)
        upstream_port = relay.port
    return relays


async def start_chain(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int = 0,
    session_cache: Optional[SessionCache] = None,
    max_connections: int = 512,
    handshake_timeout: float = _CHAIN_TIMEOUT,
    idle_timeout: float = _CHAIN_TIMEOUT,
    handler: Callable[[AsyncConnection], object] = echo_handler,
    instruments: Optional[Instruments] = None,
) -> ServingChain:
    """Start an echo server and ``n_middleboxes`` relays on loopback.

    ``instruments`` (optional) is shared by the endpoint server and every
    relay, so protocol-level counters aggregate across the whole chain.
    """
    endpoint = AsyncEndpointServer(
        (LOOPBACK, 0),
        server_connection_factory(bed, mode),
        handler,
        session_cache=session_cache,
        max_connections=max_connections,
        handshake_timeout=handshake_timeout,
        idle_timeout=idle_timeout,
        instruments=instruments,
    )
    await endpoint.start()
    relays = await _start_relays(
        bed, mode, n_middleboxes, endpoint.port,
        max_connections, idle_timeout, instruments,
    )
    return ServingChain(
        mode=mode, endpoint=endpoint, relays=relays, session_cache=session_cache
    )


# -- load entry points ------------------------------------------------------


async def run_chain_load(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int = 0,
    *,
    n_contexts: int = 1,
    framing: Optional[str] = None,
    field_schemas: Optional[Sequence] = None,
    instruments: Optional[Instruments] = None,
    concurrency: int = 50,
    **load,
) -> Dict[str, object]:
    """Start a chain, drive ``repro.aio.run_load`` through it, stop it,
    and return the load report merged with the chain's stats.

    ``**load`` (and ``concurrency``, which also sizes the chain's caches
    and connection limit) goes to :func:`repro.aio.run_load` verbatim:
    ``connections`` / ``rate`` / ``resume_ratio`` for the Fig. 5 capacity
    shape, ``records`` / ``period_s`` / ``payload`` on
    ``connections == concurrency`` long-lived sessions for the industrial
    one.

    ``instruments`` is shared by the endpoint and its relays, so
    protocol-level counters aggregate across the whole chain.
    """
    width = max(64, 2 * concurrency)
    chain = await start_chain(
        bed,
        mode,
        n_middleboxes,
        session_cache=SessionCache(capacity=width),
        max_connections=width,
        instruments=instruments,
    )
    contexts = mode.has_contexts
    try:
        result = await run_load(
            (LOOPBACK, chain.port),
            # The store is only ever attached to the sessions the
            # generator marks as resumption candidates.
            client_connection_factory(
                bed,
                mode,
                topology=(
                    bed.topology(n_middleboxes, n_contexts=n_contexts)
                    if contexts
                    else None
                ),
                session_store=ClientSessionStore(capacity=width),
                framing=framing,
                field_schemas=field_schemas,
            ),
            concurrency=concurrency,
            context_id=1 if contexts else None,
            **load,
        )
    finally:
        await chain.stop(graceful=False)
    report: Dict[str, object] = {
        "mode": mode.value,
        "middleboxes": n_middleboxes,
        "contexts": n_contexts,
        "framing": (framing or bed.framing) if contexts else None,
        "load": result.to_dict(),
    }
    report.update(chain.snapshot())
    return report


async def measure_per_hop_latency(
    bed: TestBed,
    mode: Mode,
    max_hops: int = 2,
    records: int = 100,
    record_size: int = 32,
    period_s: float = 0.005,
    **chain,
) -> Dict[str, object]:
    """Per-hop *added* record latency: run the industrial workload (one
    long-lived session sending a small record every ``period_s`` seconds)
    at 0..``max_hops`` middleboxes on the same host and difference the
    percentiles against the zero-hop baseline.  The slope is the cost a
    deployment pays per in-path inspection hop — the number an
    industrial latency budget is spent against.  ``**chain`` (``framing``,
    ``field_schemas``) goes to :func:`run_chain_load`."""
    runs = [
        await run_chain_load(
            bed,
            mode,
            hops,
            connections=1,
            concurrency=1,
            records=records,
            period_s=period_s,
            payload=bytes(record_size),
            **chain,
        )
        for hops in range(max_hops + 1)
    ]
    base = runs[0]["load"]["record_latency_s"]
    added: Dict[str, Dict[str, float]] = {}
    for hops, report in enumerate(runs[1:], start=1):
        lat = report["load"]["record_latency_s"]
        added[str(hops)] = {
            k: round((lat[k] - base[k]) / hops, 6) for k in ("p50", "p95", "p99")
        }
    return {
        "mode": mode.value,
        "framing": runs[0]["framing"],
        "record_size": record_size,
        "period_s": period_s,
        "records": records,
        "per_hop": [r["load"] for r in runs],
        "added_latency_per_hop_s": added,
    }
