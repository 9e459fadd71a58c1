"""Real-loopback serving chains: client → middleboxes → server on TCP.

``repro.experiments.harness`` wires protocol objects over the *simulated*
network; this module wires the same :class:`TestBed` factories over real
loopback sockets on the ``repro.aio`` runtime: :func:`start_chain` puts
an endpoint server behind a chain of relays and :func:`run_async_load`
drives the concurrent load generator through it;
:func:`start_sharded_chain` / :func:`run_sharded_load` swap the endpoint
for a multi-process ``repro.mp`` cluster behind the same relays.

Every protocol mode of §5 (mcTLS / mcTLS-CKD / mdTLS / SplitTLS /
E2E-TLS / NoEncrypt) runs with any number of middlebox hops, so the
Fig. 5 capacity question — handshakes/sec and concurrent sessions
sustained — can be asked of a real socket path instead of an in-memory
pump.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aio import (
    AsyncConnection,
    AsyncEndpointServer,
    AsyncRelayServer,
    run_load,
    run_load_mp,
    run_periodic,
)
from repro.baselines import BlindRelay, PlainConnection, PlainRelay, SplitTLSRelay
from repro.core import Connection, Instruments, RelayProcessor
from repro.experiments.harness import Mode, TestBed
from repro.mctls import McTLSClient, McTLSMiddlebox, McTLSServer, SessionTopology
from repro.mctls.session import HandshakeMode
from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer
from repro.mp import ClusterEndpointServer
from repro.tls.client import TLSClient
from repro.tls.server import TLSServer
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.tls.tickets import TicketKeyManager

LOOPBACK = "127.0.0.1"


# -- per-mode factories (the socket-serving view of TestBed) ---------------


def server_connection_factory(
    bed: TestBed,
    mode: Mode,
    ticket_manager: Optional[TicketKeyManager] = None,
) -> Callable[..., Connection]:
    """A factory for fresh server-side sans-I/O connections.

    Accepts an optional positional ``session_cache`` so it can be handed
    to ``AsyncEndpointServer`` with or without a cache attached.  A
    ``ticket_manager`` (shared across all connections — and, under the
    sharded runtime, fork-inherited by every worker) additionally
    enables stateless session-ticket resumption.
    """
    if mode in (Mode.MCTLS, Mode.MCTLS_CKD):
        hs_mode = (
            HandshakeMode.CLIENT_KEY_DIST
            if mode is Mode.MCTLS_CKD
            else HandshakeMode.DEFAULT
        )

        def make(session_cache=None):
            return McTLSServer(
                bed.server_tls_config(),
                mode=hs_mode,
                session_cache=session_cache,
                ticket_manager=ticket_manager,
            )

        return make
    if mode is Mode.MDTLS:

        def make(session_cache=None):
            return MdTLSServer(
                bed.server_tls_config(),
                session_cache=session_cache,
                ticket_manager=ticket_manager,
            )

        return make
    if mode in (Mode.SPLIT_TLS, Mode.E2E_TLS):
        # SplitTLS terminates at the proxy, so the origin is plain TLS
        # either way; only E2E sessions ever reach the cache with a
        # client that can resume.
        def make(session_cache=None):
            return TLSServer(
                bed.server_tls_config(),
                session_cache=session_cache,
                ticket_manager=ticket_manager,
            )

        return make

    def make(session_cache=None):
        return PlainConnection()

    return make


def client_connection_factory(
    bed: TestBed,
    mode: Mode,
    topology: Optional[SessionTopology] = None,
    session_store: Optional[ClientSessionStore] = None,
    ticket_store: Optional[ClientSessionStore] = None,
    framing: str = "mctls-default",
    field_schemas: Tuple = (),
) -> Callable[..., Connection]:
    """A ``client_factory(resume=..., ticket=...)`` for the load generator.

    ``resume=True`` builds the client against the shared
    ``session_store`` (when the mode can resume at all); ``resume=False``
    always yields a full handshake.  ``ticket=True`` (with ``resume``)
    attaches the ``ticket_store`` instead, so that session resumes via a
    stateless server-sealed ticket rather than the server's cache.
    ``framing``/``field_schemas`` select the record framing the mcTLS
    client offers (servers accept any valid offer); the other modes have
    no framing negotiation and ignore both.
    """

    def make(resume: bool = False, ticket: bool = False):
        store = session_store if (resume and not ticket) else None
        tstore = ticket_store if (resume and ticket) else None
        if mode in (Mode.MCTLS, Mode.MCTLS_CKD):
            config = bed.client_tls_config()
            config.framing = framing
            config.field_schemas = tuple(field_schemas)
            return McTLSClient(
                config,
                topology=topology,
                key_transport=bed.key_transport,
                session_store=store,
                ticket_store=tstore,
            )
        if mode is Mode.MDTLS:
            return MdTLSClient(
                bed.client_tls_config(with_identity=True),
                topology=topology,
                session_store=store,
                ticket_store=tstore,
            )
        if mode is Mode.SPLIT_TLS:
            # The client's session ends at the interception proxy, which
            # keeps no cache — SplitTLS always handshakes in full.
            return TLSClient(bed.client_tls_config(trust_corp=True))
        if mode is Mode.E2E_TLS:
            return TLSClient(
                bed.client_tls_config(), session_store=store, ticket_store=tstore
            )
        return PlainConnection()

    return make


def relay_factory(
    bed: TestBed, mode: Mode, index: int, count: int
) -> Callable[[], RelayProcessor]:
    """A per-connection relay factory for hop ``index`` of ``count``
    (index 0 is nearest the client), matching ``TestBed.make_relays``."""
    if mode in (Mode.MCTLS, Mode.MCTLS_CKD):
        identity = bed.middlebox_identities(count)[index]
        return lambda: McTLSMiddlebox(identity.name, bed.mbox_tls_config(identity))
    if mode is Mode.MDTLS:
        identity = bed.middlebox_identities(count)[index]
        return lambda: MdTLSMiddlebox(identity.name, bed.mbox_tls_config(identity))
    if mode is Mode.SPLIT_TLS:
        trust_corp = index < count - 1
        config = bed.client_tls_config(trust_corp=trust_corp)
        return lambda: SplitTLSRelay(
            bed.corp_ca,
            config,
            bed.server_name,
            key_bits=bed.key_bits,
            forged_identity=bed.forged_identity,
        )
    if mode is Mode.E2E_TLS:
        return lambda: BlindRelay()
    return lambda: PlainRelay()


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
    endpoint: object  # AsyncEndpointServer | ClusterEndpointServer
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
        stopped = self.endpoint.stop(graceful=graceful)
        if inspect.isawaitable(stopped):  # the cluster's stop is synchronous
            await stopped


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
    handshake_timeout: float = 60.0,
    idle_timeout: float = 60.0,
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


async def start_sharded_chain(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int = 0,
    workers: int = 2,
    ticket_manager: Optional[TicketKeyManager] = None,
    session_cache_factory: Optional[Callable[[], SessionCache]] = None,
    max_connections: int = 512,
    handshake_timeout: float = 60.0,
    idle_timeout: float = 60.0,
    handler: Callable[[AsyncConnection], object] = echo_handler,
    reuse_port: bool = True,
) -> ServingChain:
    """A multi-process endpoint (:class:`ClusterEndpointServer`) behind
    the usual relay chain.

    The endpoint forks first; the relays — the same ones every other
    chain uses — then start on the caller's event loop.  Session caches
    are per-worker (``session_cache_factory`` runs post-fork); the
    ``ticket_manager`` is fork-inherited, so ticket resumption works
    across workers while cache resumption only hits when the kernel
    lands the reconnect on the same worker — the exact contrast the
    sharded phase measures.
    """
    endpoint = ClusterEndpointServer(
        (LOOPBACK, 0),
        server_connection_factory(bed, mode, ticket_manager=ticket_manager),
        handler,
        workers=workers,
        session_cache_factory=session_cache_factory,
        max_connections=max_connections,
        handshake_timeout=handshake_timeout,
        idle_timeout=idle_timeout,
        reuse_port=reuse_port,
    ).start()
    relays = await _start_relays(
        bed, mode, n_middleboxes, endpoint.port, max_connections, idle_timeout
    )
    return ServingChain(mode=mode, endpoint=endpoint, relays=relays)


# -- load entry points ------------------------------------------------------


def _topology(bed: TestBed, mode: Mode, n_middleboxes: int, n_contexts: int):
    if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS):
        return bed.topology(n_middleboxes, n_contexts=n_contexts)
    return None


def _payload_context(mode: Mode) -> Optional[int]:
    return 1 if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else None


async def run_async_load(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int = 0,
    connections: int = 100,
    concurrency: int = 50,
    rate: Optional[float] = None,
    resume_ratio: float = 0.0,
    n_contexts: int = 1,
    payload: bytes = b"ping",
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
    instruments: Optional[Instruments] = None,
) -> Dict[str, object]:
    """Start a chain, drive the load generator, stop, return the merged
    load + server stats report."""
    session_cache = SessionCache(capacity=max(64, concurrency * 2))
    session_store = (
        ClientSessionStore(capacity=max(64, concurrency * 2))
        if resume_ratio > 0
        else None
    )
    chain = await start_chain(
        bed,
        mode,
        n_middleboxes,
        session_cache=session_cache,
        max_connections=max(concurrency * 2, 64),
        handshake_timeout=handshake_timeout,
        idle_timeout=io_timeout,
        instruments=instruments,
    )
    try:
        result = await run_load(
            (LOOPBACK, chain.port),
            client_connection_factory(
                bed,
                mode,
                topology=_topology(bed, mode, n_middleboxes, n_contexts),
                session_store=session_store,
            ),
            connections=connections,
            concurrency=concurrency,
            rate=rate,
            resume_ratio=resume_ratio,
            payload=payload,
            context_id=_payload_context(mode),
            handshake_timeout=handshake_timeout,
            io_timeout=io_timeout,
        )
    finally:
        await chain.stop(graceful=False)
    report: Dict[str, object] = {
        "mode": mode.value,
        "middleboxes": n_middleboxes,
        "contexts": n_contexts,
        "load": result.to_dict(),
    }
    report.update(chain.snapshot())
    return report


async def run_sharded_load(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int = 0,
    workers: int = 2,
    connections: int = 100,
    concurrency: int = 50,
    client_processes: int = 2,
    resume_ratio: float = 0.0,
    ticket_ratio: float = 1.0,
    n_contexts: int = 1,
    payload: bytes = b"ping",
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
) -> Dict[str, object]:
    """Drive a multi-process client fleet against a sharded chain.

    ``ticket_ratio`` splits the resumption candidates between stateless
    tickets (which resume on *any* worker) and the per-worker session
    cache (which only hits on kernel affinity).  Client stores are
    per-process — forked copies, like independent client machines.
    """
    ticket_manager = TicketKeyManager()
    cache_capacity = max(64, concurrency * 2)
    session_store = (
        ClientSessionStore(capacity=cache_capacity) if resume_ratio > 0 else None
    )
    ticket_store = (
        ClientSessionStore(capacity=cache_capacity)
        if resume_ratio > 0 and ticket_ratio > 0
        else None
    )
    chain = await start_sharded_chain(
        bed,
        mode,
        n_middleboxes,
        workers=workers,
        ticket_manager=ticket_manager,
        session_cache_factory=lambda: SessionCache(capacity=cache_capacity),
        max_connections=max(concurrency * 2, 64),
        handshake_timeout=handshake_timeout,
        idle_timeout=io_timeout,
    )
    try:
        result = await run_load_mp(
            (LOOPBACK, chain.port),
            client_connection_factory(
                bed,
                mode,
                topology=_topology(bed, mode, n_middleboxes, n_contexts),
                session_store=session_store,
                ticket_store=ticket_store,
            ),
            connections=connections,
            concurrency=concurrency,
            processes=client_processes,
            resume_ratio=resume_ratio,
            ticket_ratio=ticket_ratio,
            payload=payload,
            context_id=_payload_context(mode),
            handshake_timeout=handshake_timeout,
            io_timeout=io_timeout,
        )
    finally:
        await chain.stop(graceful=False)
    report: Dict[str, object] = {
        "mode": mode.value,
        "middleboxes": n_middleboxes,
        "contexts": n_contexts,
        "workers": workers,
        "client_processes": client_processes,
        "load": result.to_dict(),
    }
    report.update(chain.snapshot())
    return report


async def run_industrial_load(
    bed: TestBed,
    mode: Mode,
    n_middleboxes: int = 1,
    records: int = 100,
    record_size: int = 32,
    period_s: float = 0.005,
    sessions: int = 1,
    framing: str = "mctls-default",
    field_schemas: Tuple = (),
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
) -> Dict[str, object]:
    """The industrial low-latency scenario on one chain: a long-lived
    session sending a small record every ``period_s`` seconds, reporting
    per-record round-trip percentiles (the Madtls workload shape, where
    the p99 against a cycle deadline is the figure of merit)."""
    chain = await start_chain(
        bed,
        mode,
        n_middleboxes,
        max_connections=max(sessions * 2, 16),
        handshake_timeout=handshake_timeout,
        idle_timeout=io_timeout,
    )
    try:
        result = await run_periodic(
            (LOOPBACK, chain.port),
            client_connection_factory(
                bed,
                mode,
                topology=_topology(bed, mode, n_middleboxes, 1),
                framing=framing,
                field_schemas=field_schemas,
            ),
            records=records,
            record_size=record_size,
            period_s=period_s,
            sessions=sessions,
            context_id=_payload_context(mode),
            handshake_timeout=handshake_timeout,
            io_timeout=io_timeout,
        )
    finally:
        await chain.stop(graceful=False)
    report: Dict[str, object] = {
        "mode": mode.value,
        "middleboxes": n_middleboxes,
        "framing": framing if mode in (Mode.MCTLS, Mode.MCTLS_CKD) else None,
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
    framing: str = "mctls-default",
    field_schemas: Tuple = (),
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
) -> Dict[str, object]:
    """Per-hop *added* record latency: run the industrial workload at
    0..``max_hops`` middleboxes on the same host and difference the
    percentiles against the zero-hop baseline.  The slope is the cost a
    deployment pays per in-path inspection hop — the number an
    industrial latency budget is spent against."""
    runs: List[Dict[str, object]] = []
    for hops in range(max_hops + 1):
        report = await run_industrial_load(
            bed,
            mode,
            n_middleboxes=hops,
            records=records,
            record_size=record_size,
            period_s=period_s,
            framing=framing,
            field_schemas=field_schemas,
            handshake_timeout=handshake_timeout,
            io_timeout=io_timeout,
        )
        runs.append(report)
    base = runs[0]["load"]["record_latency_s"]
    added: Dict[str, Dict[str, float]] = {}
    for hops, report in enumerate(runs[1:], start=1):
        lat = report["load"]["record_latency_s"]
        added[str(hops)] = {
            k: round((lat[k] - base[k]) / hops, 6) for k in ("p50", "p95", "p99")
        }
    return {
        "mode": mode.value,
        "framing": framing if mode in (Mode.MCTLS, Mode.MCTLS_CKD) else None,
        "record_size": record_size,
        "period_s": period_s,
        "records": records,
        "per_hop": [r["load"] for r in runs],
        "added_latency_per_hop_s": added,
    }
