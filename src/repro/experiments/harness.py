"""Shared experiment harness.

Four parts:

* :class:`TestBed` — a cached set of CAs, identities and configuration
  (key generation is expensive in pure Python; every experiment reuses
  one bed), plus the one set of factories (``make_client`` /
  ``make_server`` / ``make_relay``) that puts a stack together for each
  of the six protocol modes — simulated paths, in-memory chains and the
  socket serving chains all build from them.
* netsim glue — :class:`EndpointNode` / :class:`RelayNode` bind sans-I/O
  protocol objects to simulated TCP sockets, and :class:`SimPath` builds
  the full client → middleboxes → server topology over shared links, with
  each relay opening its upstream TCP connection only when its downstream
  side is accepted (as real proxies do).
* one in-memory handshake — :func:`build_cell` builds the parties of a
  (mode, K contexts, N middleboxes) cell, :func:`drive_handshake` pumps
  one handshake through them, and :func:`profile_handshake` does both
  with every party behind a :class:`ProfiledNode` (Table 3, Figs. 5 and
  8, session resumption).
* one simulated exchange — :class:`Exchange` is the request/response
  Figs. 3 and 7 time over a :class:`SimPath`, and
  :func:`simulate_exchange` runs it over :func:`build_path`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.baselines import BlindRelay, PlainConnection, PlainRelay, SplitTLSRelay
from repro.core.events import ApplicationData, HandshakeComplete
from repro.crypto.certs import CertificateAuthority, Identity
from repro.crypto.dh import GROUP_MODP_1024, DHGroup
from repro.crypto.opcount import OpCounter, counting
from repro.mctls import (
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.mctls.contexts import ContextDefinition
from repro.mctls.session import HandshakeMode, KeyTransport
from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer
from repro.netsim import Simulator
from repro.netsim.link import Link, duplex
from repro.netsim.profiles import LinkProfile
from repro.netsim.tcp import make_tcp_pair
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256, CipherSuite
from repro.tls.client import TLSClient
from repro.tls.connection import TLSConfig
from repro.tls.server import TLSServer
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.transport import Chain


class Mode(str, Enum):
    """The four protocol modes of §5, the §3.6 mcTLS variant and the
    mdTLS delegation variant."""

    MCTLS = "mcTLS"
    MCTLS_CKD = "mcTLS-ckd"
    MDTLS = "mdTLS"
    SPLIT_TLS = "SplitTLS"
    E2E_TLS = "E2E-TLS"
    NO_ENCRYPT = "NoEncrypt"

    @property
    def has_contexts(self) -> bool:
        """The mcTLS family: sessions carry a topology of encryption
        contexts, and application data is sent on context ids >= 1."""
        return self in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS)


DEFAULT_KEY_BITS = 1024


@dataclass
class TestBed:
    """Cached crypto material + per-mode protocol factories.

    ``key_bits`` trades realism against pure-Python run time (the paper
    used 2048-bit RSA; 1024 keeps handshake CPU tractable while keeping
    message structure identical — EXPERIMENTS.md records the choice).
    """

    __test__ = False  # not a pytest class despite the Test* name

    key_bits: int = DEFAULT_KEY_BITS
    dh_group: DHGroup = GROUP_MODP_1024
    # The one record suite every party offers: SHA-CTR for bulk
    # simulation; pass the paper's 0x0067 (AES-128-CBC) to run a whole
    # bed under it.
    suite: CipherSuite = SUITE_DHE_RSA_SHACTR_SHA256
    server_name: str = "server.example"
    # The paper's evaluated prototype used RSA key transport for the
    # MiddleboxKeyMaterial messages (§5); default to it so measured
    # numbers correspond to the evaluated system.  Pass KeyTransport.DHE
    # for the full (forward-secret) design.
    key_transport: KeyTransport = KeyTransport.RSA
    # Record framing the mcTLS clients offer ("mctls-default" or
    # "mctls-compact") plus the per-field sub-context schemas the compact
    # framing carries; non-mcTLS stacks have no framing negotiation and
    # ignore both.
    framing: str = "mctls-default"
    field_schemas: Sequence = ()

    def __post_init__(self) -> None:
        # Resumption is opt-in: call enable_resumption() and endpoints built
        # afterwards share a server-side SessionCache / client-side store,
        # so a second make_endpoints() + handshake resumes the first.
        self.session_cache: Optional[SessionCache] = None
        self.client_sessions: Optional[ClientSessionStore] = None
        self.ca = CertificateAuthority.create_root("Web Root CA", key_bits=self.key_bits)
        self.corp_ca = CertificateAuthority.create_root(
            "Interception Root", key_bits=self.key_bits
        )
        self.server_identity = Identity.issued_by(
            self.ca, self.server_name, key_bits=self.key_bits
        )
        # mdTLS clients sign warrants, so (unlike every other mode) the
        # client is certified too.
        self.client_identity = Identity.issued_by(
            self.ca, "client.example", key_bits=self.key_bits
        )
        # Forged identity cache for SplitTLS (real proxies cache these).
        self.forged_identity = Identity.issued_by(
            self.corp_ca, self.server_name, key_bits=self.key_bits
        )
        self._mbox_identities: List[Identity] = []

    # -- session resumption --------------------------------------------------

    def enable_resumption(self, capacity: int = 64, ttl: float = 3600.0) -> None:
        """Create the shared session cache/store used by make_endpoints().

        One cache serves both plain-TLS and mcTLS endpoints: server entries
        are keyed by random 32-byte session ids and the client store
        namespaces mcTLS sessions, so the protocols cannot collide.
        SplitTLS relays terminate TLS themselves and do not resume.
        """
        self.session_cache = SessionCache(capacity=capacity, ttl=ttl)
        self.client_sessions = ClientSessionStore(capacity=capacity, ttl=ttl)

    # -- identities ----------------------------------------------------------

    def middlebox_identities(self, count: int) -> List[Identity]:
        while len(self._mbox_identities) < count:
            index = len(self._mbox_identities) + 1
            self._mbox_identities.append(
                Identity.issued_by(self.ca, f"mbox{index}.example", key_bits=self.key_bits)
            )
        return self._mbox_identities[:count]

    # -- configs -------------------------------------------------------------

    @property
    def suites(self):
        return (self.suite,)

    def client_tls_config(
        self,
        trust_corp: bool = False,
        with_identity: bool = False,
        framing: Optional[str] = None,
        field_schemas: Optional[Sequence] = None,
    ) -> TLSConfig:
        """``framing`` / ``field_schemas`` override the bed's for this
        one config; ``None`` means the bed's own."""
        # Installing an interception root ADDS it to the trust store;
        # the genuine web roots stay trusted.
        roots = [self.ca.certificate]
        if trust_corp:
            roots.insert(0, self.corp_ca.certificate)
        return TLSConfig(
            identity=self.client_identity if with_identity else None,
            trusted_roots=roots,
            server_name=self.server_name,
            dh_group=self.dh_group,
            cipher_suites=self.suites,
            framing=self.framing if framing is None else framing,
            field_schemas=tuple(
                self.field_schemas if field_schemas is None else field_schemas
            ),
        )

    def server_tls_config(self) -> TLSConfig:
        return TLSConfig(
            identity=self.server_identity,
            trusted_roots=[self.ca.certificate],
            dh_group=self.dh_group,
            cipher_suites=self.suites,
        )

    def mbox_tls_config(self, identity: Identity) -> TLSConfig:
        return TLSConfig(
            identity=identity,
            trusted_roots=[self.ca.certificate],
            dh_group=self.dh_group,
            cipher_suites=self.suites,
        )

    # -- topology helpers -------------------------------------------------------

    def topology(
        self,
        n_middleboxes: int,
        contexts: Optional[Sequence[ContextDefinition]] = None,
        n_contexts: int = 1,
        permission: Permission = Permission.WRITE,
    ) -> SessionTopology:
        """A topology granting every middlebox ``permission`` on every
        context — "the worst case for mcTLS performance" (§5 setup)."""
        identities = self.middlebox_identities(n_middleboxes)
        middleboxes = [
            MiddleboxInfo(i + 1, identity.name) for i, identity in enumerate(identities)
        ]
        if contexts is None:
            grant = {
                m.mbox_id: permission for m in middleboxes
            }
            contexts = [
                ContextDefinition(i + 1, f"context-{i + 1}", dict(grant))
                for i in range(n_contexts)
            ]
        return SessionTopology(middleboxes=middleboxes, contexts=tuple(contexts))

    # -- protocol factories (the only per-mode construction in src/) ---------------

    def make_client(
        self,
        mode: Mode,
        topology: Optional[SessionTopology] = None,
        session_store: Optional[ClientSessionStore] = None,
        framing: Optional[str] = None,
        field_schemas: Optional[Sequence] = None,
    ) -> object:
        """A fresh client connection for ``mode``.

        The store enables resumption where the mode can resume at all;
        ``framing`` / ``field_schemas`` override the bed's record framing
        for this client (the stacks without contexts have none to offer).
        """
        if mode is Mode.NO_ENCRYPT:
            return PlainConnection()
        if mode is Mode.SPLIT_TLS:
            # The client's TLS session terminates at the proxy, which does
            # not keep a cache — SplitTLS always performs full handshakes.
            return TLSClient(self.client_tls_config(trust_corp=True))
        if mode is Mode.E2E_TLS:
            return TLSClient(
                self.client_tls_config(),
                session_store=session_store,
            )
        # mdTLS clients sign warrants and fix their own (DHE) key transport.
        mdtls = mode is Mode.MDTLS
        return (MdTLSClient if mdtls else McTLSClient)(
            self.client_tls_config(
                with_identity=mdtls, framing=framing, field_schemas=field_schemas
            ),
            topology=self.topology(0) if topology is None else topology,
            key_transport=None if mdtls else self.key_transport,
            session_store=session_store,
        )

    def make_server(
        self,
        mode: Mode,
        session_cache: Optional[SessionCache] = None,
    ) -> object:
        """A fresh server connection for ``mode``; the cache enables
        resumption."""
        if mode is Mode.NO_ENCRYPT:
            return PlainConnection()
        if mode is Mode.MCTLS_CKD:
            return McTLSServer(
                self.server_tls_config(),
                mode=HandshakeMode.CLIENT_KEY_DIST,
                session_cache=session_cache,
            )
        # SplitTLS terminates at the proxy, so its origin is plain TLS like
        # E2E-TLS's; only E2E clients ever come back to resume.
        server = (
            McTLSServer if mode is Mode.MCTLS
            else MdTLSServer if mode is Mode.MDTLS
            else TLSServer
        )
        return server(self.server_tls_config(), session_cache=session_cache)

    def make_relay(self, mode: Mode, index: int, count: int) -> object:
        """A fresh relay for hop ``index`` of ``count`` (index 0 is
        nearest the client)."""
        if mode is Mode.NO_ENCRYPT:
            return PlainRelay()
        if mode is Mode.E2E_TLS:
            return BlindRelay()
        if mode is Mode.SPLIT_TLS:
            return SplitTLSRelay(
                self.forged_identity,
                # Every hop but the last connects to another interception
                # proxy upstream, so it must trust the corp root too.
                self.client_tls_config(trust_corp=index < count - 1),
            )
        identity = self.middlebox_identities(count)[index]
        middlebox = MdTLSMiddlebox if mode is Mode.MDTLS else McTLSMiddlebox
        return middlebox(identity.name, self.mbox_tls_config(identity))

    def make_endpoints(
        self,
        mode: Mode,
        topology: Optional[SessionTopology] = None,
    ) -> Tuple[object, object]:
        """Fresh (client_connection, server_connection) for ``mode``,
        sharing the bed's caches once :meth:`enable_resumption` ran."""
        return (
            self.make_client(mode, topology, session_store=self.client_sessions),
            self.make_server(mode, session_cache=self.session_cache),
        )

    def make_relays(self, mode: Mode, count: int) -> List[object]:
        """Fresh relay objects for ``mode`` (one per middlebox hop)."""
        return [self.make_relay(mode, index, count) for index in range(count)]


# -- netsim glue -----------------------------------------------------------------


class EndpointNode:
    """Binds a sans-I/O connection to a simulated TCP socket."""

    def __init__(
        self,
        sim: Simulator,
        connection,
        socket,
        is_client: bool,
        on_event: Optional[Callable[[object, float], None]] = None,
    ):
        self.sim = sim
        self.connection = connection
        self.socket = socket
        self.is_client = is_client
        self.on_event = on_event
        socket.on_connected = self._on_connected
        socket.on_data = self._on_data

    def _on_connected(self) -> None:
        if self.is_client:
            self.connection.start_handshake()
            # Drain events queued by start_handshake itself (plain TCP
            # "completes" instantly) so drivers treat all modes uniformly.
            self._route_events(self.connection.receive_data(b""))
        self.flush()

    def _on_data(self, data: bytes) -> None:
        self._route_events(self.connection.receive_data(data))
        self.flush()

    def _route_events(self, events) -> None:
        if self.on_event is not None:
            for event in events:
                self.on_event(event, self.sim.now)

    def flush(self) -> None:
        data = self.connection.data_to_send()
        if data:
            self.socket.send(data)

    def send_application_data(self, data: bytes, context_id: Optional[int] = None) -> None:
        if context_id is None:
            self.connection.send_application_data(data)
        else:
            self.connection.send_application_data(data, context_id=context_id)
        self.flush()


class RelayNode:
    """Binds a two-sided relay to a downstream socket and a lazily
    connected upstream socket.

    Most relays dial their upstream hop as soon as a downstream client
    is accepted.  A relay exposing ``ready_to_dial_upstream()`` can delay
    the dial — SplitTLS proxies complete the client-side TLS handshake
    before contacting the real server, which is why the paper measures
    SplitTLS at the same 4-RTT TTFB as the other encrypted modes.
    """

    def __init__(self, sim: Simulator, relay, downstream_socket, upstream_socket):
        self.sim = sim
        self.relay = relay
        self.downstream = downstream_socket  # towards the client
        self.upstream = upstream_socket  # towards the server
        self._pending_upstream: List[bytes] = []
        self._accepted = False
        self._dialed = False
        downstream_socket.on_connected = self._on_downstream_accepted
        downstream_socket.on_data = self._on_client_data
        upstream_socket.on_connected = self._on_upstream_connected
        upstream_socket.on_data = self._on_server_data

    def _ready_to_dial(self) -> bool:
        probe = getattr(self.relay, "ready_to_dial_upstream", None)
        return probe() if probe is not None else True

    def _maybe_dial(self) -> None:
        if self._accepted and not self._dialed and self._ready_to_dial():
            self._dialed = True
            self.upstream.connect()

    def _on_downstream_accepted(self) -> None:
        self._accepted = True
        self._maybe_dial()

    def _on_upstream_connected(self) -> None:
        for data in self._pending_upstream:
            self.upstream.send(data)
        self._pending_upstream.clear()
        self.flush()

    def _on_client_data(self, data: bytes) -> None:
        self.relay.receive_from_client(data)
        self.flush()
        self._maybe_dial()

    def _on_server_data(self, data: bytes) -> None:
        self.relay.receive_from_server(data)
        self.flush()

    def flush(self) -> None:
        to_server = self.relay.data_to_server()
        if to_server:
            if self.upstream.established:
                self.upstream.send(to_server)
            else:
                self._pending_upstream.append(to_server)
        to_client = self.relay.data_to_client()
        if to_client:
            self.downstream.send(to_client)


@dataclass
class SimPath:
    """A fully wired client → relays → server path in one simulator."""

    sim: Simulator
    client_node: EndpointNode
    relay_nodes: List[RelayNode]
    server_node: EndpointNode
    links: List[Tuple[Link, Link]]

    def start(self) -> None:
        """Kick off the client's TCP connection (time 0 of the flow)."""
        self.client_node.socket.connect()

    def total_bytes_on_client_hop(self) -> int:
        fwd, rev = self.links[0]
        return fwd.bytes_carried + rev.bytes_carried


def build_links(
    sim: Simulator, profile: LinkProfile
) -> List[Tuple[Link, Link]]:
    """One duplex link pair per hop of the profile."""
    return [
        duplex(sim, bandwidth, delay, name=f"hop{i}")
        for i, (delay, bandwidth) in enumerate(
            zip(profile.hop_delays_s, profile.hop_bandwidths_bps)
        )
    ]


def build_path(
    sim: Simulator,
    bed: TestBed,
    mode: Mode,
    links: List[Tuple[Link, Link]],
    topology: Optional[SessionTopology] = None,
    nagle: bool = True,
    relays: Optional[List[object]] = None,
    client_on_event: Optional[Callable[[object, float], None]] = None,
    server_on_event: Optional[Callable[[object, float], None]] = None,
) -> SimPath:
    """Wire protocol objects for ``mode`` across ``links``.

    ``len(links) - 1`` relays are created (one per interior hop) unless
    explicit ``relays`` are given.  TCP connections are chained: the
    client's SYN starts on :meth:`SimPath.start`; each relay dials its
    upstream hop upon accepting its downstream connection.  Any object
    with the two-sided relay interface can be one of ``relays`` — an
    on-path ``repro.faults.TamperProxy`` over a zero-delay link of its
    own tampers mid-simulation without perturbing the modelled links.
    """
    n_relays = len(links) - 1
    client_conn, server_conn = bed.make_endpoints(mode, topology=topology)
    if relays is None:
        relays = bed.make_relays(mode, n_relays)
    if len(relays) != n_relays:
        raise ValueError("need exactly one relay per interior hop")

    # Socket pairs per hop (unconnected).
    socket_pairs = [
        make_tcp_pair(sim, fwd, rev, nagle=nagle, name=f"hop{i}")
        for i, (fwd, rev) in enumerate(links)
    ]

    client_node = EndpointNode(
        sim, client_conn, socket_pairs[0][0], is_client=True, on_event=client_on_event
    )
    relay_nodes = []
    for i, relay in enumerate(relays):
        relay_nodes.append(
            RelayNode(
                sim,
                relay,
                downstream_socket=socket_pairs[i][1],
                upstream_socket=socket_pairs[i + 1][0],
            )
        )
    server_node = EndpointNode(
        sim,
        server_conn,
        socket_pairs[-1][1],
        is_client=False,
        on_event=server_on_event,
    )
    return SimPath(
        sim=sim,
        client_node=client_node,
        relay_nodes=relay_nodes,
        server_node=server_node,
        links=links,
    )


# -- event helpers (uniform across TLS / mcTLS / plain) ---------------------------


def is_handshake_complete(event) -> bool:
    return isinstance(event, HandshakeComplete)


def is_app_data(event) -> bool:
    return isinstance(event, ApplicationData)


def series_label(mode: Mode, nagle: bool) -> str:
    """A figure series' name: the mode, marked when Nagle is off."""
    return mode.value if nagle else f"{mode.value} (Nagle off)"


@contextmanager
def fresh_resumption(bed: TestBed) -> Iterator[SessionCache]:
    """Run the block on a fresh session cache and client store (so its
    first handshake is full); the bed's own are restored on exit."""
    saved = (bed.session_cache, bed.client_sessions)
    bed.enable_resumption()
    try:
        yield bed.session_cache
    finally:
        bed.session_cache, bed.client_sessions = saved


# -- one in-memory handshake ---------------------------------------------------


def cell_topology(
    bed: TestBed, mode: Mode, n_contexts: int, n_middleboxes: int
) -> Optional[SessionTopology]:
    """The §5 topology of a (mode, K contexts, N middleboxes) cell; only
    the mcTLS family carries one."""
    if not mode.has_contexts:
        return None
    return bed.topology(n_middleboxes, n_contexts=n_contexts)


def build_cell(
    bed: TestBed, mode: Mode, n_contexts: int = 1, n_middleboxes: int = 1
) -> Tuple[object, List[object], object]:
    """Fresh ``(client, relays, server)`` for one cell."""
    topology = cell_topology(bed, mode, n_contexts, n_middleboxes)
    client, server = bed.make_endpoints(mode, topology=topology)
    return client, bed.make_relays(mode, n_middleboxes), server


def drive_handshake(client, relays: Sequence[object], server, on_hop=None) -> Chain:
    """Pump one handshake through an in-memory chain and return the
    chain, so an application phase can continue on it; raises unless
    both ends completed.  ``on_hop`` is the :class:`~repro.core.DriveLoop`
    wire tap."""
    chain = Chain(client, relays, server)
    chain.on_hop = on_hop
    # A no-op on every passive side but plain TCP's, whose accept is all
    # the handshake there is.
    server.start_handshake()
    client.start_handshake()
    chain.pump()
    if not (client.handshake_complete and server.handshake_complete):
        raise RuntimeError("handshake did not complete at both ends")
    return chain


class ProfiledNode:
    """Wraps a connection or relay and attributes work to it.

    Every call into the wrapped object runs under this node's
    :class:`OpCounter`, so after a handshake ``node.ops`` holds exactly
    the Table-3-style operation mix that node performed;
    ``cpu_seconds`` accumulates the CPU time spent inside those calls
    (the clock runs inside the counter block, so the proxy's own
    bookkeeping stays out), and bytes the node emitted (via any
    ``data_to_*`` call) accumulate in ``bytes_sent``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.ops = OpCounter()
        self.cpu_seconds = 0.0
        self.bytes_sent = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        emits = name.startswith("data_to_")

        def profiled(*args, **kwargs):
            with counting(self.ops):
                start = time.process_time()
                try:
                    result = attr(*args, **kwargs)
                finally:
                    self.cpu_seconds += time.process_time() - start
            if emits and isinstance(result, bytes):
                self.bytes_sent += len(result)
            return result

        return profiled


class ProfiledHandshake(NamedTuple):
    """What :func:`profile_handshake` saw; the per-party dicts are keyed
    ``client``, ``server``, ``middlebox1`` … ``middleboxN``."""

    client: object  # the unwrapped endpoints
    server: object
    ops: Dict[str, Dict[str, int]]
    cpu: Dict[str, float]
    sent: Dict[str, int]
    client_hop_bytes: int  # both directions of the client's access link


def profile_handshake(
    bed: TestBed, mode: Mode, n_contexts: int = 1, n_middleboxes: int = 1
) -> ProfiledHandshake:
    """One handshake of a cell with every party behind a ProfiledNode."""
    client, relays, server = build_cell(bed, mode, n_contexts, n_middleboxes)
    nodes = {"client": ProfiledNode(client), "server": ProfiledNode(server)}
    relay_nodes = [ProfiledNode(relay) for relay in relays]
    nodes.update((f"middlebox{i}", node) for i, node in enumerate(relay_nodes, 1))
    client_hop_bytes = 0

    def tap(hop: int, _direction: str, data: bytes) -> None:
        nonlocal client_hop_bytes
        if hop == 0:
            client_hop_bytes += len(data)

    drive_handshake(nodes["client"], relay_nodes, nodes["server"], tap)
    return ProfiledHandshake(
        client,
        server,
        {name: node.ops.snapshot() for name, node in nodes.items()},
        {name: node.cpu_seconds for name, node in nodes.items()},
        {name: node.bytes_sent for name, node in nodes.items()},
        client_hop_bytes,
    )


# -- one simulated exchange ----------------------------------------------------


class Exchange:
    """One request/response over a simulated path.

    The client sends ``request`` when its handshake completes, the
    server answers the first request with ``response``, and the client
    notes when the first (``first_byte_s``, Fig. 3's TTFB) and the last
    (``last_byte_s``, Fig. 7's download time) response byte arrive.
    ``on_client`` / ``on_server`` are the path's event callbacks.
    """

    def __init__(self, mode: Mode, request: bytes, response: bytes):
        self.context_id = 1 if mode.has_contexts else None
        self.request = request
        self.response = response
        self.path: Optional[SimPath] = None
        self.answered = False
        self.received = 0
        self.first_byte_s: Optional[float] = None
        self.last_byte_s: Optional[float] = None

    def on_client(self, event, now: float) -> None:
        if is_handshake_complete(event):
            self.path.client_node.send_application_data(self.request, self.context_id)
        elif is_app_data(event):
            if self.first_byte_s is None:
                self.first_byte_s = now
            self.received += len(event.data)
            if self.last_byte_s is None and self.received >= len(self.response):
                self.last_byte_s = now

    def on_server(self, event, now: float) -> None:
        if is_app_data(event) and not self.answered:
            self.answered = True
            self.path.server_node.send_application_data(self.response, self.context_id)

    def run(self, path: SimPath) -> "Exchange":
        """Start ``path`` and simulate; raises unless the whole response
        arrived."""
        self.path = path
        path.start()
        path.sim.run(until=1000.0)
        if self.last_byte_s is None:
            raise RuntimeError(
                f"response incomplete: got {self.received}/{len(self.response)} bytes"
            )
        return self


def simulate_exchange(
    bed: TestBed,
    mode: Mode,
    profile: LinkProfile,
    request: bytes,
    response: bytes,
    nagle: bool = True,
    n_contexts: int = 1,
) -> Exchange:
    """Run one :class:`Exchange` over ``profile`` (one middlebox per
    interior hop) in a fresh simulator."""
    sim = Simulator()
    exchange = Exchange(mode, request, response)
    path = build_path(
        sim,
        bed,
        mode,
        build_links(sim, profile),
        topology=cell_topology(bed, mode, n_contexts, profile.hops - 1),
        nagle=nagle,
        client_on_event=exchange.on_client,
        server_on_event=exchange.on_server,
    )
    return exchange.run(path)


# Module-level testbed cache so pytest-benchmark runs share key material.
_BEDS: Dict[int, TestBed] = {}


def shared_testbed(key_bits: int = DEFAULT_KEY_BITS) -> TestBed:
    if key_bits not in _BEDS:
        _BEDS[key_bits] = TestBed(key_bits=key_bits)
    return _BEDS[key_bits]
