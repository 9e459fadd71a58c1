"""Full vs resumed handshake equivalence suite.

The tentpole proof for session resumption: for every mode (E2E-TLS,
mcTLS with 0/1/2 middleboxes, client-key-distribution), an abbreviated
handshake must yield a session *indistinguishable in function* from the
full handshake it resumed — byte-identical plaintext transfer, identical
per-context middlebox permissions — while doing strictly less public-key
work (zero at the server).  Negative paths pin the fallback behaviour:
anything that breaks the resumption preconditions must degrade to a full
handshake, never to a broken or over-privileged session.

All randomness is seeded (``random.Random(seed)``), parametrized over
two seeds, so runs are deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed, shared_testbed
from repro.experiments.throughput import measure_full_vs_resumed
from repro.mctls import (
    ContextDefinition,
    McTLSApplicationData,
    Permission,
    restrict_topology,
)
from repro.mctls.session import HandshakeMode, KeyTransport
from repro.tls import messages as msgs
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
)
from repro.tls.client import TLSClient
from repro.tls.connection import ApplicationData, TLSError
from repro.tls.sessioncache import ClientSessionStore, SessionCache, TLSSessionState
from repro.tls.server import TLSServer
from repro.transport import Chain, pump

from tests.mctls_helpers import EXT_SESSION_TICKET, build_session, offer_ticket

SEEDS = (7, 4242)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _contexts(n_mbox: int):
    """Two contexts with asymmetric grants, filtered to existing boxes."""
    grants = [
        {1: Permission.WRITE, 2: Permission.READ},
        {1: Permission.READ, 2: Permission.NONE},
    ]
    return [
        ContextDefinition(
            i + 1,
            f"context-{i + 1}",
            {m: p for m, p in grant.items() if m <= n_mbox},
        )
        for i, grant in enumerate(grants)
    ]


def _payloads(seed: int, context_ids):
    rng = random.Random(seed)
    return {ctx: rng.randbytes(40 + rng.randrange(40)) for ctx in context_ids}


def _exchange_mctls(client, server, chain, payloads):
    """Send each payload client→server then server→client; return what
    each side actually received, keyed by context."""
    at_server = {}
    at_client = {}
    for ctx_id, data in payloads.items():
        client.send_application_data(data, context_id=ctx_id)
        for e in chain.pump():
            if isinstance(e, McTLSApplicationData):
                at_server[e.context_id] = e.data
    for ctx_id, data in payloads.items():
        server.send_application_data(data[::-1], context_id=ctx_id)
        for e in chain.pump():
            if isinstance(e, McTLSApplicationData):
                at_client[e.context_id] = e.data
    return at_server, at_client


MCTLS_CASES = [
    (HandshakeMode.DEFAULT, 0),
    (HandshakeMode.DEFAULT, 1),
    (HandshakeMode.DEFAULT, 2),
    (HandshakeMode.CLIENT_KEY_DIST, 2),
]


class TestEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_e2e_tls_resumed_transfers_identical_bytes(
        self, seed, client_config, server_config
    ):
        cache = SessionCache()
        store = ClientSessionStore()
        rng = random.Random(seed)
        request, response = rng.randbytes(64), rng.randbytes(64)

        transcripts = []
        for round_no in range(2):
            client = TLSClient(client_config, session_store=store)
            server = TLSServer(server_config, session_cache=cache)
            client.start_handshake()
            pump(client, server)
            assert client.handshake_complete and server.handshake_complete
            assert client.resumed == server.resumed == (round_no == 1)
            client.send_application_data(request)
            server.send_application_data(response)
            events = pump(client, server)
            got = [e.data for e in events if isinstance(e, ApplicationData)]
            transcripts.append(got)
        assert transcripts[0] == transcripts[1]
        assert sorted(transcripts[1]) == sorted([request, response])
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode,n_mbox", MCTLS_CASES)
    def test_mctls_resumed_equivalence(
        self, mode, n_mbox, seed, ca, server_identity, mbox_identities
    ):
        cache = SessionCache()
        store = ClientSessionStore()
        contexts = _contexts(n_mbox)
        payloads = _payloads(seed, [c.context_id for c in contexts])

        observed = []
        for round_no in range(2):
            client, mboxes, server, chain = build_session(
                ca,
                server_identity,
                mbox_identities[:n_mbox],
                contexts,
                mode=mode,
                session_store=store,
                session_cache=cache,
            )
            resumed = round_no == 1
            assert client.handshake_complete and server.handshake_complete
            assert client.resumed == server.resumed == resumed
            for mbox in mboxes:
                assert mbox.resumed == resumed
            at_server, at_client = _exchange_mctls(client, server, chain, payloads)
            observed.append(
                {
                    "at_server": at_server,
                    "at_client": at_client,
                    "permissions": [dict(m.permissions) for m in mboxes],
                }
            )

        full, res = observed
        # Byte-identical plaintexts in both directions, per context.
        assert res["at_server"] == full["at_server"] == payloads
        assert res["at_client"] == full["at_client"] == {
            c: d[::-1] for c, d in payloads.items()
        }
        # Identical per-context permissions at every middlebox.
        assert res["permissions"] == full["permissions"]
        assert cache.stats.hits == 1


PROFILE_CASES = [
    (Mode.E2E_TLS, 0),
    (Mode.MCTLS, 0),
    (Mode.MCTLS, 1),
    (Mode.MCTLS, 2),
    (Mode.MCTLS_CKD, 1),
    (Mode.MDTLS, 1),
]


class TestOperationCounts:
    @pytest.mark.parametrize("mode,n_mbox", PROFILE_CASES)
    def test_resumed_handshake_does_strictly_less_pubkey_work(self, mode, n_mbox):
        bed = shared_testbed(key_bits=512)
        result = measure_full_vs_resumed(bed, mode, n_contexts=2, n_middleboxes=n_mbox)
        if mode is Mode.MDTLS:
            # Delegation resumes statelessly by re-issuing session-bound
            # warrants and re-sealing key material, so the server's
            # public-key work shrinks but cannot reach zero — the
            # certificate and key-exchange flights are still gone.
            assert (
                0
                < result.pubkey_ops("resumed", "server")
                < result.pubkey_ops("full", "server")
            )
        else:
            # The server performs ZERO public-key operations when resuming —
            # the whole point of the abbreviated handshake.
            assert result.pubkey_ops("resumed", "server") == 0
            assert result.pubkey_ops("full", "server") > 0
        # Everyone else also does strictly less than in a full handshake —
        # except CKD middleboxes, which were already down to a single RSA
        # open per handshake and stay there.
        assert result.pubkey_ops("resumed", "client") < result.pubkey_ops("full", "client")
        for i in range(n_mbox):
            node = f"middlebox{i + 1}"
            if mode is Mode.MCTLS_CKD:
                assert result.pubkey_ops("resumed", node) <= result.pubkey_ops("full", node)
            else:
                assert result.pubkey_ops("resumed", node) < result.pubkey_ops("full", node)
        # The abbreviated flights are smaller on the wire: the server
        # sends no certificates or key exchange, and the path as a whole
        # shrinks even though a resuming client ships full context key
        # blocks to its middleboxes (CKD-style) instead of half-keys.
        assert result.resumed_bytes["server"] < result.full_bytes["server"]
        assert sum(result.resumed_bytes.values()) < sum(result.full_bytes.values())


class TestNegativePaths:
    def test_unknown_session_id_falls_back_to_full(self, client_config, server_config):
        """A proposed id the server has never seen → full handshake."""
        store = ClientSessionStore()
        suite_id = client_config.cipher_suites[0].suite_id
        store.put(
            "server.example",
            TLSSessionState(
                session_id=b"\x55" * 32,
                master_secret=b"m" * 48,
                cipher_suite_id=suite_id,
            ),
        )
        client = TLSClient(client_config, session_store=store)
        server = TLSServer(server_config, session_cache=SessionCache())
        client.start_handshake()
        events = pump(client, server)
        assert client.handshake_complete and server.handshake_complete
        assert not client.resumed and not server.resumed
        client.send_application_data(b"after fallback")
        events = pump(client, server)
        assert any(
            isinstance(e, ApplicationData) and e.data == b"after fallback"
            for e in events
        )

    def test_evicted_session_falls_back_to_full(
        self, ca, server_identity, mbox_identities
    ):
        cache = SessionCache(capacity=1)
        store = ClientSessionStore()
        contexts = _contexts(1)
        build_session(
            ca, server_identity, mbox_identities[:1], contexts,
            session_store=store, session_cache=cache,
        )
        assert cache.stats.stores == 1
        cache.put(b"squatter", object())  # capacity 1: evicts the session
        assert cache.stats.evictions == 1

        client, _, server, chain = build_session(
            ca, server_identity, mbox_identities[:1], contexts,
            session_store=store, session_cache=cache,
        )
        assert client.handshake_complete and server.handshake_complete
        assert not client.resumed and not server.resumed
        at_server, _ = _exchange_mctls(client, server, chain, {1: b"still works"})
        assert at_server == {1: b"still works"}

    def test_expired_session_falls_back_to_full(self, client_config, server_config):
        clock = FakeClock()
        cache = SessionCache(ttl=300.0, clock=clock)
        store = ClientSessionStore()
        client = TLSClient(client_config, session_store=store)
        server = TLSServer(server_config, session_cache=cache)
        client.start_handshake()
        pump(client, server)
        clock.now = 301.0

        client2 = TLSClient(client_config, session_store=store)
        server2 = TLSServer(server_config, session_cache=cache)
        client2.start_handshake()
        pump(client2, server2)
        assert client2.handshake_complete and server2.handshake_complete
        assert not client2.resumed and not server2.resumed
        assert cache.stats.expirations == 1

    def test_invalidated_session_falls_back_to_full(
        self, client_config, server_config
    ):
        cache = SessionCache()
        store = ClientSessionStore()
        client = TLSClient(client_config, session_store=store)
        server = TLSServer(server_config, session_cache=cache)
        client.start_handshake()
        pump(client, server)
        cached_id = store.get("server.example").session_id
        assert cache.invalidate(cached_id)

        client2 = TLSClient(client_config, session_store=store)
        server2 = TLSServer(server_config, session_cache=cache)
        client2.start_handshake()
        pump(client2, server2)
        assert client2.handshake_complete and server2.handshake_complete
        assert not client2.resumed and not server2.resumed

    def test_server_policy_change_blocks_resumption(
        self, ca, server_identity, mbox_identities
    ):
        """A server that stops granting the client's topology must not
        honor resumption — resuming would hand the middlebox keys the
        new policy denies."""
        from repro.mctls import restrict_topology

        cache = SessionCache()
        store = ClientSessionStore()
        contexts = _contexts(1)
        client, mboxes, _, _ = build_session(
            ca, server_identity, mbox_identities[:1], contexts,
            session_store=store, session_cache=cache,
        )
        assert client.resumed is False
        assert mboxes[0].permissions[1] is Permission.WRITE

        policy = lambda t: restrict_topology(t, {1: {1: Permission.READ}})
        client2, mboxes2, server2, _ = build_session(
            ca, server_identity, mbox_identities[:1], contexts,
            topology_policy=policy,
            session_store=store, session_cache=cache,
        )
        assert client2.handshake_complete and server2.handshake_complete
        assert not client2.resumed and not server2.resumed
        # The downgraded grant is in force — not the cached one.
        assert mboxes2[0].permissions[1] is Permission.READ
        # And a policy-restricting server never mints session ids at all.
        assert cache.stats.stores == 1  # only the first (unrestricted) session

    def test_restricting_server_never_issues_session_id(
        self, ca, server_identity, mbox_identities
    ):
        from repro.mctls import restrict_topology

        cache = SessionCache()
        store = ClientSessionStore()
        policy = lambda t: restrict_topology(t, {1: {1: Permission.READ}})
        build_session(
            ca, server_identity, mbox_identities[:1], _contexts(1),
            topology_policy=policy,
            session_store=store, session_cache=cache,
        )
        assert cache.stats.stores == 0
        assert store.get(("mctls", server_identity.name)) is None

    def test_client_topology_change_skips_resumption(
        self, ca, server_identity, mbox_identities
    ):
        """A client proposing a different topology must not offer the old
        session id (the cached keys encode the old grants)."""
        cache = SessionCache()
        store = ClientSessionStore()
        build_session(
            ca, server_identity, mbox_identities[:1], _contexts(1),
            session_store=store, session_cache=cache,
        )
        changed = [
            ContextDefinition(1, "context-1", {1: Permission.READ}),
            ContextDefinition(2, "context-2", {1: Permission.READ}),
        ]
        client2, _, server2, _ = build_session(
            ca, server_identity, mbox_identities[:1], changed,
            session_store=store, session_cache=cache,
        )
        assert client2.handshake_complete and server2.handshake_complete
        assert not client2.resumed and not server2.resumed
        assert cache.stats.hits == 0  # id was never even proposed

    def test_middlebox_replaying_old_context_keys_is_rejected(
        self, ca, server_identity, mbox_identities
    ):
        """Resumption re-keys every context; a middlebox that re-installs
        the previous session's keys cannot touch the resumed stream."""
        cache = SessionCache()
        store = ClientSessionStore()
        contexts = _contexts(1)
        _, old_mboxes, _, _ = build_session(
            ca, server_identity, mbox_identities[:1], contexts,
            session_store=store, session_cache=cache,
        )
        client, mboxes, server, chain = build_session(
            ca, server_identity, mbox_identities[:1], contexts,
            session_store=store, session_cache=cache,
        )
        assert client.resumed and server.resumed
        old_proc, new_proc = old_mboxes[0]._proc_c2s, mboxes[0]._proc_c2s
        # Fresh randoms produced fresh context keys.
        old_keys = old_proc.context_keys[1]
        new_keys = new_proc.context_keys[1]
        assert old_keys.enc("c2s") != new_keys.enc("c2s")
        # Replay the stale keys into the resumed session's processors.
        mboxes[0]._proc_c2s.context_keys = dict(old_proc.context_keys)
        client.send_application_data(b"secret", context_id=1)
        with pytest.raises(TLSError, match="relay failure"):
            chain.pump()


# -- one acceptance check per stack ------------------------------------------

_STACKS = {
    "tls": (Mode.E2E_TLS, KeyTransport.DHE),
    "mctls": (Mode.MCTLS, KeyTransport.DHE),
    "ckd": (Mode.MCTLS_CKD, KeyTransport.DHE),
    "rsa-transport": (Mode.MCTLS, KeyTransport.RSA),
    "mdtls": (Mode.MDTLS, KeyTransport.DHE),
}
# What changes between the first connection and the one that returns.
# Plain TLS has no topology, policy, mode or key transport; mdTLS runs
# one mode and one key transport.
_CHANGES = {
    "none": set(_STACKS),
    "suite dropped": set(_STACKS),
    "topology changed": set(_STACKS) - {"tls"},
    "policy narrowed": set(_STACKS) - {"tls"},
    "server mode changed": {"mctls", "ckd", "rsa-transport"},
    "key transport changed": {"mctls", "ckd", "rsa-transport"},
}
_ROWS = [(stack, change) for change, stacks in _CHANGES.items() for stack in stacks]
_OTHER_MODE = {Mode.MCTLS: Mode.MCTLS_CKD, Mode.MCTLS_CKD: Mode.MCTLS}
_BOTH_SUITES = (SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256)


@pytest.fixture(scope="module")
def beds():
    return {
        transport: TestBed(key_bits=512, dh_group=GROUP_TEST_512, key_transport=transport)
        for transport in KeyTransport
    }


def _run(bed, mode, client, server):
    relays = [] if mode is Mode.E2E_TLS else [bed.make_relay(mode, 0, 1)]
    client.start_handshake()
    Chain(client, relays, server).pump()
    assert client.handshake_complete and server.handshake_complete
    assert client.resumed == server.resumed
    return client.resumed


_TICKET = bytes(range(7, 7 + 120))


def _client(bed, mode, topology, source, store):
    """A client remembering through the cache that, with ``source``
    "ticket", also offers an RFC 5077 ticket no server here can open."""
    client = bed.make_client(mode, topology, session_store=store)
    return offer_ticket(client, _TICKET) if source == "ticket" else client


class TestCacheAndTicketsAreOnePath:
    """The session cache sits behind one lookup and one acceptance check
    per stack, and an offered ticket is not a second path: for every
    stack and every change between two connections, the second
    connection resumes exactly when nothing changed, whether or not the
    client also offers a ticket."""

    @pytest.mark.parametrize(
        "stack,change", sorted(_ROWS), ids=[f"{s}-{c}" for s, c in sorted(_ROWS)]
    )
    def test_resumes_exactly_when_nothing_changed(self, beds, stack, change, monkeypatch):
        mode, transport = _STACKS[stack]
        bed = beds[transport]
        monkeypatch.setattr(TestBed, "suites", property(lambda self: _BOTH_SUITES))
        topology = None if mode is Mode.E2E_TLS else bed.topology(1)
        outcomes = {}
        for source in ("cache", "ticket"):
            store, cache = ClientSessionStore(), SessionCache()
            _run(
                bed,
                mode,
                _client(bed, mode, topology, source, store),
                bed.make_server(mode, session_cache=cache),
            )
            returning, server_mode = topology, mode
            with monkeypatch.context() as patch:
                if change == "suite dropped":
                    suites = (SUITE_DHE_RSA_AES128_CBC_SHA256,)
                    patch.setattr(TestBed, "suites", property(lambda self: suites))
                elif change == "topology changed":
                    returning = bed.topology(1, n_contexts=2)
                elif change == "key transport changed":
                    other = next(t for t in KeyTransport if t is not transport)
                    patch.setattr(bed, "key_transport", other)
                elif change == "server mode changed":
                    server_mode = _OTHER_MODE[mode]
                client = _client(bed, mode, returning, source, store)
            server = bed.make_server(server_mode, session_cache=cache)
            if change == "policy narrowed":
                server.topology_policy = lambda t: restrict_topology(
                    t, {1: {1: Permission.READ}}
                )
            outcomes[source] = _run(bed, mode, client, server)
        expected = change == "none"
        assert outcomes == {"cache": expected, "ticket": expected}


# -- a ClientHello's session-ticket extension is an unknown extension -------

NEW_SESSION_TICKET = 4  # the RFC 5077 handshake type no stack defines


@pytest.mark.parametrize("extension", [b"", bytes(range(7, 7 + 120))], ids=["empty", "blob"])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("mode", [Mode.E2E_TLS, Mode.MCTLS], ids=["TLSServer", "McTLSServer"])
def test_ticket_extension_beside_a_fresh_id_runs_in_full(beds, mode, cached, extension):
    """A ClientHello carrying extension 0x0023 (empty: "issue me a
    ticket"; a blob: "resume from this ticket") beside a fresh 32-byte
    session id gets a full handshake, as RFC 5077 §3.4 asks of a server
    without tickets: the id is not echoed, and no handshake message of
    type 4 (NewSessionTicket) is sent."""
    bed = beds[KeyTransport.DHE]
    topology = None if mode is Mode.E2E_TLS else bed.topology(1)
    client = bed.make_client(mode, topology)
    cache = SessionCache() if cached else None
    server = bed.make_server(mode, session_cache=cache)
    fresh_id = random.Random(len(extension)).randbytes(32)

    client_send, server_send, sent_types = client._send_handshake, server._send_handshake, []

    def hand_built_hello(message, tag=None):
        if isinstance(message, msgs.ClientHello):
            message = msgs.ClientHello(
                random=message.random,
                cipher_suites=message.cipher_suites,
                session_id=fresh_id,
                extensions=[*message.extensions, (EXT_SESSION_TICKET, extension)],
            )
        client_send(message, tag)

    def recording(message, tag=None):
        sent_types.append(message.msg_type)
        server_send(message, tag)

    client._send_handshake, server._send_handshake = hand_built_hello, recording
    _run(bed, mode, client, server)
    assert not server.resumed and not client.resumed
    assert msgs.CERTIFICATE in sent_types and NEW_SESSION_TICKET not in sent_types
    assert server._session_id != fresh_id
    assert bool(server._session_id) == cached
    if cached:
        assert len(cache) == 1 and fresh_id not in cache
