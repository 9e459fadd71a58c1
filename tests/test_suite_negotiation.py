"""Cross-suite negotiation: offering {SHA-CTR, AES-CTR, ChaCha20} in
every order, server policy picking each, clean mismatch failure, and the
no-silent-suite-switch guarantees on both resumption paths.

The libcrypto suites are negotiated like any other suite — by id in the
ClientHello, sealed into tickets and session caches — so these tests
drive real handshakes end to end, seeded for determinism.  The cases
that need 0xFF68 / 0xFF69 skip where the EVP seam does not bind (they
are not registered there); the never-switch guarantees are also
exercised on the always-present suites so they hold everywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.evp import CIPHER_BACKEND
from repro.mctls import (
    ContextDefinition,
    McTLSApplicationData,
    McTLSClient,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
    SUITES,
)
from repro.tls.client import TLSClient
from repro.tls.connection import ApplicationData, TLSConfig, TLSError
from repro.tls.server import TLSServer
from repro.tls.sessioncache import SessionCache
from repro.tls.tickets import TicketKeyManager
from repro.transport import Chain, pump

needs_openssl = pytest.mark.skipif(
    CIPHER_BACKEND != "openssl-evp",
    reason="no EVP seam on this platform: 0xFF68 / 0xFF69 are not registered",
)


class _Store(dict):
    """Minimal get/put client-side store (sessions or tickets)."""

    def put(self, key, value):
        self[key] = value

SEEDS = (11, 2718)

STREAM_SUITE_IDS = (0xFF67, 0xFF68, 0xFF69)  # SHA-CTR, AES-CTR, ChaCha20


def _stream_suites():
    return [SUITES[sid] for sid in STREAM_SUITE_IDS]


def _client_config(ca, suites, server_name="server.example"):
    return TLSConfig(
        trusted_roots=[ca.certificate],
        server_name=server_name,
        dh_group=GROUP_TEST_512,
        cipher_suites=tuple(suites),
    )


def _server_config(ca, server_identity, suites):
    return TLSConfig(
        identity=server_identity,
        trusted_roots=[ca.certificate],
        dh_group=GROUP_TEST_512,
        cipher_suites=tuple(suites),
    )


def _run_tls(client, server, payload):
    client.start_handshake()
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    client.send_application_data(payload)
    server.send_application_data(payload[::-1])
    events = pump(client, server)
    data = [e.data for e in events if isinstance(e, ApplicationData)]
    assert sorted(data) == sorted([payload, payload[::-1]])


# -- offer-order / policy matrix ----------------------------------------------


@needs_openssl
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_server_picks_first_offered_supported_suite(
    ca, server_identity, seed, order
):
    """The server picks the first client-offered suite it supports, so
    client preference order decides whenever the server allows all."""
    suites = _stream_suites()
    offered = [suites[i] for i in order]
    client = TLSClient(_client_config(ca, offered))
    server = TLSServer(_server_config(ca, server_identity, suites))
    _run_tls(client, server, random.Random(seed).randbytes(80))
    assert client.negotiated_suite.suite_id == offered[0].suite_id
    assert server.negotiated_suite.suite_id == offered[0].suite_id


@needs_openssl
@pytest.mark.parametrize("picked_id", STREAM_SUITE_IDS)
def test_server_policy_forces_each_suite(ca, server_identity, picked_id):
    """A server restricted to one suite steers any offer order to it."""
    client = TLSClient(_client_config(ca, _stream_suites()))
    server = TLSServer(_server_config(ca, server_identity, [SUITES[picked_id]]))
    _run_tls(client, server, b"policy-pick")
    assert client.negotiated_suite.suite_id == picked_id
    assert server.negotiated_suite.suite_id == picked_id


@needs_openssl
@pytest.mark.parametrize("picked_id", STREAM_SUITE_IDS)
def test_mctls_negotiates_each_suite_through_middlebox(
    ca, server_identity, mbox_identity, picked_id
):
    """Full mcTLS handshake + data through one READ middlebox under each
    stream suite: the suite id propagates to every hop's record layer."""
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=[ContextDefinition(1, "c1", {1: Permission.READ})],
    )
    from repro.mctls import McTLSMiddlebox

    client = McTLSClient(
        _client_config(ca, [SUITES[picked_id]], server_name=server_identity.name),
        topology=topology,
    )
    server = McTLSServer(_server_config(ca, server_identity, _stream_suites()))
    mbox = McTLSMiddlebox(
        mbox_identity.name,
        TLSConfig(
            identity=mbox_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
            cipher_suites=tuple(_stream_suites()),
        ),
    )
    chain = Chain(client, [mbox], server)
    got = []
    chain.on_server_event = got.append
    client.start_handshake()
    chain.pump()
    assert client.handshake_complete and server.handshake_complete
    assert client.negotiated_suite.suite_id == picked_id
    assert server.negotiated_suite.suite_id == picked_id
    client.send_application_data(b"through the middlebox", context_id=1)
    chain.pump()
    app = [e for e in got if isinstance(e, McTLSApplicationData)]
    assert app and app[0].data == b"through the middlebox"


def test_no_mutually_supported_suite_fails_cleanly(ca, server_identity):
    client = TLSClient(_client_config(ca, [SUITE_DHE_RSA_SHACTR_SHA256]))
    server = TLSServer(
        _server_config(ca, server_identity, [SUITE_DHE_RSA_AES128_CBC_SHA256])
    )
    client.start_handshake()
    with pytest.raises(TLSError, match="no mutually supported cipher suite"):
        pump(client, server)


@needs_openssl
def test_unknown_selected_suite_rejected_by_client(ca, server_identity):
    """A server picking a suite the client never offered must abort the
    client, not install it."""
    client = TLSClient(_client_config(ca, [SUITE_DHE_RSA_SHACTR_SHA256]))
    server = TLSServer(
        _server_config(
            ca, server_identity, [SUITES[0xFF68], SUITE_DHE_RSA_SHACTR_SHA256]
        )
    )
    # Hostile server: claim support for everything the client offered,
    # then select AES-CTR anyway by rewriting the config between hello
    # processing and selection is not reachable from outside; instead
    # present a client that never offered what the server must pick.
    server.config = _server_config(ca, server_identity, [SUITES[0xFF68]])
    client.start_handshake()
    with pytest.raises(TLSError):
        pump(client, server)
    assert not client.handshake_complete


# -- resumption can never switch suites ---------------------------------------


def _resume_pair(ca, server_identity, client_suites, server_suites, store, cache):
    client = TLSClient(_client_config(ca, client_suites), session_store=store)
    server = TLSServer(
        _server_config(ca, server_identity, server_suites), session_cache=cache
    )
    return client, server


@needs_openssl
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("picked_id", STREAM_SUITE_IDS)
def test_session_cache_resumption_keeps_suite(ca, server_identity, seed, picked_id):
    store, cache = _Store(), SessionCache()
    payload = random.Random(seed).randbytes(60)
    for round_no in range(2):
        client, server = _resume_pair(
            ca,
            server_identity,
            [SUITES[picked_id]] + _stream_suites(),
            _stream_suites(),
            store,
            cache,
        )
        _run_tls(client, server, payload)
        assert client.resumed == server.resumed == (round_no == 1)
        assert client.negotiated_suite.suite_id == picked_id
        assert server.negotiated_suite.suite_id == picked_id


def test_resumption_dropped_when_suite_no_longer_offered(ca, server_identity):
    """Round 2 removes the original suite from the client's offer: the
    cached session must be skipped (full handshake), never resumed under
    a different suite."""
    store, cache = _Store(), SessionCache()
    client, server = _resume_pair(
        ca,
        server_identity,
        [SUITE_DHE_RSA_SHACTR_SHA256],
        [SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256],
        store,
        cache,
    )
    _run_tls(client, server, b"first")
    client, server = _resume_pair(
        ca,
        server_identity,
        [SUITE_DHE_RSA_AES128_CBC_SHA256],
        [SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256],
        store,
        cache,
    )
    _run_tls(client, server, b"second")
    assert not client.resumed and not server.resumed
    assert client.negotiated_suite.suite_id == 0x0067


def test_tampered_cached_suite_aborts_resumption(ca, server_identity):
    """Poisoned client store: the cached state claims a different suite
    than the server sealed.  The server resumes under the original; the
    client must abort — a resumed session can never switch suites."""
    store, cache = _Store(), SessionCache()
    client, server = _resume_pair(
        ca,
        server_identity,
        [SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256],
        [SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256],
        store,
        cache,
    )
    _run_tls(client, server, b"seed round")
    # Flip the sealed suite id in the client's cached state.
    state_key, state = next(
        (k, v) for k, v in store.items() if v.cipher_suite_id == 0xFF67
    )
    store.put(state_key, dataclasses.replace(state, cipher_suite_id=0x0067))
    client, server = _resume_pair(
        ca,
        server_identity,
        [SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256],
        [SUITE_DHE_RSA_SHACTR_SHA256, SUITE_DHE_RSA_AES128_CBC_SHA256],
        store,
        cache,
    )
    client.start_handshake()
    with pytest.raises(TLSError, match="original cipher suite"):
        pump(client, server)
    assert not client.handshake_complete


@needs_openssl
@pytest.mark.parametrize("picked_id", STREAM_SUITE_IDS)
def test_ticket_resumption_keeps_suite(ca, server_identity, picked_id):
    manager = TicketKeyManager()
    tickets = _Store()
    for round_no in range(2):
        client = TLSClient(
            _client_config(ca, [SUITES[picked_id]] + _stream_suites()),
            ticket_store=tickets,
        )
        server = TLSServer(
            _server_config(ca, server_identity, _stream_suites()),
            ticket_manager=manager,
        )
        _run_tls(client, server, b"ticketed")
        assert client.resumed == server.resumed == (round_no == 1)
        assert client.negotiated_suite.suite_id == picked_id


def test_bitflipped_ticket_refuses_resumption(ca, server_identity):
    """Every byte of the sealed ticket is covered by its MAC: flipping
    the sealed suite byte (or any other) must fall back to a full
    handshake — never resume, never switch suites silently."""
    manager = TicketKeyManager()
    tickets = _Store()
    client = TLSClient(
        _client_config(ca, [SUITE_DHE_RSA_SHACTR_SHA256]), ticket_store=tickets
    )
    server = TLSServer(
        _server_config(ca, server_identity, [SUITE_DHE_RSA_SHACTR_SHA256]),
        ticket_manager=manager,
    )
    _run_tls(client, server, b"issue me a ticket")

    assert tickets, "client holds no ticket after full handshake"
    key, ticket = next(iter(tickets.items()))
    blob = bytearray(ticket.ticket)
    # The sealed TLS payload is master_secret || suite_id || name; flip a
    # byte in the suite-id region (and implicitly break the MAC).
    flip_at = len(blob) - 3
    blob[flip_at] ^= 0x01
    tickets.put(key, dataclasses.replace(ticket, ticket=bytes(blob)))

    client = TLSClient(
        _client_config(ca, [SUITE_DHE_RSA_SHACTR_SHA256]), ticket_store=tickets
    )
    server = TLSServer(
        _server_config(ca, server_identity, [SUITE_DHE_RSA_SHACTR_SHA256]),
        ticket_manager=manager,
    )
    _run_tls(client, server, b"tampered ticket round")
    assert not client.resumed and not server.resumed
    assert client.negotiated_suite.suite_id == 0xFF67
