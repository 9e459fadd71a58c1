"""Cross-suite negotiation: offering {SHA-CTR, AES-128-CBC} in either
order, server policy picking each, clean mismatch failure, and the
no-silent-suite-switch guarantees on resumption.

Both suites are registered on every host and negotiated alike — by id
in the ClientHello, kept in session caches — so these tests drive real
handshakes end to end, seeded for determinism.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.framing import MCTLS_DEFAULT, TLS_DEFAULT
from repro.mctls import (
    ContextDefinition,
    McTLSApplicationData,
    McTLSClient,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.tls import messages as tls_msgs
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
    SUITES,
)
from repro.tls.client import TLSClient
from repro.tls.connection import ApplicationData, TLSConfig, TLSError
from repro.tls.server import TLSServer
from repro.tls.sessioncache import SessionCache
from repro.transport import Chain, pump

from tests.mctls_helpers import offer_ticket


class _Store(dict):
    """Minimal get/put client-side session store."""

    def put(self, key, value):
        self[key] = value

SEEDS = (11, 2718)

SUITE_IDS = (0xFF67, 0x0067)  # SHA-CTR, AES-128-CBC


def _suites():
    return [SUITES[sid] for sid in SUITE_IDS]


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", list(itertools.permutations(range(2))))
def test_server_picks_first_offered_supported_suite(
    ca, server_identity, seed, order
):
    """The server picks the first client-offered suite it supports, so
    client preference order decides whenever the server allows all."""
    suites = _suites()
    offered = [suites[i] for i in order]
    client = TLSClient(_client_config(ca, offered))
    server = TLSServer(_server_config(ca, server_identity, suites))
    _run_tls(client, server, random.Random(seed).randbytes(80))
    assert client.negotiated_suite.suite_id == offered[0].suite_id
    assert server.negotiated_suite.suite_id == offered[0].suite_id


@pytest.mark.parametrize("picked_id", SUITE_IDS)
def test_server_policy_forces_each_suite(ca, server_identity, picked_id):
    """A server restricted to one suite steers any offer order to it."""
    client = TLSClient(_client_config(ca, _suites()))
    server = TLSServer(_server_config(ca, server_identity, [SUITES[picked_id]]))
    _run_tls(client, server, b"policy-pick")
    assert client.negotiated_suite.suite_id == picked_id
    assert server.negotiated_suite.suite_id == picked_id


@pytest.mark.parametrize("picked_id", SUITE_IDS)
def test_mctls_negotiates_each_suite_through_middlebox(
    ca, server_identity, mbox_identity, picked_id
):
    """Full mcTLS handshake + data through one READ middlebox under each
    suite: the suite id propagates to every hop's record layer."""
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=[ContextDefinition(1, "c1", {1: Permission.READ})],
    )
    from repro.mctls import McTLSMiddlebox

    client = McTLSClient(
        _client_config(ca, [SUITES[picked_id]], server_name=server_identity.name),
        topology=topology,
    )
    server = McTLSServer(_server_config(ca, server_identity, _suites()))
    mbox = McTLSMiddlebox(
        mbox_identity.name,
        TLSConfig(
            identity=mbox_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
            cipher_suites=tuple(_suites()),
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


def _direct_mctls_client(config):
    topology = SessionTopology(
        middleboxes=[], contexts=[ContextDefinition(1, "c1", {})]
    )
    return McTLSClient(config, topology=topology)


@pytest.mark.parametrize(
    "make_client,server_cls,framing",
    [(TLSClient, TLSServer, TLS_DEFAULT), (_direct_mctls_client, McTLSServer, MCTLS_DEFAULT)],
    ids=["TLSClient", "McTLSClient"],
)
def test_unknown_selected_suite_rejected_by_client(
    ca, server_identity, make_client, server_cls, framing
):
    """A ServerHello naming a suite the client never offered aborts the
    client: it does not install the suite.  The server allows both suites
    and honestly picks 0xFF67, the only one offered; the attacker rewrites
    the ServerHello's ``cipher_suite`` to 0x0067 in flight.  (``MdTLSClient``
    inherits ``McTLSClient``'s check.)"""
    client = make_client(_client_config(ca, [SUITE_DHE_RSA_SHACTR_SHA256]))
    server = server_cls(_server_config(ca, server_identity, _suites()))
    client.start_handshake()
    server.receive_data(client.data_to_send())
    flight = bytearray(server.data_to_send())
    # The flight opens with one record whose first message is the
    # ServerHello: type(1) || length(3) || body.
    start = framing.header_len
    assert flight[start] == tls_msgs.SERVER_HELLO
    end = start + 4 + int.from_bytes(flight[start + 1 : start + 4], "big")
    hello = tls_msgs.ServerHello.decode(bytes(flight[start + 4 : end]))
    assert hello.cipher_suite == SUITE_DHE_RSA_SHACTR_SHA256.suite_id
    hello.cipher_suite = SUITE_DHE_RSA_AES128_CBC_SHA256.suite_id
    flight[start + 4 : end] = hello.encode()
    with pytest.raises(TLSError, match="did not offer"):
        client.receive_data(bytes(flight))
    assert client.negotiated_suite is None
    assert not client.handshake_complete


# -- resumption can never switch suites ---------------------------------------


def _resume_pair(ca, server_identity, client_suites, server_suites, store, cache):
    client = TLSClient(_client_config(ca, client_suites), session_store=store)
    server = TLSServer(
        _server_config(ca, server_identity, server_suites), session_cache=cache
    )
    return client, server


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("picked_id", SUITE_IDS)
def test_session_cache_resumption_keeps_suite(ca, server_identity, seed, picked_id):
    store, cache = _Store(), SessionCache()
    payload = random.Random(seed).randbytes(60)
    for round_no in range(2):
        client, server = _resume_pair(
            ca,
            server_identity,
            [SUITES[picked_id]] + _suites(),
            _suites(),
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


# -- an offered ticket changes no suite ---------------------------------------


@pytest.mark.parametrize("picked_id", SUITE_IDS)
def test_ticket_resumption_keeps_suite(ca, server_identity, picked_id):
    """A client that offers a ticket beside its cached session, as
    OpenSSL clients do, resumes from the session id in round 2 under the
    suite round 1 picked: the server opens no tickets and ignores it."""
    store, cache = _Store(), SessionCache()
    for round_no in range(2):
        client = TLSClient(
            _client_config(ca, [SUITES[picked_id]] + _suites()), session_store=store
        )
        server = TLSServer(_server_config(ca, server_identity, _suites()), session_cache=cache)
        _run_tls(offer_ticket(client, bytes(range(48))), server, b"ticketed")
        assert client.resumed == server.resumed == (round_no == 1)
        assert client.negotiated_suite.suite_id == picked_id


def test_bitflipped_ticket_refuses_resumption(ca, server_identity):
    """A client without a cached session offers a ticket with one bit
    flipped in its suite-id region: no server here opens tickets, so the
    offer never resumes and never switches suites — a full handshake on
    the one suite offered."""
    ticket = bytearray(range(48))
    ticket[len(ticket) - 3] ^= 0x01
    client = TLSClient(
        _client_config(ca, [SUITE_DHE_RSA_SHACTR_SHA256]), session_store=_Store()
    )
    server = TLSServer(
        _server_config(ca, server_identity, [SUITE_DHE_RSA_SHACTR_SHA256]),
        session_cache=SessionCache(),
    )
    _run_tls(offer_ticket(client, bytes(ticket)), server, b"tampered ticket round")
    assert not client.resumed and not server.resumed
    assert client.negotiated_suite.suite_id == 0xFF67
