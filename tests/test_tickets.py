"""Session tickets offered to stacks that keep none.

No stack here issues or opens RFC 5077 tickets: session-id resumption
from the :class:`SessionCache` is the one resumption store.  Clients in
the wild still offer tickets (OpenSSL sends extension 0x0023 in every
ClientHello), so a server must treat one as an unknown extension: ignore
it and resume, or not, from the session id alone (RFC 5077 §3.4).  These
tests pin that down, seeded (``random.Random``) for determinism:

* **garbage** — whatever the offered bytes, the server neither crashes
  nor resumes from them;
* **on path** — the ignored ticket is still in the transcript both
  Finished messages cover, so every sampled bit flip and every
  truncation of it fails that handshake;
* **mcTLS** — an offered ticket neither stops a session-id resumption
  nor widens a middlebox's grant, whether the client's stored session is
  honest or forged;
* **tampering** — an attacker who swaps, flips or strips the offered
  ticket, or injects a NewSessionTicket (handshake type 4, which no
  stack defines), fails the handshake it rides in.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.faults import HandshakeMutator, TamperPlan, TamperProxy
from repro.mctls import ContextDefinition, Permission
from repro.mctls import keys as mk
from repro.mctls.session import KeyTransport
from repro.tls.client import TLSClient
from repro.tls.connection import ALERT_DECRYPT_ERROR, ALERT_UNEXPECTED_MESSAGE, TLSError
from repro.tls.messages import CLIENT_HELLO, SERVER_HELLO_DONE, ClientHello
from repro.tls.server import TLSServer
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.transport import Chain, pump

from tests.mctls_helpers import (
    EXT_SESSION_TICKET,
    FlipTicketBit,
    build_session,
    offer_ticket,
)

SEEDS = (7, 4242)
TICKET = bytes(range(200, 248))  # an opaque blob no server here opens
NEW_SESSION_TICKET = 4  # RFC 5077's handshake type; no stack defines it


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512, key_transport=KeyTransport.DHE)


def _tls_pair(client_config, server_config, ticket):
    client = offer_ticket(TLSClient(client_config, session_store=ClientSessionStore()), ticket)
    return client, TLSServer(server_config, session_cache=SessionCache())


class RewriteTicket(HandshakeMutator):
    """On path: replace the ClientHello's ticket with ``rewrite(ticket)``
    (``None`` strips the extension), re-encoding the lengths so the
    hello still parses."""

    def __init__(self, name: str, rewrite):
        self.name, self.rewrite = name, rewrite

    def mutate_message(self, msg_type, body, rng):
        if msg_type != CLIENT_HELLO:
            return None
        hello = ClientHello.decode(body)
        extensions = [
            (ext, self.rewrite(data) if ext == EXT_SESSION_TICKET else data)
            for ext, data in hello.extensions
        ]
        extensions = [(ext, data) for ext, data in extensions if data is not None]
        return [(msg_type, dataclasses.replace(hello, extensions=extensions).encode())]


def _through(bed, proxy, ticket):
    """An mcTLS client offering ``ticket``, its middlebox, then ``proxy``."""
    client = offer_ticket(bed.make_client(Mode.MCTLS, bed.topology(1)), ticket)
    server = bed.make_server(Mode.MCTLS)
    client.start_handshake()
    return client, server, Chain(client, [bed.make_relay(Mode.MCTLS, 0, 1), proxy], server)


class TestTamperResistance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_sampled_bit_flip_rejected(self, seed, bed):
        """FlipPayloadBit's idiom on the offered ticket: a seeded single-bit
        flip anywhere in it, on path, fails the handshake at a Finished
        check — the server ignores the ticket, not the transcript."""
        for trial in range(8):
            proxy = TamperProxy(
                TamperPlan(seed=seed + trial, handshake_mutator=FlipTicketBit(TICKET))
            )
            client, server, chain = _through(bed, proxy, TICKET)
            with pytest.raises(TLSError, match="Finished verification failed"):
                chain.pump()
            assert proxy.log == [(mk.C2S, "hs-flip-ticket")]
            assert not client.handshake_complete and not server.handshake_complete

    def test_every_truncation_rejected(self, bed):
        """TruncateRecord's idiom: every proper prefix of the offered
        ticket (including the empty one), cut on path, fails the
        handshake."""
        ticket = TICKET[:16]
        for keep in range(len(ticket)):
            truncate = RewriteTicket("hs-truncate-ticket", lambda data: data[:keep])
            proxy = TamperProxy(TamperPlan(handshake_mutator=truncate))
            client, server, chain = _through(bed, proxy, ticket)
            with pytest.raises(TLSError, match="Finished verification failed"):
                chain.pump()
            assert proxy.log == [(mk.C2S, "hs-truncate-ticket")]
            assert not client.handshake_complete and not server.handshake_complete

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extension_garbage_never_crashes_server(self, seed, client_config, server_config):
        """Random bytes in the ticket extension slot → silent full
        handshake, not an exception."""
        rng = random.Random(seed)
        for _ in range(4):
            garbage = rng.randbytes(rng.randrange(0, 3 * len(TICKET)))
            client, server = _tls_pair(client_config, server_config, garbage)
            client.start_handshake()
            pump(client, server)
            assert client.handshake_complete and server.handshake_complete
            assert not client.resumed and not server.resumed


# -- mcTLS: an offered ticket widens nothing -----------------------------------


def _contexts():
    return [
        ContextDefinition(1, "content", {1: Permission.READ}),
        ContextDefinition(2, "headers", {1: Permission.WRITE}),
    ]


def _widened_contexts():
    return [
        ContextDefinition(1, "content", {1: Permission.WRITE}),
        ContextDefinition(2, "headers", {1: Permission.WRITE}),
    ]


class TestMcTLSWire:
    def test_ticket_resume_preserves_permissions(self, ca, server_identity, mbox_identity):
        """A client that offers a ticket beside its cached session resumes
        from the session id, with the full handshake's grants."""
        stores = dict(
            session_store=ClientSessionStore(), session_cache=SessionCache(), offered_ticket=TICKET
        )
        _, full_mboxes, full_server, _ = build_session(
            ca, server_identity, [mbox_identity], _contexts(), **stores
        )
        assert not full_server.resumed

        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], _contexts(), **stores
        )
        assert client.resumed and server.resumed
        # Identical per-context grants: resumption widened nothing.
        assert [dict(m.permissions) for m in mboxes] == [
            dict(m.permissions) for m in full_mboxes
        ]
        client.send_application_data(b"resumed-data", context_id=1)
        events = chain.pump()
        assert any(getattr(e, "data", None) == b"resumed-data" for e in events)

    def test_topology_change_cannot_ride_old_ticket(self, ca, server_identity, mbox_identity):
        """A client that rewrites its stored session to claim a *wider*
        topology offers that session's id (and its old ticket), but the
        server compares the ClientHello's topology with the one it cached
        and runs a full handshake: the middlebox gets WRITE because
        current policy grants it, never by resuming the narrow session."""
        store, cache = ClientSessionStore(), SessionCache()
        stores = dict(session_store=store, session_cache=cache, offered_ticket=TICKET)
        build_session(ca, server_identity, [mbox_identity], _contexts(), **stores)
        key = ("mctls", server_identity.name)
        good = store.get(key)

        # Honest client: its topology changed, so it offers no id at all.
        client, _, server, _ = build_session(
            ca, server_identity, [mbox_identity], _widened_contexts(), **stores
        )
        assert not client._offered_id and not client.resumed and not server.resumed

        # Dishonest client: splice the new topology into the stored state
        # so the old id goes out beside the widened topology.
        store.put(key, dataclasses.replace(good, topology_bytes=client.topology.encode()))
        client2, mboxes2, server2, _ = build_session(
            ca, server_identity, [mbox_identity], _widened_contexts(), **stores
        )
        assert client2._offered_id and not client2.resumed and not server2.resumed
        assert server2.handshake_complete
        assert mboxes2[0].permissions[1] is Permission.WRITE

    def test_on_path_ticket_tamper_detected_never_widens(self, bed):
        """A key-less on-path attacker flips one bit inside the ticket
        bytes of the ClientHello (via the real TamperProxy), beside a
        session id the server has cached.  The server ignores the ticket
        and resumes from the id, but the transcript divergence is caught
        at Finished — a clean protocol failure, no crash, no resumed
        session, no access granted."""
        store, cache = ClientSessionStore(), SessionCache()

        def connect(*proxies):
            client = bed.make_client(Mode.MCTLS, bed.topology(1), session_store=store)
            server = bed.make_server(Mode.MCTLS, session_cache=cache)
            relays = [bed.make_relay(Mode.MCTLS, 0, 1), *proxies]
            offer_ticket(client, TICKET).start_handshake()
            return client, server, Chain(client, relays, server)

        connect()[2].pump()
        proxy = TamperProxy(TamperPlan(seed=7, handshake_mutator=FlipTicketBit(TICKET)))
        client, server, chain = connect(proxy)
        with pytest.raises(TLSError, match="Finished verification failed"):
            chain.pump()
        assert proxy.log == [(mk.C2S, "hs-flip-ticket")]
        assert not client.handshake_complete and not server.handshake_complete


# -- a tampered ticket fails the handshake it rides in ------------------------

_MCTLS_STACKS = {"mctls": Mode.MCTLS, "ckd": Mode.MCTLS_CKD, "mdtls": Mode.MDTLS}


class InjectTicket(HandshakeMutator):
    """Add a NewSessionTicket the server never sent, right behind its
    ServerHelloDone."""

    name = "hs-inject-ticket"

    def mutate_message(self, msg_type, body, rng):
        if msg_type != SERVER_HELLO_DONE:
            return None
        # lifetime_hint (u32) and a vec16 ticket, as RFC 5077 encodes it
        ticket = len(TICKET).to_bytes(2, "big") + TICKET
        return [(msg_type, body), (NEW_SESSION_TICKET, bytes(4) + ticket)]


@pytest.mark.parametrize("stack", list(_MCTLS_STACKS))
@pytest.mark.parametrize("tamper", ["swap", "flip", "strip", "inject"])
def test_tampered_new_session_ticket_fails_that_handshake(bed, stack, tamper):
    """An on-path attacker who swaps another client's ticket into the
    ClientHello, flips a bit of it or strips it fails the handshake it
    rides in with ``decrypt_error``: the ticket nobody reads is in the
    transcript both Finished messages cover.  One who injects a
    NewSessionTicket into the server's flight fails it with
    ``unexpected_message``: no client table has a row for handshake
    type 4.  Nothing reaches the session store."""
    mode = _MCTLS_STACKS[stack]
    mutator, direction, alert = {
        "swap": (RewriteTicket("hs-swap-ticket", lambda data: TICKET[::-1]), mk.C2S, None),
        "flip": (FlipTicketBit(TICKET), mk.C2S, None),
        "strip": (RewriteTicket("hs-strip-ticket", lambda data: None), mk.C2S, None),
        "inject": (InjectTicket(), mk.S2C, ALERT_UNEXPECTED_MESSAGE),
    }[tamper]
    store = ClientSessionStore()
    client = offer_ticket(bed.make_client(mode, bed.topology(1), session_store=store), TICKET)
    server = bed.make_server(mode, session_cache=SessionCache())
    proxy = TamperProxy(TamperPlan(seed=11, handshake_mutator=mutator, direction=direction))
    client.start_handshake()
    with pytest.raises(TLSError) as failure:
        Chain(client, [bed.make_relay(mode, 0, 1), proxy], server).pump()
    if alert is None:
        assert "Finished verification failed" in str(failure.value)
        alert = ALERT_DECRYPT_ERROR
    assert failure.value.alert == alert
    assert proxy.log == [(direction, mutator.name)]
    assert not client.handshake_complete and len(store) == 0
