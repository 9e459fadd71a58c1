"""Stateless session tickets: seal/unseal properties and wire behaviour.

The ticket subsystem (``repro.tls.tickets``) lets a server resume
sessions with **zero per-session memory**: all resumption state lives in
a self-encrypted, self-authenticated blob the client stores.  That only
works if the blob is tamper-evident, expires, survives key rotation
within the retention window, and — for mcTLS — seals the *full granted
context topology* so resumption can never hand a middlebox more access
than the full handshake granted.

Three layers, all seeded (``random.Random``) so runs are deterministic:

* **properties** — seal/unseal round-trips, rotation windows, expiry,
  version skew, cross-manager rejection;
* **adversarial** — every single-bit flip and every truncation of a
  ticket must be rejected with :class:`TicketError` (never a wrong
  payload, never a crash), mirroring the ``repro.faults`` bit-flip /
  truncation mutator idioms; on-path ClientHello tampering runs through
  the real :class:`repro.faults.TamperProxy`;
* **wire** — TLS and mcTLS handshakes against *fresh server objects*
  (no shared cache — proving statelessness), with fallback-to-full on
  every defect and the mcTLS never-widen topology check.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.faults import (
    DropHandshakeMessage,
    FlipHandshakeBit,
    HandshakeMutator,
    TamperPlan,
    TamperProxy,
)
from repro.mctls import ContextDefinition, Permission
from repro.mctls import keys as mk
from repro.mctls.session import KeyTransport
from repro.tls.client import TLSClient
from repro.tls.connection import ALERT_DECRYPT_ERROR, TLSError
from repro.tls.messages import (
    CLIENT_HELLO,
    NEW_SESSION_TICKET,
    SERVER_HELLO_DONE,
    NewSessionTicket,
)
from repro.tls.server import TLSServer
from repro.tls.sessioncache import ClientSessionStore, TLSSessionState
from repro.tls.tickets import (
    KIND_MCTLS,
    KIND_TLS,
    MIN_TICKET_LEN,
    TICKET_VERSION,
    ClientTicket,
    TicketError,
    TicketKeyManager,
)
from repro.transport import Chain, pump

from tests.golden.gen_ticket_vectors import (
    TICKET_VECTORS_PATH,
    build_vectors,
    manager as golden_manager,
    states as golden_states,
)
from tests.mctls_helpers import build_session

SEEDS = (7, 4242)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Store(dict):
    """Minimal get/put store (the client only needs those two)."""

    def put(self, key, value):
        self[key] = value


# -- seal/unseal properties -------------------------------------------------


class TestSealUnseal:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        manager = TicketKeyManager(rng=rng.randbytes)
        for trial in range(50):
            kind = KIND_TLS if trial % 2 == 0 else KIND_MCTLS
            payload = rng.randbytes(rng.randrange(0, 200))
            ticket = manager.seal(kind, payload)
            assert len(ticket) >= MIN_TICKET_LEN
            got_kind, got_payload = manager.unseal(ticket)
            assert got_kind == kind
            assert got_payload == payload
        assert manager.stats.sealed == 50
        assert manager.stats.unsealed == 50
        assert manager.stats.rejected == 0

    def test_same_payload_seals_differently(self):
        manager = TicketKeyManager()
        a = manager.seal(KIND_TLS, b"state")
        b = manager.seal(KIND_TLS, b"state")
        assert a != b  # fresh nonce per ticket
        assert manager.unseal(a) == manager.unseal(b) == (KIND_TLS, b"state")

    def test_rotation_window(self):
        clock = FakeClock()
        manager = TicketKeyManager(lifetime=100.0, rotation_period=50.0, clock=clock)
        old_ticket = manager.seal(KIND_TLS, b"old")
        old_key = manager.current_key_name

        clock.now = 60.0  # past the rotation period: new seals, new key
        new_ticket = manager.seal(KIND_TLS, b"new")
        assert manager.current_key_name != old_key
        assert manager.stats.rotations == 1

        # The retired key still unseals within its retention window...
        assert manager.unseal(old_ticket) == (KIND_TLS, b"old")
        assert manager.unseal(new_ticket) == (KIND_TLS, b"new")

        # ...and is pruned once no ticket under it can still be alive
        # (rotation_period + lifetime after its creation).
        clock.now = 151.0
        with pytest.raises(TicketError):
            manager.unseal(old_ticket)

    def test_expiry_rejected_before_key_retirement(self):
        clock = FakeClock()
        manager = TicketKeyManager(lifetime=100.0, rotation_period=500.0, clock=clock)
        ticket = manager.seal(KIND_TLS, b"short-lived")
        clock.now = 99.0
        assert manager.unseal(ticket) == (KIND_TLS, b"short-lived")
        clock.now = 101.0  # key still current, ticket itself expired
        with pytest.raises(TicketError):
            manager.unseal(ticket)
        assert manager.stats.rejected == 1

    def test_version_skew_rejected(self):
        manager = TicketKeyManager()
        blob = bytearray(manager.seal(KIND_TLS, b"v"))
        blob[0] = TICKET_VERSION + 1
        with pytest.raises(TicketError):
            manager.unseal(bytes(blob))

    def test_cross_manager_rejected(self):
        """A ticket only unseals at a server holding the same keys —
        the property that makes fork-inherited managers necessary and
        sufficient for cross-worker resumption."""
        a, b = TicketKeyManager(), TicketKeyManager()
        ticket = a.seal(KIND_TLS, b"mine")
        with pytest.raises(TicketError):
            b.unseal(ticket)
        assert b.stats.rejected == 1


# -- golden payloads and blobs ----------------------------------------------


class TestGoldenVectors:
    """The payload each session-state class encodes, and the blob it
    seals into, frozen byte for byte (``tests/golden/ticket_vectors.json``)."""

    FROZEN = json.loads(TICKET_VECTORS_PATH.read_text())

    def test_generator_reproduces_frozen_vectors_byte_for_byte(self):
        assert build_vectors() == self.FROZEN

    @pytest.mark.parametrize("name", ["tls", "mctls", "mdtls"])
    def test_frozen_blob_opens_to_the_state(self, name):
        vector = self.FROZEN["states"][name]
        state = golden_states()[name]
        kind, payload = golden_manager().unseal(bytes.fromhex(vector["sealed"]))
        assert (kind, payload.hex()) == (vector["kind"], vector["payload"])
        assert kind == state.ticket_kind
        assert type(state).from_ticket_payload(payload) == state


# -- adversarial: bit flips and truncation ----------------------------------


class TestTamperResistance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_sampled_bit_flip_rejected(self, seed):
        """FlipPayloadBit's idiom applied to the whole blob: any seeded
        single-bit flip anywhere in the ticket must yield TicketError —
        never a wrong payload, never a different exception."""
        rng = random.Random(seed)
        manager = TicketKeyManager()
        ticket = manager.seal(KIND_MCTLS, rng.randbytes(64))
        for _ in range(100):
            mutated = bytearray(ticket)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            with pytest.raises(TicketError):
                manager.unseal(bytes(mutated))
        assert manager.stats.rejected == 100

    def test_every_truncation_rejected(self):
        """TruncateRecord's idiom: every proper prefix of a ticket is
        rejected (including the empty blob)."""
        manager = TicketKeyManager()
        ticket = manager.seal(KIND_TLS, b"truncate-me")
        for cut in range(len(ticket)):
            with pytest.raises(TicketError):
                manager.unseal(ticket[:cut])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extension_garbage_never_crashes_server(
        self, seed, client_config, server_config
    ):
        """Random bytes in the ticket extension slot → silent full
        handshake, not an exception."""
        rng = random.Random(seed)
        manager = TicketKeyManager()
        store = _Store()
        store[client_config.server_name or ""] = ClientTicket(
            ticket=rng.randbytes(rng.randrange(0, 3 * MIN_TICKET_LEN)),
            state=TLSSessionState(
                session_id=b"",
                master_secret=rng.randbytes(48),
                cipher_suite_id=TLSClient(client_config).config.suite_ids()[0],
                server_name=client_config.server_name or "",
            ),
        )
        client = TLSClient(client_config, ticket_store=store)
        server = TLSServer(server_config, ticket_manager=manager)
        client.start_handshake()
        pump(client, server)
        assert client.handshake_complete and server.handshake_complete
        assert not client.resumed and not server.resumed


# -- wire: TLS --------------------------------------------------------------


def _tls_handshake(client_config, server_config, store, manager):
    client = TLSClient(client_config, ticket_store=store)
    # A fresh server object every time: no session cache, no shared
    # state beyond the ticket keys — resumption is O(1) server memory.
    server = TLSServer(server_config, ticket_manager=manager)
    client.start_handshake()
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    return client, server


class TestTLSWire:
    def test_full_then_ticket_resume_across_server_objects(
        self, client_config, server_config
    ):
        manager = TicketKeyManager()
        store = _Store()
        first_client, first_server = _tls_handshake(
            client_config, server_config, store, manager
        )
        assert not first_client.resumed
        assert store  # NewSessionTicket delivered and kept

        second_client, second_server = _tls_handshake(
            client_config, server_config, store, manager
        )
        assert second_client.resumed and second_server.resumed
        assert manager.stats.unsealed == 1

    def test_tampered_stored_ticket_falls_back_then_reissues(
        self, client_config, server_config
    ):
        manager = TicketKeyManager()
        store = _Store()
        _tls_handshake(client_config, server_config, store, manager)

        key = next(iter(store))
        good = store[key]
        blob = bytearray(good.ticket)
        blob[len(blob) // 2] ^= 0x01
        store[key] = dataclasses.replace(good, ticket=bytes(blob))

        client, server = _tls_handshake(client_config, server_config, store, manager)
        assert not client.resumed and not server.resumed
        assert manager.stats.rejected == 1
        # The fallback handshake issued a fresh ticket; the next session
        # resumes again — one bad blob costs one round trip, not the key.
        client3, server3 = _tls_handshake(client_config, server_config, store, manager)
        assert client3.resumed and server3.resumed

    def test_mctls_kind_ticket_rejected_by_tls_server(
        self, client_config, server_config
    ):
        """Cross-protocol replay: a ticket sealed for mcTLS state must
        not resume a plain TLS session even under the same keys."""
        manager = TicketKeyManager()
        store = _Store()
        _tls_handshake(client_config, server_config, store, manager)
        key = next(iter(store))
        good = store[key]
        wrong_kind = manager.seal(KIND_MCTLS, b"not tls state")
        store[key] = dataclasses.replace(good, ticket=wrong_kind)

        client, server = _tls_handshake(client_config, server_config, store, manager)
        assert not client.resumed and not server.resumed


# -- wire: mcTLS ------------------------------------------------------------


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
    def test_ticket_resume_preserves_permissions(
        self, ca, server_identity, mbox_identity
    ):
        manager = TicketKeyManager()
        store = _Store()
        _, full_mboxes, full_server, _ = build_session(
            ca, server_identity, [mbox_identity], _contexts(),
            ticket_store=store, ticket_manager=manager,
        )
        assert not full_server.resumed
        assert store

        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], _contexts(),
            ticket_store=store, ticket_manager=manager,
        )
        assert client.resumed and server.resumed
        # Identical per-context grants: resumption widened nothing.
        assert [dict(m.permissions) for m in mboxes] == [
            dict(m.permissions) for m in full_mboxes
        ]
        client.send_application_data(b"resumed-data", context_id=1)
        events = chain.pump()
        assert any(getattr(e, "data", None) == b"resumed-data" for e in events)

    def test_topology_change_cannot_ride_old_ticket(
        self, ca, server_identity, mbox_identity
    ):
        """Forging the client-side ticket record to claim a *wider*
        topology must not get that topology resumed: the server compares
        the ClientHello topology against the one sealed inside the
        ticket and falls back to a full handshake, whose grants come
        from current policy — never from the ticket."""
        manager = TicketKeyManager()
        store = _Store()
        _, _, _, _ = build_session(
            ca, server_identity, [mbox_identity], _contexts(),
            ticket_store=store, ticket_manager=manager,
        )
        key = next(iter(store))
        good = store[key]

        client, mboxes, server, _ = build_session(
            ca, server_identity, [mbox_identity], _widened_contexts(),
            ticket_store=store, ticket_manager=manager,
        )
        # Honest client: its topology changed, so it never offered the
        # stale ticket at all (store state no longer matches).
        assert not client.resumed and not server.resumed

        # Dishonest client: splice the new topology into the stored
        # ticket record so the offer goes out with the old sealed blob.
        forged_state = dataclasses.replace(
            good.state,
            topology_bytes=client.topology.encode(),
        )
        store[key] = dataclasses.replace(good, state=forged_state)
        client2, mboxes2, server2, _ = build_session(
            ca, server_identity, [mbox_identity], _widened_contexts(),
            ticket_store=store, ticket_manager=manager,
        )
        assert not client2.resumed and not server2.resumed
        # Full-handshake grants under current policy — the middlebox got
        # the new topology because policy granted it, not the ticket;
        # the sealed (narrow) topology never resumed into the wide one.
        assert server2.handshake_complete
        assert mboxes2[0].permissions[1] is Permission.WRITE

    def test_on_path_ticket_tamper_detected_never_widens(
        self, ca, server_identity, mbox_identity
    ):
        """A key-less on-path attacker flips one bit inside the ticket
        bytes of the ClientHello (via the real TamperProxy).  The server
        rejects the blob and falls back to a full handshake; the
        transcript divergence is then caught at Finished — a clean
        protocol failure, no crash, no resumption, no access granted."""
        manager = TicketKeyManager()
        store = _Store()
        build_session(
            ca, server_identity, [mbox_identity], _contexts(),
            ticket_store=store, ticket_manager=manager,
        )
        ticket_bytes = next(iter(store.values())).ticket

        class FlipTicketByte(HandshakeMutator):
            name = "hs-flip-ticket"

            def mutate_message(self, msg_type, body, rng):
                if msg_type != CLIENT_HELLO:
                    return None
                index = body.find(ticket_bytes)
                if index < 0:  # pragma: no cover - offer must be present
                    return None
                mutated = bytearray(body)
                mutated[index + rng.randrange(len(ticket_bytes))] ^= 0x40
                return [(msg_type, bytes(mutated))]

        from tests.mctls_helpers import (  # local: same wiring, no pump
            GROUP_TEST_512,
            McTLSClient,
            McTLSServer,
            MiddleboxInfo,
            SessionTopology,
            TLSConfig,
        )

        topology = SessionTopology(
            middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
            contexts=_contexts(),
        )
        client = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name=server_identity.name,
                dh_group=GROUP_TEST_512,
            ),
            topology=topology,
            ticket_store=store,
        )
        server = McTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
            ticket_manager=manager,
        )
        proxy = TamperProxy(TamperPlan(seed=7, handshake_mutator=FlipTicketByte()))
        chain = Chain(client, [proxy], server)
        client.start_handshake()
        with pytest.raises(TLSError):
            chain.pump()
        assert not server.resumed
        assert not server.handshake_complete
        assert manager.stats.rejected == 1


# -- the server's Finished covers the NewSessionTicket ------------------------

_MCTLS_STACKS = {"mctls": Mode.MCTLS, "ckd": Mode.MCTLS_CKD, "mdtls": Mode.MDTLS}


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512, key_transport=KeyTransport.DHE)


class ReplaceTicket(HandshakeMutator):
    """Swap the NewSessionTicket's body for another one."""

    name = "hs-swap-ticket"

    def __init__(self, body: bytes):
        self.body = body

    def mutate_message(self, msg_type, body, rng):
        return [(msg_type, self.body)] if msg_type == NEW_SESSION_TICKET else None


class InjectTicket(HandshakeMutator):
    """Add a NewSessionTicket the server never sent, right behind its
    ServerHelloDone (the client then waits for the server's last flight,
    where a ticket has a row)."""

    name = "hs-inject-ticket"

    def __init__(self, body: bytes):
        self.body = body

    def mutate_message(self, msg_type, body, rng):
        if msg_type != SERVER_HELLO_DONE:
            return None
        return [(msg_type, body), (NEW_SESSION_TICKET, self.body)]


@pytest.mark.parametrize("stack", list(_MCTLS_STACKS))
@pytest.mark.parametrize("tamper", ["swap", "flip", "strip", "inject"])
def test_tampered_new_session_ticket_fails_that_handshake(bed, stack, tamper):
    """An on-path attacker who swaps in another client's ticket, flips a
    bit of it, strips it or injects one fails the handshake it rides in,
    at the client, with ``decrypt_error``: the ticket is in the transcript
    the server's Finished covers.  Nothing reaches the ticket store."""
    mode = _MCTLS_STACKS[stack]
    manager = TicketKeyManager()

    def chain(store, server_manager, *proxies):
        client = bed.make_client(mode, bed.topology(1), ticket_store=store)
        server = bed.make_server(mode, ticket_manager=server_manager)
        client.start_handshake()
        return client, Chain(client, [bed.make_relay(mode, 0, 1), *proxies], server)

    other = ClientSessionStore()
    chain(other, manager)[1].pump()
    namespace = "mdtls" if mode is Mode.MDTLS else "mctls"
    issued = NewSessionTicket(
        lifetime_hint=int(manager.lifetime),
        ticket=other.get((namespace, bed.server_name)).ticket,
    ).encode()
    mutator, server_manager = {
        "swap": (ReplaceTicket(issued), manager),
        "flip": (FlipHandshakeBit(NEW_SESSION_TICKET), manager),
        "strip": (DropHandshakeMessage(NEW_SESSION_TICKET), manager),
        "inject": (InjectTicket(issued), None),
    }[tamper]
    proxy = TamperProxy(TamperPlan(seed=11, handshake_mutator=mutator, direction=mk.S2C))
    store = ClientSessionStore()
    client, victim = chain(store, server_manager, proxy)
    with pytest.raises(TLSError, match="server Finished verification failed") as failure:
        victim.pump()
    assert failure.value.alert == ALERT_DECRYPT_ERROR
    assert proxy.log == [(mk.S2C, mutator.name)]
    assert not client.handshake_complete and len(store) == 0
