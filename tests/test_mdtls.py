"""The mdTLS delegation stack: warrants, handshake, resumption, traces.

mdTLS replaces mcTLS's per-middlebox key distribution with signed,
context-scoped **warrants**: each endpoint signs one warrant per
middlebox, the middlebox proves possession of the warranted key by
signing its key exchange, and context keys flow from the server alone,
sealed to the warranted certificate key.  These tests pin down:

* the delegation handshake end to end, with mixed per-context
  permissions clamped to the intersection of both warrants;
* the warrant codec and every verification failure class
  (forged / expired / widened / missing);
* "the server can say no" via ``topology_policy`` under delegation;
* resumption from the session cache keeping the warranted grants, under
  the client store's own mdTLS namespace — and never widening them when
  the client also offers a ticket, tampered at the client or on path
  (no server here opens tickets);
* ``repro.tools.check_interface`` flagging a stack that drops part of
  the formal ``repro.core`` surface;
* :func:`repro.trace.describe_stream` annotating the new handshake
  messages.
"""

from __future__ import annotations

import pytest

from repro.crypto.certs import Identity
from repro.crypto.dh import GROUP_TEST_512
from repro.faults import TamperPlan, TamperProxy
from repro.mctls import (
    ContextDefinition,
    MiddleboxInfo,
    Permission,
    SessionTopology,
    restrict_topology,
)
from repro.mctls import keys as mk
from repro.mctls import session as ms
from repro.mctls.session import McTLSApplicationData
from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer
from repro.mdtls import warrants as mdw
from repro.tls import messages as tls_msgs
from repro.tls.connection import TLSConfig, TLSError
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.transport import Chain

from tests.mctls_helpers import FlipTicketBit, offer_ticket

RANDOM_A = bytes(range(32))
RANDOM_B = bytes(range(32, 64))


@pytest.fixture(scope="module")
def client_identity(ca) -> Identity:
    return Identity.issued_by(ca, "client.example", key_bits=512)


def _contexts_mixed():
    """Two contexts, two middleboxes, asymmetric grants."""
    return [
        ContextDefinition(1, "headers", {1: Permission.WRITE, 2: Permission.READ}),
        ContextDefinition(2, "body", {1: Permission.READ}),
    ]


def build_mdtls(
    ca,
    server_identity,
    client_identity,
    mbox_identities,
    contexts,
    *,
    topology_policy=None,
    session_store=None,
    session_cache=None,
    offered_ticket=None,
    extra_relays=(),
):
    """Wire a client ⇄ middleboxes ⇄ server mdTLS session and pump the
    handshake; mirrors :func:`tests.mctls_helpers.build_session`."""
    middleboxes = [
        MiddleboxInfo(i + 1, ident.name) for i, ident in enumerate(mbox_identities)
    ]
    topology = SessionTopology(middleboxes=middleboxes, contexts=contexts)
    client = MdTLSClient(
        TLSConfig(
            identity=client_identity,
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            dh_group=GROUP_TEST_512,
        ),
        topology=topology,
        session_store=session_store,
    )
    server = MdTLSServer(
        TLSConfig(
            identity=server_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
        topology_policy=topology_policy,
        session_cache=session_cache,
    )
    mboxes = [
        MdTLSMiddlebox(
            ident.name,
            TLSConfig(
                identity=ident,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
        )
        for ident in mbox_identities
    ]
    if offered_ticket is not None:
        offer_ticket(client, offered_ticket)
    chain = Chain(client, list(mboxes) + list(extra_relays), server)
    client.start_handshake()
    chain.pump()
    return client, mboxes, server, chain


# -- the delegation handshake ----------------------------------------------


class TestDelegationHandshake:
    def test_mixed_permissions_end_to_end(
        self, ca, server_identity, client_identity, mbox_identity, mbox2_identity
    ):
        client, mboxes, server, chain = build_mdtls(
            ca,
            server_identity,
            client_identity,
            [mbox_identity, mbox2_identity],
            _contexts_mixed(),
        )
        assert client.handshake_complete and server.handshake_complete
        assert all(m.handshake_complete for m in mboxes)
        assert client.mode is ms.HandshakeMode.DELEGATION
        assert server.mode is ms.HandshakeMode.DELEGATION

        # Installed access is exactly the warranted grant per context.
        assert mboxes[0].permissions[1] is Permission.WRITE
        assert mboxes[0].permissions[2] is Permission.READ
        assert mboxes[1].permissions[1] is Permission.READ
        assert mboxes[1].permissions[2] is Permission.NONE

        events = []
        chain.on_server_event = events.append
        client.send_application_data(b"headers c2s", context_id=1)
        client.send_application_data(b"body c2s", context_id=2)
        chain.pump()
        app = [e for e in events if isinstance(e, McTLSApplicationData)]
        assert [(e.context_id, e.data) for e in app] == [
            (1, b"headers c2s"),
            (2, b"body c2s"),
        ]

        replies = []
        chain.on_client_event = replies.append
        server.send_application_data(b"reply s2c", context_id=1)
        chain.pump()
        app = [e for e in replies if isinstance(e, McTLSApplicationData)]
        assert [(e.context_id, e.data) for e in app] == [(1, b"reply s2c")]

    def test_middlebox_without_trusted_roots_rejects_warrants(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        """No trust anchors means nothing is trusted: a middlebox built
        without ``trusted_roots`` fails the warrant issuer's chain check
        instead of skipping it."""
        topology = SessionTopology(
            middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
            contexts=[ContextDefinition(1, "headers", {1: Permission.READ})],
        )
        client = MdTLSClient(
            TLSConfig(
                identity=client_identity,
                trusted_roots=[ca.certificate],
                server_name=server_identity.name,
                dh_group=GROUP_TEST_512,
            ),
            topology=topology,
        )
        server = MdTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            )
        )
        mbox = MdTLSMiddlebox(
            mbox_identity.name,
            TLSConfig(identity=mbox_identity, dh_group=GROUP_TEST_512),
        )
        chain = Chain(client, [mbox], server)
        client.start_handshake()
        with pytest.raises(TLSError) as excinfo:
            chain.pump()
        error = excinfo.value
        while not isinstance(error, mdw.WarrantError):
            error = error.__cause__
        assert (error.where, error.reason) == ("middlebox", "forged")
        assert not mbox.handshake_complete

    def test_no_middleboxes_degenerates_cleanly(
        self, ca, server_identity, client_identity
    ):
        client, _, server, chain = build_mdtls(
            ca,
            server_identity,
            client_identity,
            [],
            [ContextDefinition(1, "only")],
        )
        assert client.handshake_complete and server.handshake_complete
        events = []
        chain.on_server_event = events.append
        client.send_application_data(b"direct", context_id=1)
        chain.pump()
        assert [e.data for e in events if isinstance(e, McTLSApplicationData)] == [
            b"direct"
        ]

    def test_client_requires_identity(self, ca):
        with pytest.raises(TLSError, match="identity"):
            MdTLSClient(
                TLSConfig(trusted_roots=[ca.certificate], dh_group=GROUP_TEST_512),
                topology=SessionTopology(contexts=[ContextDefinition(1, "x")]),
            )

    def test_client_rejects_rsa_transport(self, ca, client_identity):
        with pytest.raises(TLSError, match="DHE"):
            MdTLSClient(
                TLSConfig(
                    identity=client_identity,
                    trusted_roots=[ca.certificate],
                    dh_group=GROUP_TEST_512,
                ),
                topology=SessionTopology(contexts=[ContextDefinition(1, "x")]),
                key_transport=ms.KeyTransport.RSA,
            )

    def test_server_rejects_other_modes(self, ca, server_identity):
        with pytest.raises(TLSError, match="delegation"):
            MdTLSServer(
                TLSConfig(
                    identity=server_identity,
                    trusted_roots=[ca.certificate],
                    dh_group=GROUP_TEST_512,
                ),
                mode=ms.HandshakeMode.DEFAULT,
            )

    def test_server_can_say_no_under_delegation(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        """A policy-narrowed grant shows up as a narrower server warrant,
        and the middlebox installs only the intersection."""
        client, mboxes, server, chain = build_mdtls(
            ca,
            server_identity,
            client_identity,
            [mbox_identity],
            [ContextDefinition(1, "ctx", {1: Permission.WRITE})],
            topology_policy=lambda t: restrict_topology(t, {1: {1: Permission.READ}}),
        )
        assert client.handshake_complete and server.handshake_complete
        assert server._server_warrants[1].grants[1] is Permission.READ
        assert mboxes[0]._client_warrant.grants[1] is Permission.WRITE
        assert mboxes[0].permissions[1] is Permission.READ


# -- warrant unit tests ----------------------------------------------------


class TestWarrants:
    def _topology(self):
        return SessionTopology(
            middleboxes=[MiddleboxInfo(1, "mbox1.example")],
            contexts=[ContextDefinition(1, "ctx", {1: Permission.READ})],
        )

    def _warrant(self, key, **overrides):
        fields = dict(
            issuer_role=mdw.ISSUER_CLIENT,
            mbox_id=1,
            mbox_name="mbox1.example",
            grants={1: Permission.READ},
            not_before=1_000_000,
            not_after=2_000_000,
            client_random=RANDOM_A,
            server_random=RANDOM_B,
        )
        fields.update(overrides)
        return mdw.Warrant(**fields).sign(key)

    def _check(self, warrant, key, now_ms=1_500_000, topology=None):
        mdw.check_warrant(
            warrant,
            mdw.ISSUER_CLIENT,
            key.public_key,
            topology or self._topology(),
            RANDOM_A,
            RANDOM_B,
            now_ms,
            where="server",
        )

    def test_codec_roundtrip(self, client_identity):
        warrant = self._warrant(client_identity.key)
        decoded = mdw.Warrant.decode(warrant.encode())
        assert decoded == warrant
        assert decoded.verify_signature(client_identity.key.public_key)

    def test_valid_warrant_accepted(self, client_identity):
        self._check(self._warrant(client_identity.key), client_identity.key)

    def test_flipped_signature_is_forged(self, client_identity):
        warrant = self._warrant(client_identity.key)
        warrant.signature = bytes([warrant.signature[0] ^ 1]) + warrant.signature[1:]
        with pytest.raises(mdw.WarrantError) as excinfo:
            self._check(warrant, client_identity.key)
        assert (excinfo.value.where, excinfo.value.reason) == ("server", "forged")

    def test_wrong_session_randoms_are_forged(self, client_identity):
        warrant = self._warrant(client_identity.key, client_random=bytes(32))
        with pytest.raises(mdw.WarrantError) as excinfo:
            self._check(warrant, client_identity.key)
        assert excinfo.value.reason == "forged"

    def test_expired_window_rejected(self, client_identity):
        warrant = self._warrant(client_identity.key)
        with pytest.raises(mdw.WarrantError) as excinfo:
            self._check(warrant, client_identity.key, now_ms=3_000_000)
        assert excinfo.value.reason == "expired"

    def test_widened_grant_rejected(self, client_identity):
        warrant = self._warrant(client_identity.key, grants={1: Permission.WRITE})
        with pytest.raises(mdw.WarrantError) as excinfo:
            self._check(warrant, client_identity.key)
        assert excinfo.value.reason == "widened"

    def test_undeclared_middlebox_rejected(self, client_identity):
        warrant = self._warrant(client_identity.key, mbox_id=9, mbox_name="rogue")
        with pytest.raises(mdw.WarrantError) as excinfo:
            self._check(warrant, client_identity.key)
        assert excinfo.value.reason == "widened"

    def test_warrant_set_missing_and_duplicates(self, client_identity):
        warrant = self._warrant(client_identity.key)
        with pytest.raises(mdw.WarrantError) as excinfo:
            mdw.check_warrant_set(
                [],
                mdw.ISSUER_CLIENT,
                client_identity.key.public_key,
                self._topology(),
                RANDOM_A,
                RANDOM_B,
                1_500_000,
                where="middlebox",
            )
        assert excinfo.value.reason == "missing"
        with pytest.raises(mdw.WarrantError) as excinfo:
            mdw.check_warrant_set(
                [warrant, warrant],
                mdw.ISSUER_CLIENT,
                client_identity.key.public_key,
                self._topology(),
                RANDOM_A,
                RANDOM_B,
                1_500_000,
                where="middlebox",
            )
        assert excinfo.value.reason == "forged"

    def test_effective_permission_is_minimum(self, client_identity):
        wide = self._warrant(client_identity.key, grants={1: Permission.WRITE})
        narrow = self._warrant(
            client_identity.key, issuer_role=mdw.ISSUER_SERVER, grants={1: Permission.READ}
        )
        assert mdw.effective_permission(1, wide, narrow) is Permission.READ
        assert mdw.effective_permission(1, wide, None) is Permission.NONE
        assert mdw.effective_permission(2, wide, narrow) is Permission.NONE


# -- resumption and the never-widen property -------------------------------


class TestResumption:
    CONTEXTS = [ContextDefinition(1, "ctx", {1: Permission.READ})]
    STORE_KEY = ("mdtls", "server.example")
    TICKET = bytes(range(100, 164))  # an RFC 5077 ticket no server here opens

    def _first_and_resumed(self, ca, server_identity, client_identity, mbox_identity, **stores):
        first = build_mdtls(
            ca, server_identity, client_identity, [mbox_identity], self.CONTEXTS, **stores
        )
        second = build_mdtls(
            ca, server_identity, client_identity, [mbox_identity], self.CONTEXTS, **stores
        )
        return first, second

    def test_session_cache_resumption_preserves_grants(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        stores = dict(session_store=ClientSessionStore(), session_cache=SessionCache())
        (c1, _, s1, _), (c2, mboxes2, s2, chain2) = self._first_and_resumed(
            ca, server_identity, client_identity, mbox_identity, **stores
        )
        assert c1.handshake_complete and not c1.resumed
        assert c2.handshake_complete and c2.resumed and s2.resumed
        assert mboxes2[0].permissions[1] is Permission.READ
        events = []
        chain2.on_server_event = events.append
        c2.send_application_data(b"resumed", context_id=1)
        chain2.pump()
        assert [e.data for e in events if isinstance(e, McTLSApplicationData)] == [
            b"resumed"
        ]

    def test_ticket_resumption_preserves_grants(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        """A client that also offers a ticket resumes from its session id
        (no server here opens tickets) with the warranted grants."""
        stores = dict(
            session_store=ClientSessionStore(),
            session_cache=SessionCache(),
            offered_ticket=self.TICKET,
        )
        (c1, _, _, _), (c2, mboxes2, s2, _) = self._first_and_resumed(
            ca, server_identity, client_identity, mbox_identity, **stores
        )
        assert c1.handshake_complete and not c1.resumed
        assert c2.resumed and s2.resumed
        assert mboxes2[0].permissions[1] is Permission.READ

    def test_tampered_ticket_never_widens(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        """Deterministic bit flips across an offered ticket: every variant
        runs a full handshake and the middlebox never ends up with more
        than the granted READ."""
        for flip_at in (0.0, 0.33, 0.66, 0.999):
            mutated = bytearray(self.TICKET)
            mutated[int(flip_at * len(mutated))] ^= 0x40
            client, mboxes, server, _ = build_mdtls(
                ca,
                server_identity,
                client_identity,
                [mbox_identity],
                self.CONTEXTS,
                session_store=ClientSessionStore(),
                session_cache=SessionCache(),
                offered_ticket=bytes(mutated),
            )
            assert client.handshake_complete and server.handshake_complete
            assert not client.resumed and not server.resumed
            for ctx_id, permission in mboxes[0].permissions.items():
                ceiling = {1: Permission.READ}.get(ctx_id, Permission.NONE)
                assert int(permission) <= int(ceiling)

    def test_onpath_ticket_bitflip_never_widens(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        """An on-path tamperer flips a seeded bit of the ticket the
        ClientHello offers.  No server here reads it, but it is in the
        transcript, so that handshake fails; the next connection runs a
        full handshake and access stays clamped to the warranted grants."""
        store, cache = ClientSessionStore(), SessionCache()
        proxy = TamperProxy(TamperPlan(seed=2015, handshake_mutator=FlipTicketBit(self.TICKET)))
        with pytest.raises(TLSError, match="Finished verification failed"):
            build_mdtls(
                ca,
                server_identity,
                client_identity,
                [mbox_identity],
                self.CONTEXTS,
                session_store=store,
                session_cache=cache,
                offered_ticket=self.TICKET,
                extra_relays=[proxy],
            )
        assert proxy.log == [(mk.C2S, "hs-flip-ticket")]
        assert store.get(self.STORE_KEY) is None and len(cache) == 0

        client2, mboxes2, server2, _ = build_mdtls(
            ca,
            server_identity,
            client_identity,
            [mbox_identity],
            self.CONTEXTS,
            session_store=store,
            session_cache=cache,
            offered_ticket=self.TICKET,
        )
        assert client2.handshake_complete and server2.handshake_complete
        assert not client2.resumed and not server2.resumed
        assert mboxes2[0].permissions[1] is Permission.READ
        assert all(
            int(p) <= int(Permission.READ) for p in mboxes2[0].permissions.values()
        )

    def test_mdtls_session_never_offered_under_the_mctls_key(
        self, ca, server_identity, client_identity, mbox_identity
    ):
        """The client stores mdTLS sessions under a separate key: an mcTLS
        client for the same server never sees them."""
        store = ClientSessionStore()
        build_mdtls(
            ca,
            server_identity,
            client_identity,
            [mbox_identity],
            self.CONTEXTS,
            session_store=store,
            session_cache=SessionCache(),
        )
        assert store.get(self.STORE_KEY) is not None
        assert store.get("server.example") is None
        assert store.get(("mctls", "server.example")) is None


# -- interface drift -------------------------------------------------------


class TestInterfaceDrift:
    def test_sixth_stack_passes_and_drift_is_flagged(self):
        from repro.experiments.harness import Mode, TestBed
        from repro.tools.check_interface import check_interfaces

        bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512)
        checked = check_interfaces(bed)
        labels = [label for label, _ in checked]
        assert any(label.startswith("mdTLS client") for label in labels)
        assert any(label.startswith("mdTLS server") for label in labels)
        assert any(label.startswith("mdTLS relay") for label in labels)
        assert len(checked) == 18  # 6 modes x (client + server + relay)

        class _MissingMethod:
            """Proxy that hides one Connection method from the protocol."""

            def __init__(self, inner):
                self.__dict__["_inner"] = inner

            def __getattr__(self, name):
                if name == "send_application_data":
                    raise AttributeError(name)
                return getattr(self.__dict__["_inner"], name)

        real_make = bed.make_endpoints

        def crippled_make(mode, *args, **kwargs):
            client, server = real_make(mode, *args, **kwargs)
            if mode is Mode.MDTLS:
                server = _MissingMethod(server)
            return client, server

        bed.make_endpoints = crippled_make
        with pytest.raises(TypeError, match="mdTLS server"):
            check_interfaces(bed)


# -- wire traces -----------------------------------------------------------


class TestTraceAnnotations:
    def test_live_flight_names_warrant_issue(self, ca, server_identity, client_identity):
        from repro.trace import describe_stream

        client = MdTLSClient(
            TLSConfig(
                identity=client_identity,
                trusted_roots=[ca.certificate],
                server_name=server_identity.name,
                dh_group=GROUP_TEST_512,
            ),
            topology=SessionTopology(contexts=[ContextDefinition(1, "ctx")]),
        )
        server = MdTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            )
        )
        client.start_handshake()
        server.receive_data(client.data_to_send())
        lines = describe_stream(server.data_to_send())
        joined = " ".join(lines)
        assert "WarrantIssue" in joined
        assert "issuer=server" in joined

    def test_warrant_issue_detail_line(self, ca, client_identity):
        from repro.mdtls import messages as mdm
        from repro.trace import _describe_handshake_message

        warrant = mdw.Warrant(
            issuer_role=mdw.ISSUER_CLIENT,
            mbox_id=1,
            mbox_name="mbox1.example",
            grants={1: Permission.WRITE, 2: Permission.READ},
            not_before=0,
            not_after=1,
            client_random=RANDOM_A,
            server_random=RANDOM_B,
        ).sign(client_identity.key)
        issue = mdm.WarrantIssue(
            sender=1, issuer_chain=client_identity.chain, warrants=[warrant]
        )
        line = _describe_handshake_message(tls_msgs.WARRANT_ISSUE, issue.encode())
        assert line.startswith("WarrantIssue")
        assert "issuer=client" in line
        assert "mbox1:{1=write,2=read}" in line

    def test_delegated_key_material_detail_line(self):
        from repro.mdtls import messages as mdm
        from repro.trace import _describe_handshake_message

        dkm = mdm.DelegatedKeyMaterial(target=2, sealed=b"\x00" * 48)
        line = _describe_handshake_message(
            tls_msgs.DELEGATED_KEY_MATERIAL, dkm.encode()
        )
        assert line.startswith("DelegatedKeyMaterial")
        assert "to=mbox 2" in line
        assert "sealed=48B" in line

    def test_undecodable_warrant_body_is_flagged(self):
        from repro.trace import _describe_handshake_message

        line = _describe_handshake_message(tls_msgs.WARRANT_ISSUE, b"\xff")
        assert "(body undecodable)" in line
