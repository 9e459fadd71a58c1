"""Integration tests for the mcTLS handshake (both modes, 0–4 middleboxes)."""

import pytest

from repro.crypto.certs import CertificateAuthority
from repro.crypto.dh import GROUP_TEST_512
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSServer,
    Permission,
    SessionTopology,
)
from repro.mctls.session import (
    HandshakeMode,
    McTLSApplicationData,
    McTLSHandshakeComplete,
)
from repro.tls.connection import TLSConfig, TLSError
from repro.transport import Chain, pump

from tests.mctls_helpers import build_session


def rw_contexts(n_mbox, n_ctx=2):
    """Contexts granting every middlebox read/write (the paper's worst case)."""
    grant = {m: Permission.WRITE for m in range(1, n_mbox + 1)}
    return [ContextDefinition(i + 1, f"ctx{i + 1}", dict(grant)) for i in range(n_ctx)]


class TestHandshakeCompletion:
    def test_zero_middleboxes(self, ca, server_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [], rw_contexts(0)
        )
        assert client.handshake_complete and server.handshake_complete

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_n_middleboxes(self, ca, server_identity, mbox_identities, n):
        client, mboxes, server, chain = build_session(
            ca, server_identity, mbox_identities[:n], rw_contexts(n)
        )
        assert client.handshake_complete and server.handshake_complete
        assert all(m.handshake_complete for m in mboxes)

    def test_client_key_dist_mode(self, ca, server_identity, mbox_identities):
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            mbox_identities[:2],
            rw_contexts(2),
            mode=HandshakeMode.CLIENT_KEY_DIST,
        )
        assert client.mode is HandshakeMode.CLIENT_KEY_DIST
        assert all(m.handshake_complete for m in mboxes)
        client.send_application_data(b"ckd data", context_id=1)
        events = chain.pump()
        assert any(
            isinstance(e, McTLSApplicationData) and e.data == b"ckd data" for e in events
        )

    def test_handshake_events_carry_topology(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], rw_contexts(1)
        )
        events = [e for e in chain.events if isinstance(e, McTLSHandshakeComplete)]
        assert len(events) == 2
        assert all(e.topology.middlebox_ids == [1] for e in events)

    def test_many_contexts(self, ca, server_identity, mbox_identity):
        contexts = rw_contexts(1, n_ctx=12)
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], contexts
        )
        for ctx_id in range(1, 13):
            client.send_application_data(f"ctx{ctx_id}".encode(), context_id=ctx_id)
        events = chain.pump()
        payloads = {e.context_id: e.data for e in events if isinstance(e, McTLSApplicationData)}
        assert payloads == {i: f"ctx{i}".encode() for i in range(1, 13)}


class TestHandshakeFailures:
    def test_undeclared_middlebox_rejects_session(self, ca, server_identity, mbox_config):
        """A middlebox not in the client's list refuses to participate."""
        from repro.mctls import McTLSMiddlebox

        topology = SessionTopology(contexts=[ContextDefinition(1, "only")])
        client = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            ),
            topology=topology,
        )
        mbox = McTLSMiddlebox("mbox1.example", mbox_config)
        client.start_handshake()
        with pytest.raises(TLSError, match="middlebox list"):
            mbox.receive_from_client(client.data_to_send())

    def test_untrusted_middlebox_certificate_rejected(
        self, ca, server_identity, mbox_identities
    ):
        """A middlebox with a certificate from an unknown CA fails client
        authentication (R1)."""
        from repro.crypto.certs import Identity
        from repro.mctls import McTLSMiddlebox, MiddleboxInfo

        rogue_ca = CertificateAuthority.create_root("Rogue CA", key_bits=512)
        rogue_identity = Identity.issued_by(rogue_ca, "mbox1.example", key_bits=512)

        topology = SessionTopology(
            middleboxes=[MiddleboxInfo(1, "mbox1.example")],
            contexts=[ContextDefinition(1, "ctx", {1: Permission.READ})],
        )
        client = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            ),
            topology=topology,
        )
        server = McTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
        )
        mbox = McTLSMiddlebox(
            "mbox1.example",
            TLSConfig(
                identity=rogue_identity,
                trusted_roots=[rogue_ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
        )
        chain = Chain(client, [mbox], server)
        client.start_handshake()
        with pytest.raises(TLSError, match="certificate"):
            chain.pump()

    def test_wrong_server_name_rejected(self, ca, server_identity):
        topology = SessionTopology(contexts=[ContextDefinition(1, "ctx")])
        client = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="impostor.example",
                dh_group=GROUP_TEST_512,
            ),
            topology=topology,
        )
        server = McTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
        )
        client.start_handshake()
        with pytest.raises(TLSError, match="certificate"):
            pump(client, server)

    def test_context_zero_send_rejected(self, ca, server_identity):
        client, _, server, chain = build_session(ca, server_identity, [], rw_contexts(0))
        with pytest.raises(TLSError, match="reserved"):
            client.send_application_data(b"x", context_id=0)

    def test_server_requires_extension(self, ca, server_identity, client_config):
        """A plain TLS ClientHello is rejected by an mcTLS server."""
        from repro.tls.client import TLSClient

        tls_client = TLSClient(client_config)
        server = McTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
        )
        tls_client.start_handshake()
        # The plain client does not speak the mcTLS record format.
        with pytest.raises(TLSError):
            server.receive_data(tls_client.data_to_send())
