"""Tests for the SplitTLS / E2E-TLS / NoEncrypt baselines."""

import pytest

from repro.baselines import BlindRelay, PlainConnection, PlainRelay, SplitTLSRelay
from repro.crypto.certs import CertificateAuthority, Identity
from repro.crypto.dh import GROUP_TEST_512
from repro.tls import TLSClient, TLSConfig, TLSServer
from repro.tls.connection import ApplicationData, HandshakeComplete
from repro.transport import Chain


@pytest.fixture(scope="module")
def corp_ca():
    return CertificateAuthority.create_root("Corp Interception Root", key_bits=512)


@pytest.fixture(scope="module")
def forged_identity(corp_ca):
    return Identity.issued_by(corp_ca, "server.example", key_bits=512)


def app_data(events):
    return [e.data for e in events if isinstance(e, ApplicationData)]


class TestBlindRelay:
    def test_e2e_tls_through_blind_relay(self, ca, server_identity):
        client = TLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            )
        )
        server = TLSServer(TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512))
        relay = BlindRelay()
        chain = Chain(client, [relay], server)
        client.start_handshake()
        events = chain.pump()
        assert sum(isinstance(e, HandshakeComplete) for e in events) == 2
        client.send_application_data(b"through the relay")
        events = chain.pump()
        assert app_data(events) == [b"through the relay"]
        assert relay.bytes_relayed > 0

    def test_blind_relay_sees_only_ciphertext(self, ca, server_identity):
        client = TLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            )
        )
        server = TLSServer(TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512))
        observed = bytearray()

        class SpyRelay(BlindRelay):
            def receive_from_client(self, data):
                observed.extend(data)
                return super().receive_from_client(data)

        chain = Chain(client, [SpyRelay()], server)
        client.start_handshake()
        chain.pump()
        client.send_application_data(b"plaintext-marker")
        chain.pump()
        assert b"plaintext-marker" not in bytes(observed)


class TestSplitTLS:
    def make_chain(self, ca, corp_ca, forged_identity, server_identity, **relay_kwargs):
        # Client trusts the corporate root (the interception precondition).
        client = TLSClient(
            TLSConfig(
                trusted_roots=[corp_ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            )
        )
        server = TLSServer(TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512))
        relay = SplitTLSRelay(
            forged_identity,
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            ),
            **relay_kwargs,
        )
        return client, relay, server, Chain(client, [relay], server)

    def test_handshakes_complete(self, ca, corp_ca, forged_identity, server_identity):
        client, relay, server, chain = self.make_chain(
            ca, corp_ca, forged_identity, server_identity
        )
        client.start_handshake()
        chain.pump()
        assert client.handshake_complete
        assert server.handshake_complete
        # The client sees the forged certificate, not the server's.
        assert client.peer_certificate.issuer == "Corp Interception Root"

    def test_full_plaintext_visibility(self, ca, corp_ca, forged_identity, server_identity):
        """SplitTLS violates least privilege: the relay sees everything."""
        seen = []
        client, relay, server, chain = self.make_chain(
            ca,
            corp_ca,
            forged_identity,
            server_identity,
            observer=lambda d, p: seen.append((d, p)),
        )
        client.start_handshake()
        chain.pump()
        client.send_application_data(b"confidential request")
        chain.pump()
        server.send_application_data(b"confidential response")
        chain.pump()
        assert ("c2s", b"confidential request") in seen
        assert ("s2c", b"confidential response") in seen

    def test_relay_can_rewrite_everything(
        self, ca, corp_ca, forged_identity, server_identity
    ):
        client, relay, server, chain = self.make_chain(
            ca,
            corp_ca,
            forged_identity,
            server_identity,
            transformer=lambda d, p: p.replace(b"http", b"HTTP"),
        )
        client.start_handshake()
        chain.pump()
        client.send_application_data(b"http data")
        events = chain.pump()
        # The relay surfaces the original plaintext; the server receives
        # the rewritten copy.
        assert b"HTTP data" in app_data(events)

    def test_client_without_corp_root_rejects(self, ca, forged_identity, server_identity):
        """A client that does not trust the interception root detects the
        impersonation — the attack TLS is designed to stop."""
        from repro.tls.connection import TLSError

        client = TLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],  # only the real CA
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            )
        )
        server = TLSServer(TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512))
        relay = SplitTLSRelay(
            forged_identity,
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="server.example",
                dh_group=GROUP_TEST_512,
            ),
        )
        chain = Chain(client, [relay], server)
        client.start_handshake()
        with pytest.raises(TLSError, match="certificate"):
            chain.pump()


class TestNoEncrypt:
    def test_plain_connection_roundtrip(self):
        a, b = PlainConnection(), PlainConnection()
        a.start_handshake()
        assert a.handshake_complete
        a.send_application_data(b"clear")
        events = b.receive_data(a.data_to_send())
        assert app_data(events) == [b"clear"]

    def test_plain_relay_transform(self):
        relay = PlainRelay(transformer=lambda d, p: p.upper())
        relay.receive_from_client(b"shout")
        assert relay.data_to_server() == b"SHOUT"

    def test_plain_relay_observer(self):
        seen = []
        relay = PlainRelay(observer=lambda d, p: seen.append((d, p)))
        relay.receive_from_server(b"resp")
        assert relay.data_to_client() == b"resp"
        assert seen == [("s2c", b"resp")]
