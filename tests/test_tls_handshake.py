"""Integration tests for the TLS 1.2 client/server handshake."""

import pytest

from repro.crypto.certs import CertificateAuthority
from repro.crypto.dh import GROUP_TEST_512
from repro.tls import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
    TLSClient,
    TLSConfig,
    TLSServer,
    TLSError,
)
from repro.tls.connection import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    HandshakeComplete,
)
from repro.transport import pump


def make_pair(client_config, server_config):
    client = TLSClient(client_config)
    server = TLSServer(server_config)
    client.start_handshake()
    return client, server


class TestHandshake:
    def test_completes_both_sides(self, client_config, server_config):
        client, server = make_pair(client_config, server_config)
        events = pump(client, server)
        assert sum(isinstance(e, HandshakeComplete) for e in events) == 2
        assert client.handshake_complete and server.handshake_complete

    def test_client_sees_server_certificate(self, client_config, server_config):
        client, server = make_pair(client_config, server_config)
        pump(client, server)
        assert client.peer_certificate.subject == "server.example"

    def test_application_data_both_directions(self, client_config, server_config):
        client, server = make_pair(client_config, server_config)
        pump(client, server)
        client.send_application_data(b"ping")
        events = pump(client, server)
        assert any(isinstance(e, ApplicationData) and e.data == b"ping" for e in events)
        server.send_application_data(b"pong")
        events = pump(client, server)
        assert any(isinstance(e, ApplicationData) and e.data == b"pong" for e in events)

    def test_large_transfer(self, client_config, server_config):
        client, server = make_pair(client_config, server_config)
        pump(client, server)
        payload = bytes(range(256)) * 300  # ~77 kB, multiple records
        server.send_application_data(payload)
        events = pump(client, server)
        received = b"".join(e.data for e in events if isinstance(e, ApplicationData))
        assert received == payload

    def test_wrong_server_name_rejected(self, ca, server_config):
        config = TLSConfig(
            trusted_roots=[ca.certificate],
            server_name="other.example",
            dh_group=GROUP_TEST_512,
        )
        client, server = make_pair(config, server_config)
        with pytest.raises(TLSError, match="certificate"):
            pump(client, server)

    def test_untrusted_ca_rejected(self, server_config):
        rogue = CertificateAuthority.create_root("Rogue", key_bits=512)
        config = TLSConfig(
            trusted_roots=[rogue.certificate],
            server_name="server.example",
            dh_group=GROUP_TEST_512,
        )
        client, server = make_pair(config, server_config)
        with pytest.raises(TLSError):
            pump(client, server)

    def test_no_common_suite_fails(self, client_config, server_config):
        from dataclasses import replace

        client = TLSClient(replace(client_config, cipher_suites=(SUITE_DHE_RSA_AES128_CBC_SHA256,)))
        server = TLSServer(replace(server_config, cipher_suites=(SUITE_DHE_RSA_SHACTR_SHA256,)))
        client.start_handshake()
        with pytest.raises(TLSError, match="cipher suite"):
            pump(client, server)

    def test_fast_suite_negotiation(self, client_config, server_config):
        from dataclasses import replace

        client = TLSClient(replace(client_config, cipher_suites=(SUITE_DHE_RSA_SHACTR_SHA256,)))
        server = TLSServer(replace(server_config, cipher_suites=(SUITE_DHE_RSA_SHACTR_SHA256,)))
        client.start_handshake()
        events = pump(client, server)
        complete = [e for e in events if isinstance(e, HandshakeComplete)]
        assert all(e.cipher_suite == "DHE-RSA-SHACTR-SHA256" for e in complete)

    def test_data_before_handshake_rejected(self, client_config):
        client = TLSClient(client_config)
        with pytest.raises(TLSError):
            client.send_application_data(b"too early")

    def test_server_requires_identity(self):
        with pytest.raises(TLSError):
            TLSServer(TLSConfig())

    def test_close_notify(self, client_config, server_config):
        client, server = make_pair(client_config, server_config)
        pump(client, server)
        client.close()
        events = pump(client, server)
        assert any(isinstance(e, ConnectionClosed) for e in events)
        assert any(
            isinstance(e, AlertReceived) and e.description == 0 for e in events
        )

    def test_mitm_tamper_detected(self, client_config, server_config):
        """Flipping a bit in the ServerKeyExchange breaks the handshake."""
        client = TLSClient(client_config)
        server = TLSServer(server_config)
        client.start_handshake()
        server.receive_data(client.data_to_send())
        flight = bytearray(server.data_to_send())
        # Flip a byte well inside the flight (within the SKE signature area).
        flight[len(flight) // 2] ^= 0xFF
        with pytest.raises(TLSError):
            client.receive_data(bytes(flight))

    def test_finished_covers_transcript(self, client_config, server_config):
        """Dropping a handshake message breaks Finished verification."""
        client = TLSClient(client_config)
        server = TLSServer(server_config)
        client.start_handshake()
        # Tamper: replay the ClientHello twice to the server — the duplicate
        # is rejected as an unexpected message.
        hello = client.data_to_send()
        server.receive_data(hello)
        with pytest.raises(TLSError):
            server.receive_data(hello)
