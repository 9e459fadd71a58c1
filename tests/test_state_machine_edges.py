"""State-machine edge cases: out-of-order and malformed protocol events."""

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.mctls import ContextDefinition, McTLSClient, McTLSServer, SessionTopology
from repro.mctls.record import encode_header
from repro.tls import TLSClient, TLSServer
from repro.tls import messages as msgs
from repro.tls.connection import TLSConfig, TLSError
from repro.tls.record import ALERT, APPLICATION_DATA, CHANGE_CIPHER_SPEC, HANDSHAKE
from repro.transport import pump


def tls_pair(client_config, server_config):
    client = TLSClient(client_config)
    server = TLSServer(server_config)
    client.start_handshake()
    return client, server


def mctls_pair(ca, server_identity):
    topology = SessionTopology(contexts=[ContextDefinition(1, "x")])
    client = McTLSClient(
        TLSConfig(
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
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
    return client, server


class TestTLSStateMachine:
    def test_premature_server_hello(self, client_config, server_config):
        """A ServerHello before the client sends anything... the server
        never does this; simulate an attacker pushing one at the server."""
        client, server = tls_pair(client_config, server_config)
        raw = msgs.frame(msgs.SERVER_HELLO, msgs.ServerHello(
            random=b"r" * 32, cipher_suite=0x0067
        ).encode())
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(HANDSHAKE, raw)
        with pytest.raises(TLSError, match="unexpected"):
            server.receive_data(wire)

    def test_premature_ccs_at_server(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(CHANGE_CIPHER_SPEC, b"\x01")
        with pytest.raises(TLSError, match="ChangeCipherSpec"):
            server.receive_data(wire)

    def test_malformed_ccs_payload(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(CHANGE_CIPHER_SPEC, b"\x02")
        with pytest.raises(TLSError, match="malformed"):
            server.receive_data(wire)

    def test_app_data_before_handshake(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(APPLICATION_DATA, b"early")
        with pytest.raises(TLSError, match="before handshake"):
            server.receive_data(wire)

    def test_malformed_alert_length(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        pump(client, server)
        # Hand-craft an unprotected alert record with a bad length and
        # feed it to a fresh (unprotected) server.
        fresh_client, fresh_server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(ALERT, b"\x01")
        with pytest.raises(TLSError, match="malformed alert"):
            fresh_server.receive_data(wire)

    def test_double_start_rejected(self, client_config):
        client = TLSClient(client_config)
        client.start_handshake()
        with pytest.raises(TLSError, match="already started"):
            client.start_handshake()

    def test_bad_client_finished(self, client_config, server_config):
        """Corrupting the client's CCS-protected flight fails at the server."""
        client, server = tls_pair(client_config, server_config)
        server.receive_data(client.data_to_send())
        client.receive_data(server.data_to_send())
        flight = bytearray(client.data_to_send())
        flight[-1] ^= 0x01  # corrupt the encrypted Finished
        with pytest.raises(TLSError):
            server.receive_data(bytes(flight))


class TestMcTLSStateMachine:
    def test_double_start_rejected(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        with pytest.raises(TLSError, match="already started"):
            client.start_handshake()

    def test_premature_ccs(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        wire = encode_header(CHANGE_CIPHER_SPEC, 0, 1) + b"\x01"
        with pytest.raises(TLSError, match="ChangeCipherSpec"):
            server.receive_data(wire)

    def test_app_data_before_completion(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        wire = encode_header(APPLICATION_DATA, 1, 4) + b"data"
        with pytest.raises(TLSError, match="before handshake"):
            server.receive_data(wire)

    def test_unexpected_message_type_in_flight(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        server.receive_data(client.data_to_send())
        client.receive_data(server.data_to_send())
        # Replay the ClientHello at the server mid-flight.
        raw = msgs.frame(
            msgs.CLIENT_HELLO,
            msgs.ClientHello(random=b"r" * 32, cipher_suites=[0x0067]).encode(),
        )
        wire = encode_header(HANDSHAKE, 0, len(raw)) + raw
        with pytest.raises(TLSError, match="unexpected"):
            server.receive_data(wire)

    def test_mctls_client_rejects_missing_mode(self, ca, server_identity):
        """A ServerHello without the mode extension is not mcTLS."""
        client, _ = mctls_pair(ca, server_identity)
        raw = msgs.frame(
            msgs.SERVER_HELLO,
            msgs.ServerHello(random=b"r" * 32, cipher_suite=0x0067).encode(),
        )
        wire = encode_header(HANDSHAKE, 0, len(raw)) + raw
        with pytest.raises(TLSError, match="mode"):
            client.receive_data(wire)

    def test_handshake_completion_flags_consistent(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        assert not client.handshake_complete and not server.handshake_complete
        pump(client, server)
        assert client.handshake_complete and server.handshake_complete
