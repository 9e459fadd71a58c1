"""Tests for the wire-trace utility."""

from repro.crypto.dh import GROUP_TEST_512
from repro.mctls import ContextDefinition, McTLSClient, Permission, SessionTopology
from repro.mctls.contexts import MiddleboxInfo
from repro.tls import TLSClient
from repro.tls.connection import TLSConfig
from repro.trace import describe_stream


class TestTraceTLS:
    def test_client_hello_line(self, client_config):
        client = TLSClient(client_config)
        client.start_handshake()
        lines = describe_stream(client.data_to_send(), mctls=False)
        assert len(lines) == 1
        assert "ClientHello" in lines[0]
        assert "suites=" in lines[0]

    def test_server_flight(self, client_config, server_config):
        from repro.tls import TLSServer

        client = TLSClient(client_config)
        server = TLSServer(server_config)
        client.start_handshake()
        server.receive_data(client.data_to_send())
        lines = describe_stream(server.data_to_send(), mctls=False)
        names = " ".join(lines)
        assert "ServerHello" in names
        assert "Certificate" in names and "server.example" in names
        assert "ServerKeyExchange" in names
        assert "ServerHelloDone" in names

    def test_post_ccs_finished_summarised(self, client_config, server_config):
        """The client's second flight: CKE plaintext, then CCS, then an
        encrypted Finished — which must be summarised, not parsed."""
        from repro.tls import TLSServer

        client = TLSClient(client_config)
        server = TLSServer(server_config)
        client.start_handshake()
        server.receive_data(client.data_to_send())
        client.receive_data(server.data_to_send())
        lines = describe_stream(client.data_to_send(), mctls=False)
        names = " ".join(lines)
        assert "ClientKeyExchange" in names
        assert "ChangeCipherSpec" in names
        # Client stream: no ServerHello seen, so no abbreviated-flow note.
        assert "abbreviated" not in names
        assert lines[-1].startswith("Handshake <")
        assert "B protected" in lines[-1]

    def test_resumption_flow_annotated(self, client_config, server_config):
        from repro.tls import TLSServer
        from repro.tls.sessioncache import ClientSessionStore, SessionCache
        from repro.transport import pump

        cache = SessionCache()
        store = ClientSessionStore()
        client = TLSClient(client_config, session_store=store)
        server = TLSServer(server_config, session_cache=cache)
        client.start_handshake()
        pump(client, server)
        assert client.handshake_complete

        client2 = TLSClient(client_config, session_store=store)
        server2 = TLSServer(server_config, session_cache=cache)
        client2.start_handshake()
        hello_bytes = client2.data_to_send()
        hello_lines = describe_stream(hello_bytes, mctls=False)
        assert "resumption offer" in hello_lines[0]

        server2.receive_data(hello_bytes)
        lines = describe_stream(server2.data_to_send(), mctls=False)
        names = " ".join(lines)
        assert "ServerHello" in names and "session_id=" in names
        assert "abbreviated handshake: resumption accepted" in names
        # The server's Finished follows its CCS and is encrypted.
        assert lines[-1].startswith("Handshake <")
        assert "B protected" in lines[-1]


class TestTraceMcTLS:
    def test_client_hello_shows_topology(self, ca):
        topology = SessionTopology(
            middleboxes=[MiddleboxInfo(1, "m1"), MiddleboxInfo(2, "m2")],
            contexts=[
                ContextDefinition(1, "a", {1: Permission.READ}),
                ContextDefinition(2, "b"),
            ],
        )
        client = McTLSClient(
            TLSConfig(trusted_roots=[ca.certificate], dh_group=GROUP_TEST_512),
            topology=topology,
        )
        client.start_handshake()
        lines = describe_stream(client.data_to_send())
        assert "middleboxes=2" in lines[0]
        assert "contexts=2" in lines[0]
        assert "ctx=0" in lines[0]

    def test_full_handshake_trace(self, ca, server_identity, mbox_identity):
        """Capture the server-bound bytes at the middlebox and trace them."""
        from tests.mctls_helpers import build_session

        captured = []

        # Wrap the middlebox's output by tracing after the handshake.
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ContextDefinition(1, "ctx", {1: Permission.READ})],
        )
        # Re-run a fresh client hello to capture a clean flight.
        fresh = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name=server_identity.name,
                dh_group=GROUP_TEST_512,
            ),
            topology=client.topology,
        )
        fresh.start_handshake()
        lines = describe_stream(fresh.data_to_send())
        assert any("ClientHello" in line for line in lines)

    def test_protected_records_summarised(self, ca, server_identity):
        from tests.mctls_helpers import build_session

        client, _, server, chain = build_session(
            ca, server_identity, [], [ContextDefinition(1, "ctx")]
        )
        client.send_application_data(b"secret", context_id=1)
        lines = describe_stream(client.data_to_send())
        assert len(lines) == 1
        assert lines[0].startswith("ApplicationData ctx=1 <")
        assert "B protected" in lines[0]
        # Contexts >= 1 carry the paper's three-MAC trailer.
        assert "MAC_endpoints || MAC_writers || MAC_readers" in lines[0]
        assert "secret" not in lines[0]

    def test_trailer_note_layouts(self):
        from repro.trace import _trailer_note

        # Context 0 (endpoint-reserved) carries a single MAC; contexts
        # >= 1 carry the three-MAC trailer; plain TLS has no note.
        assert _trailer_note(True, 0) == "; payload || MAC"
        assert "MAC_endpoints" in _trailer_note(True, 1)
        assert _trailer_note(False, 1) == ""
        assert _trailer_note(True, None) == ""

    def test_mixed_framing_capture_decodes(self, ca, server_identity):
        """One capture mixing default-framed handshake records with
        compact-framed protected records (the negotiated switch happens
        at the CCS boundary) must decode record by record, with the
        offered framing and field schema annotated on the ClientHello."""
        from repro.mctls.contexts import FieldDef, FieldSchema

        schema = FieldSchema(
            context_id=1,
            fields=(FieldDef("hdr", 0, 4), FieldDef("body", 4, 64)),
            write_grants={"hdr": (1,)},
        )
        client = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name=server_identity.name,
                dh_group=GROUP_TEST_512,
                framing="mctls-compact",
                field_schemas=(schema,),
            ),
            topology=SessionTopology(
                contexts=[ContextDefinition(1, "telemetry")]
            ),
        )
        from repro.mctls import McTLSServer
        from repro.tls.connection import TLSConfig as _Config

        server = McTLSServer(
            _Config(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            )
        )
        client.start_handshake()
        capture = b""
        for _ in range(10):
            out = client.data_to_send()
            capture += out
            if out:
                server.receive_data(out)
            back = server.data_to_send()
            if back:
                client.receive_data(back)
            if client.handshake_complete and server.handshake_complete:
                break
        assert client.handshake_complete
        assert client.negotiated_framing.name == "mctls-compact"
        client.send_application_data(b"temp=21.5;unit=C", context_id=1)
        capture += client.data_to_send()

        lines = describe_stream(capture)
        names = "\n".join(lines)
        # Default-framed plaintext handshake, annotated with the offer.
        assert "ClientHello" in names
        assert "framing=mctls-compact" in names
        assert "fields=ctx1:hdr[0:4],body[4:64]" in names
        assert "ChangeCipherSpec" in names
        # Compact-framed records after the CCS: truncated-MAC trailers.
        assert lines[-1].startswith("ApplicationData ctx=1 <")
        assert "MAC_endpoints8 || MAC_writers8 || MAC_readers8" in lines[-1]
        assert "field MACs" in lines[-1]
        assert "temp=21.5" not in names  # payloads stay opaque
        # The client's protected Finished is compact-framed too; it still
        # decodes as a summarised protected handshake record, ctx 0.
        assert any(
            line.startswith("Handshake ctx=0 <") and "B protected" in line
            for line in lines
        )
        assert not any(line.startswith("!!") for line in lines)

    def test_malformed_stream_reported(self):
        lines = describe_stream(b"\x99\x99\x99\x99\x99\x99\x99")
        assert lines[0].startswith("!! malformed")

    def test_incomplete_record_reported(self, ca):
        topology = SessionTopology(contexts=[ContextDefinition(1, "x")])
        client = McTLSClient(
            TLSConfig(trusted_roots=[ca.certificate], dh_group=GROUP_TEST_512),
            topology=topology,
        )
        client.start_handshake()
        data = client.data_to_send()
        lines = describe_stream(data[:-3])
        assert any("incomplete" in line for line in lines)

    def test_alert_decoding(self, ca, server_identity):
        from tests.mctls_helpers import build_session

        client, _, server, chain = build_session(
            ca, server_identity, [], [ContextDefinition(1, "x")]
        )
        # Pre-protection alert bytes (craft a plaintext alert record).
        from repro.framing import MCTLS_DEFAULT
        from repro.tls.record import ALERT

        record = MCTLS_DEFAULT.pack_header(ALERT, 0, 2) + bytes([1, 0])
        lines = describe_stream(record)
        assert lines == ["Alert ctx=0 warning code=0"]
