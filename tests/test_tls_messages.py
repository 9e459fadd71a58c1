"""Codec tests for TLS and mcTLS handshake messages + the key schedule."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.certs import Certificate
from repro.mctls import messages as mm
from repro.tls import keyschedule as ks
from repro.tls import messages as msgs
from repro.wire import DecodeError


class TestClientHello:
    def test_roundtrip_with_extensions(self):
        hello = msgs.ClientHello(
            random=b"r" * 32,
            cipher_suites=[0x0067, 0xFF67],
            session_id=b"sess",
            extensions=[(0xFF01, b"topo-bytes"), (0xFF03, b"\x01")],
        )
        decoded = msgs.ClientHello.decode(hello.encode())
        assert decoded.random == hello.random
        assert decoded.cipher_suites == [0x0067, 0xFF67]
        assert decoded.session_id == b"sess"
        assert decoded.find_extension(0xFF01) == b"topo-bytes"
        assert decoded.find_extension(0xFF03) == b"\x01"
        assert decoded.find_extension(0x9999) is None

    def test_roundtrip_no_extensions(self):
        hello = msgs.ClientHello(random=b"r" * 32, cipher_suites=[1])
        decoded = msgs.ClientHello.decode(hello.encode())
        assert decoded.extensions == []

    def test_exact_reencoding(self):
        """Transcript hashing requires byte-exact round trips."""
        hello = msgs.ClientHello(
            random=b"x" * 32, cipher_suites=[7], extensions=[(1, b"a")]
        )
        assert msgs.ClientHello.decode(hello.encode()).encode() == hello.encode()

    def test_trailing_bytes_rejected(self):
        hello = msgs.ClientHello(random=b"r" * 32, cipher_suites=[1])
        with pytest.raises(DecodeError):
            msgs.ClientHello.decode(hello.encode() + b"\x00")


class TestServerMessages:
    def test_server_hello_roundtrip(self):
        hello = msgs.ServerHello(
            random=b"s" * 32, cipher_suite=0x0067, extensions=[(0xFF02, b"\x00")]
        )
        decoded = msgs.ServerHello.decode(hello.encode())
        assert decoded.cipher_suite == 0x0067
        assert decoded.find_extension(0xFF02) == b"\x00"

    def test_server_key_exchange_roundtrip(self):
        kx = msgs.ServerKeyExchange(
            dh_p=0xFFFF1, dh_g=2, dh_public=b"\x12" * 64, signature=b"\x34" * 64
        )
        decoded = msgs.ServerKeyExchange.decode(kx.encode())
        assert (decoded.dh_p, decoded.dh_g) == (0xFFFF1, 2)
        assert decoded.dh_public == kx.dh_public
        assert decoded.signature == kx.signature

    def test_hello_done_must_be_empty(self):
        assert msgs.ServerHelloDone.decode(b"") is not None
        with pytest.raises(DecodeError):
            msgs.ServerHelloDone.decode(b"\x00")

    def test_finished_length_check(self):
        assert msgs.Finished.decode(b"v" * 12).verify_data == b"v" * 12
        with pytest.raises(DecodeError):
            msgs.Finished.decode(b"v" * 13)


class TestHandshakeFraming:
    def test_frame_and_buffer(self):
        buffer = msgs.HandshakeBuffer()
        framed = msgs.frame(msgs.CLIENT_HELLO, b"body-bytes")
        buffer.feed(framed[:3])
        assert buffer.next_message() is None
        buffer.feed(framed[3:])
        msg_type, body, raw = buffer.next_message()
        assert (msg_type, body, raw) == (msgs.CLIENT_HELLO, b"body-bytes", framed)
        assert not buffer.has_partial

    def test_multiple_messages(self):
        buffer = msgs.HandshakeBuffer()
        buffer.feed(msgs.frame(1, b"a") + msgs.frame(2, b"bb"))
        assert buffer.next_message()[0] == 1
        assert buffer.next_message()[0] == 2
        assert buffer.next_message() is None

    def test_frame_too_long(self):
        with pytest.raises(ValueError):
            msgs.frame(1, b"x" * (1 << 24))


class TestMcTLSMessages:
    def test_middlebox_hello_roundtrip(self):
        hello = mm.MiddleboxHello(mbox_id=3, random=b"m" * 32)
        decoded = mm.MiddleboxHello.decode(hello.encode())
        assert (decoded.mbox_id, decoded.random) == (3, b"m" * 32)

    def test_key_exchange_roundtrip(self):
        ke = mm.MiddleboxKeyExchange(
            mbox_id=1, direction=mm.TOWARD_SERVER, dh_public=b"p" * 32, signature=b"s" * 16
        )
        decoded = mm.MiddleboxKeyExchange.decode(ke.encode())
        assert decoded.direction == mm.TOWARD_SERVER
        assert decoded.dh_public == b"p" * 32

    def test_key_exchange_invalid_direction(self):
        ke = mm.MiddleboxKeyExchange(
            mbox_id=1, direction=mm.TOWARD_CLIENT, dh_public=b"p", signature=b"s"
        )
        raw = bytearray(ke.encode())
        raw[1] = 9
        with pytest.raises(DecodeError):
            mm.MiddleboxKeyExchange.decode(bytes(raw))

    def test_signed_bytes_bind_direction_and_randoms(self):
        ke = mm.MiddleboxKeyExchange(
            mbox_id=1, direction=mm.TOWARD_CLIENT, dh_public=b"p" * 8, signature=b""
        )
        a = ke.signed_bytes(b"m" * 32, b"c" * 32)
        b = ke.signed_bytes(b"m" * 32, b"s" * 32)
        assert a != b

    def test_key_material_roundtrip(self):
        mkm = mm.MiddleboxKeyMaterial(sender=mm.SENDER_CLIENT, target=2, sealed=b"blob")
        decoded = mm.MiddleboxKeyMaterial.decode(mkm.encode())
        assert (decoded.sender, decoded.target, decoded.sealed) == (1, 2, b"blob")

    def test_key_material_invalid_sender(self):
        raw = bytearray(
            mm.MiddleboxKeyMaterial(sender=1, target=2, sealed=b"x").encode()
        )
        raw[0] = 9
        with pytest.raises(DecodeError):
            mm.MiddleboxKeyMaterial.decode(bytes(raw))

    def test_key_shares_roundtrip(self):
        shares = [
            mm.ContextKeyShare(context_id=1, reader_material=b"r" * 32),
            mm.ContextKeyShare(
                context_id=2, reader_material=b"R" * 32, writer_material=b"w" * 32
            ),
        ]
        decoded = mm.decode_key_shares(mm.encode_key_shares(shares))
        assert decoded == shares


class TestDecodeRobustness:
    """Random bytes must raise DecodeError, never crash differently."""

    CODECS = [
        msgs.ClientHello.decode,
        msgs.ServerHello.decode,
        msgs.CertificateMessage.decode,
        msgs.ServerKeyExchange.decode,
        msgs.ClientKeyExchange.decode,
        mm.MiddleboxHello.decode,
        mm.MiddleboxCertificateMessage.decode,
        mm.MiddleboxKeyExchange.decode,
        mm.MiddleboxKeyMaterial.decode,
        mm.decode_key_shares,
    ]

    @given(st.binary(max_size=200))
    @settings(max_examples=60)
    def test_fuzz_decoders(self, data):
        from repro.crypto.certs import CertificateError
        from repro.crypto.rsa import RSAError

        for decode in self.CODECS:
            try:
                decode(data)
            except (DecodeError, CertificateError, RSAError):
                pass  # structured rejection is the contract


class TestKeySchedule:
    def test_master_secret_is_48_bytes(self):
        secret = ks.master_secret(b"premaster", b"c" * 32, b"s" * 32)
        assert len(secret) == ks.MASTER_SECRET_LEN

    def test_key_block_partition(self):
        block = ks.derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32, 32, 16)
        keys = [
            block.client_mac_key,
            block.server_mac_key,
            block.client_enc_key,
            block.server_enc_key,
        ]
        assert [len(k) for k in keys] == [32, 32, 16, 16]
        assert len(set(keys)) == 4  # all distinct

    def test_seed_order_flip(self):
        """Key expansion seeds server||client (RFC 5246 §6.3), so swapping
        randoms changes the block."""
        a = ks.derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32, 32, 16)
        b = ks.derive_key_block(b"m" * 48, b"s" * 32, b"c" * 32, 32, 16)
        assert a != b

    def test_finished_labels_differ(self):
        client = ks.finished_verify_data(b"m" * 48, ks.LABEL_CLIENT_FINISHED, b"h" * 32)
        server = ks.finished_verify_data(b"m" * 48, ks.LABEL_SERVER_FINISHED, b"h" * 32)
        assert client != server and len(client) == 12


class TestServerHelloSessionId:
    """Wire-level regression: the ServerHello session_id is either empty,
    a freshly generated id, or (on resumption) an exact echo — never a
    reflection of whatever the client proposed (RFC 5246 §7.4.1.3)."""

    def _server_hello_from(self, wire: bytes) -> msgs.ServerHello:
        from repro.tls.record import HANDSHAKE, RecordLayer

        records = RecordLayer()
        records.feed(wire)
        buf = msgs.HandshakeBuffer()
        for content_type, payload in records.read_all():
            if content_type == HANDSHAKE:
                buf.feed(payload)
        while True:
            item = buf.next_message()
            assert item is not None, "no ServerHello in wire bytes"
            msg_type, body, _raw = item
            if msg_type == msgs.SERVER_HELLO:
                return msgs.ServerHello.decode(body)

    def _client_with_bogus_session(self, client_config, suite_id):
        from repro.tls.client import TLSClient
        from repro.tls.sessioncache import ClientSessionStore, TLSSessionState

        store = ClientSessionStore()
        store.put(
            "server.example",
            TLSSessionState(
                session_id=b"\x01" * 32,
                master_secret=b"m" * 48,
                cipher_suite_id=suite_id,
                server_name="server.example",
            ),
        )
        return TLSClient(client_config, session_store=store)

    def test_session_id_wire_roundtrip(self):
        for session_id in (b"", b"\xaa" * 32):
            hello = msgs.ServerHello(
                random=b"s" * 32, cipher_suite=0x0067, session_id=session_id
            )
            decoded = msgs.ServerHello.decode(hello.encode())
            assert decoded.session_id == session_id
            assert decoded.encode() == hello.encode()

    def test_cacheless_server_sends_empty_session_id(self, client_config, server_config):
        from repro.tls.server import TLSServer

        suite_id = client_config.cipher_suites[0].suite_id
        client = self._client_with_bogus_session(client_config, suite_id)
        client.start_handshake()
        server = TLSServer(server_config)
        server.receive_data(client.data_to_send())
        hello = self._server_hello_from(server.data_to_send())
        assert hello.session_id == b""

    def test_full_handshake_never_echoes_proposed_id(self, client_config, server_config):
        from repro.tls.server import TLSServer
        from repro.tls.sessioncache import SessionCache

        suite_id = client_config.cipher_suites[0].suite_id
        client = self._client_with_bogus_session(client_config, suite_id)
        client.start_handshake()
        server = TLSServer(server_config, session_cache=SessionCache())
        server.receive_data(client.data_to_send())
        hello = self._server_hello_from(server.data_to_send())
        # Unknown proposed id: the server issues a FRESH id, never an echo.
        assert len(hello.session_id) == 32
        assert hello.session_id != b"\x01" * 32

    def test_resumed_handshake_echoes_exactly(self, client_config, server_config):
        from repro.tls.client import TLSClient
        from repro.tls.server import TLSServer
        from repro.tls.sessioncache import ClientSessionStore, SessionCache
        from repro.transport import pump

        cache = SessionCache()
        store = ClientSessionStore()
        client = TLSClient(client_config, session_store=store)
        server = TLSServer(server_config, session_cache=cache)
        client.start_handshake()
        pump(client, server)
        assert client.handshake_complete and server.handshake_complete
        cached_id = store.get("server.example").session_id

        client2 = TLSClient(client_config, session_store=store)
        client2.start_handshake()
        server2 = TLSServer(server_config, session_cache=cache)
        server2.receive_data(client2.data_to_send())
        hello = self._server_hello_from(server2.data_to_send())
        assert hello.session_id == cached_id
