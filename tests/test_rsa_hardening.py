"""RSA keys and certificates that arrive off the wire.

A malformed key inside a (plaintext) Certificate message must end the
handshake through the stack's typed error path — ``TLSError`` out of
``receive_data`` — never as ``RSAError``, ``CertificateError``,
``UnicodeDecodeError`` or a bare ``ValueError`` from the arithmetic.
Also pins the PKCS#1 v1.5 type-2 block shape now that its padding is
drawn in bulk.
"""

from __future__ import annotations

import pytest

from repro.crypto.certs import Certificate, CertificateError, verify_chain
from repro.crypto.numtheory import bytes_to_int, int_to_bytes
from repro.crypto.rsa import MIN_MODULUS_BITS, RSAError, RSAPublicKey, generate_rsa_key
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.tls.client import TLSClient
from repro.tls.connection import TLSError
from repro.tls.server import TLSServer
from repro.wire import DecodeError


def _encode_key(n: int, e: int) -> bytes:
    return RSAPublicKey(n=n, e=e).to_bytes()  # the constructor checks nothing


class TestWireKeyLimits:
    """Just inside and just outside each limit of ``RSAPublicKey.from_bytes``."""

    SMALLEST = (1 << (MIN_MODULUS_BITS - 1)) | 1  # odd, exactly 512 bits

    @pytest.mark.parametrize(
        "n, e",
        [(SMALLEST, 3), (SMALLEST, 65537), ((1 << 2048) - 1, 3)],
        ids=["512-bit-e3", "512-bit-e65537", "2048-bit"],
    )
    def test_accepted(self, n, e):
        assert RSAPublicKey.from_bytes(_encode_key(n, e)) == RSAPublicKey(n=n, e=e)

    @pytest.mark.parametrize(
        "n, e",
        [
            ((1 << (MIN_MODULUS_BITS - 1)) - 1, 65537),  # odd, 511 bits
            (SMALLEST + 1, 65537),  # 512 bits, even
            (0, 3),
            (1, 3),
            (SMALLEST, 1),
            (SMALLEST, 2),
            (SMALLEST, 0),
            (SMALLEST, 65536),
        ],
        ids=["511-bit", "even-n", "n=0", "n=1", "e=1", "e=2", "e=0", "even-e"],
    )
    def test_rejected(self, n, e):
        with pytest.raises(RSAError):
            RSAPublicKey.from_bytes(_encode_key(n, e))

    def test_empty_modulus_field(self):
        with pytest.raises(RSAError):
            RSAPublicKey.from_bytes(b"\x00\x00\x00\x01\x03")

    def test_smallest_accepted_key_verifies_to_a_bool(self):
        """``verify`` is documented to return True/False: the smallest
        modulus that parses still fits a SHA-256 DigestInfo."""
        key = RSAPublicKey.from_bytes(_encode_key(self.SMALLEST, 3))
        assert key.verify(b"message", b"\x01" * key.byte_length) is False


class TestType2Padding:
    @pytest.mark.parametrize("bits", [512, 1024])
    def test_block_shape_for_every_plaintext_length(self, bits):
        key = generate_rsa_key(bits)
        k = key.byte_length
        for length in range(k - 11 + 1):
            message = bytes([length % 251 + 1]) * length
            ciphertext = key.public_key.encrypt(message)
            assert len(ciphertext) == k
            block = int_to_bytes(key._private_op(bytes_to_int(ciphertext)), k)
            assert block[:2] == b"\x00\x02"
            padding, separator, tail = block[2:].partition(b"\x00")
            assert separator == b"\x00" and tail == message
            assert len(padding) == k - 3 - length >= 8
            assert key.decrypt(ciphertext) == message
        with pytest.raises(RSAError):
            key.public_key.encrypt(b"x" * (k - 10))


class TestCertificateDecode:
    def _assert_one_parse_error(self, data: bytes) -> None:
        with pytest.raises(CertificateError) as caught:
            Certificate.from_bytes(data)
        assert isinstance(caught.value, DecodeError)

    def test_truncated(self, server_identity):
        encoded = server_identity.certificate.to_bytes()
        for cut in (0, 1, 5, len(encoded) // 2, len(encoded) - 1):
            self._assert_one_parse_error(encoded[:cut])

    def test_trailing_bytes(self, server_identity):
        self._assert_one_parse_error(server_identity.certificate.to_bytes() + b"\x00")

    def test_subject_is_not_utf8(self, server_identity):
        encoded = bytearray(server_identity.certificate.to_bytes())
        encoded[2] = 0xFF  # first byte of the subject
        self._assert_one_parse_error(bytes(encoded))

    def test_key_length_overrun(self, server_identity):
        encoded = server_identity.certificate.to_bytes()
        self._assert_one_parse_error(_overrun_key_length(encoded, server_identity))

    def test_weak_key(self, ca):
        weak = Certificate(
            subject="weak.example",
            issuer=ca.name,
            public_key=RSAPublicKey(n=(1 << 200) | 1, e=3),
            serial=1,
            is_ca=False,
            signature=b"\x00" * 64,
        )
        self._assert_one_parse_error(weak.to_bytes())

    def test_chain_validation_errors_are_not_decode_errors(self, ca, server_identity):
        with pytest.raises(CertificateError) as caught:
            verify_chain(server_identity.chain, [ca.certificate], "evil.example")
        assert not isinstance(caught.value, DecodeError)


# -- handshake level ------------------------------------------------------------


def _overrun_key_length(flight: bytes, identity) -> bytes:
    """Overwrite the modulus length of ``identity``'s key with ``ff ff``."""
    key = identity.certificate.public_key.to_bytes()
    at = flight.index(key)
    assert flight.count(key) == 1
    return flight[:at] + b"\xff\xff" + flight[at + 2 :]


def _make_subject_invalid_utf8(flight: bytes, identity) -> bytes:
    at = flight.index(identity.certificate.to_bytes()) + 2  # first subject byte
    return flight[:at] + b"\xff" + flight[at + 1 :]


def _overrun_signature(flight: bytes, identity) -> bytes:
    """Grow the certificate's last length field by one so it reads past
    the certificate's end: the truncation error, outer lengths intact."""
    cert = identity.certificate
    encoded = cert.to_bytes()
    at = flight.index(encoded) + len(encoded) - len(cert.signature) - 2
    grown = (len(cert.signature) + 1).to_bytes(2, "big")
    return flight[:at] + grown + flight[at + 2 :]


MALFORMATIONS = pytest.mark.parametrize(
    "malform",
    [_overrun_key_length, _make_subject_invalid_utf8, _overrun_signature],
    ids=["key-length-ff-ff", "non-utf8-subject", "truncated"],
)


@MALFORMATIONS
def test_tls_client_rejects_malformed_server_certificate(
    malform, client_config, server_config, server_identity
):
    client, server = TLSClient(client_config), TLSServer(server_config)
    client.start_handshake()
    server.receive_data(client.data_to_send())
    flight = malform(server.data_to_send(), server_identity)
    with pytest.raises(TLSError):
        client.receive_data(flight)
    assert client.closed and not client.handshake_complete
    assert client.data_to_send()  # the fatal alert


@pytest.fixture()
def mctls_flights(ca, client_config, server_config, mbox_config, mbox_identity):
    """An mcTLS handshake stopped after the server's first flight has
    crossed the middlebox: every plaintext Certificate message is in
    hand, none has reached its final reader."""
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=[ContextDefinition(1, "data", {1: Permission.READ})],
    )
    client = McTLSClient(client_config, topology=topology)
    server = McTLSServer(server_config)
    mbox = McTLSMiddlebox(mbox_identity.name, mbox_config)
    client.start_handshake()
    mbox.receive_from_client(client.data_to_send())
    server.receive_data(mbox.data_to_server())
    from_server = server.data_to_send()
    return client, mbox, server, from_server


@MALFORMATIONS
def test_mctls_middlebox_rejects_malformed_server_certificate(
    malform, mctls_flights, server_identity
):
    _client, mbox, _server, from_server = mctls_flights
    with pytest.raises(TLSError):
        mbox.receive_from_server(malform(from_server, server_identity))
    assert mbox.closed


@MALFORMATIONS
@pytest.mark.parametrize("whose", ["server", "middlebox"])
def test_mctls_client_rejects_malformed_certificate(
    malform, whose, mctls_flights, server_identity, mbox_identity
):
    client, mbox, _server, from_server = mctls_flights
    mbox.receive_from_server(from_server)
    identity = server_identity if whose == "server" else mbox_identity
    flight = malform(mbox.data_to_client(), identity)
    with pytest.raises(TLSError):
        client.receive_data(flight)
    assert client.closed and not client.handshake_complete


@MALFORMATIONS
def test_mctls_server_rejects_malformed_middlebox_certificate(
    malform, mctls_flights, mbox_identity
):
    client, mbox, server, from_server = mctls_flights
    mbox.receive_from_server(from_server)
    client.receive_data(mbox.data_to_client())
    # The middlebox's own flight rides toward the server on the client's.
    mbox.receive_from_client(client.data_to_send())
    flight = malform(mbox.data_to_server(), mbox_identity)
    with pytest.raises(TLSError):
        server.receive_data(flight)
    assert server.closed and not server.handshake_complete
