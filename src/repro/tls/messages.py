"""TLS 1.2 handshake message codecs (RFC 5246 §7.4).

Each message knows how to encode its body; :func:`frame` adds the 4-byte
handshake header (type + 24-bit length) and :class:`HandshakeBuffer`
reassembles framed messages out of the record stream (messages may span
records and records may carry several messages).

The raw framed bytes of every message are what transcript hashes (Finished
verification) are computed over, so codecs must round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

# Handshake framing is defined next to the shared endpoint that does the
# reassembly; this module stays its import surface.
from repro.core.endpoint import HandshakeBuffer, frame
from repro.crypto.certs import Certificate
from repro.wire import DecodeError, Reader, Writer

# Handshake message types (RFC 5246 + mcTLS private range).
CLIENT_HELLO = 1
SERVER_HELLO = 2
CERTIFICATE = 11
SERVER_KEY_EXCHANGE = 12
SERVER_HELLO_DONE = 14
CLIENT_KEY_EXCHANGE = 16
FINISHED = 20

# mcTLS additions (private-use message type space).
MIDDLEBOX_HELLO = 0xF1
MIDDLEBOX_CERTIFICATE = 0xF2
MIDDLEBOX_KEY_EXCHANGE = 0xF3
MIDDLEBOX_KEY_MATERIAL = 0xF4

# mdTLS delegation additions (same private-use space).
WARRANT_ISSUE = 0xF5
DELEGATED_KEY_MATERIAL = 0xF6

RANDOM_LEN = 32
VERIFY_DATA_LEN = 12

# Extension type numbers.
EXT_MIDDLEBOX_LIST = 0xFF01


# -- extensions ---------------------------------------------------------


def encode_extensions(extensions: Sequence[Tuple[int, bytes]]) -> bytes:
    """Encode an extension block (empty block encodes as zero bytes)."""
    if not extensions:
        return b""
    inner = Writer()
    for ext_type, data in extensions:
        inner.u16(ext_type)
        inner.vec16(data)
    return Writer().vec16(inner.bytes()).bytes()


def decode_extensions(reader: Reader) -> List[Tuple[int, bytes]]:
    if reader.exhausted:
        return []
    block = Reader(reader.vec16())
    extensions = []
    while not block.exhausted:
        ext_type = block.u16()
        extensions.append((ext_type, block.vec16()))
    return extensions


# -- hello messages ------------------------------------------------------


@dataclass
class ClientHello:
    random: bytes
    cipher_suites: Sequence[int]
    session_id: bytes = b""
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)

    msg_type = CLIENT_HELLO

    def encode(self) -> bytes:
        w = Writer()
        w.u16(0x0303)
        w.raw(self.random)
        w.vec8(self.session_id)
        suites = Writer()
        for suite in self.cipher_suites:
            suites.u16(suite)
        w.vec16(suites.bytes())
        w.vec8(b"\x00")  # null compression only
        w.raw(encode_extensions(self.extensions))
        return w.bytes()

    @classmethod
    def decode(cls, body: bytes) -> "ClientHello":
        r = Reader(body)
        version = r.u16()
        if version != 0x0303:
            raise DecodeError(f"unsupported client version 0x{version:04x}")
        random = r.raw(RANDOM_LEN)
        session_id = r.vec8()
        suite_bytes = Reader(r.vec16())
        suites = []
        while not suite_bytes.exhausted:
            suites.append(suite_bytes.u16())
        compression = r.vec8()
        if b"\x00" not in compression:
            raise DecodeError("null compression not offered")
        extensions = decode_extensions(r)
        r.expect_end()
        return cls(
            random=random,
            cipher_suites=suites,
            session_id=session_id,
            extensions=extensions,
        )

    def find_extension(self, ext_type: int) -> Optional[bytes]:
        for etype, data in self.extensions:
            if etype == ext_type:
                return data
        return None


@dataclass
class ServerHello:
    random: bytes
    cipher_suite: int
    session_id: bytes = b""
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)

    msg_type = SERVER_HELLO

    def encode(self) -> bytes:
        w = Writer()
        w.u16(0x0303)
        w.raw(self.random)
        w.vec8(self.session_id)
        w.u16(self.cipher_suite)
        w.u8(0)  # null compression
        w.raw(encode_extensions(self.extensions))
        return w.bytes()

    @classmethod
    def decode(cls, body: bytes) -> "ServerHello":
        r = Reader(body)
        version = r.u16()
        if version != 0x0303:
            raise DecodeError(f"unsupported server version 0x{version:04x}")
        random = r.raw(RANDOM_LEN)
        session_id = r.vec8()
        suite = r.u16()
        if r.u8() != 0:
            raise DecodeError("server selected non-null compression")
        extensions = decode_extensions(r)
        r.expect_end()
        return cls(
            random=random,
            cipher_suite=suite,
            session_id=session_id,
            extensions=extensions,
        )

    def find_extension(self, ext_type: int) -> Optional[bytes]:
        for etype, data in self.extensions:
            if etype == ext_type:
                return data
        return None


# -- certificates --------------------------------------------------------


@dataclass
class CertificateMessage:
    chain: Sequence[Certificate]

    msg_type = CERTIFICATE

    def encode(self) -> bytes:
        inner = Writer()
        for cert in self.chain:
            inner.vec24(cert.to_bytes())
        return Writer().vec24(inner.bytes()).bytes()

    @classmethod
    def decode(cls, body: bytes) -> "CertificateMessage":
        r = Reader(body)
        inner = Reader(r.vec24())
        r.expect_end()
        chain = []
        while not inner.exhausted:
            chain.append(Certificate.from_bytes(inner.vec24()))
        return cls(chain=tuple(chain))


# -- key exchange --------------------------------------------------------


@dataclass
class ServerKeyExchange:
    """Ephemeral DH parameters signed by the server's certificate key.

    The signature covers ``client_random || server_random || params`` as in
    RFC 5246 §7.4.3.
    """

    dh_p: int
    dh_g: int
    dh_public: bytes
    signature: bytes

    msg_type = SERVER_KEY_EXCHANGE

    def params_bytes(self) -> bytes:
        from repro.crypto.numtheory import int_to_bytes

        w = Writer()
        w.vec16(int_to_bytes(self.dh_p))
        w.vec16(int_to_bytes(self.dh_g))
        w.vec16(self.dh_public)
        return w.bytes()

    def signed_bytes(self, client_random: bytes, server_random: bytes) -> bytes:
        """What the signature covers."""
        return client_random + server_random + self.params_bytes()

    def encode(self) -> bytes:
        return self.params_bytes() + Writer().vec16(self.signature).bytes()

    @classmethod
    def decode(cls, body: bytes) -> "ServerKeyExchange":
        from repro.crypto.numtheory import bytes_to_int

        r = Reader(body)
        p = bytes_to_int(r.vec16())
        g = bytes_to_int(r.vec16())
        public = r.vec16()
        signature = r.vec16()
        r.expect_end()
        return cls(dh_p=p, dh_g=g, dh_public=public, signature=signature)


@dataclass
class ClientKeyExchange:
    dh_public: bytes

    msg_type = CLIENT_KEY_EXCHANGE

    def encode(self) -> bytes:
        return Writer().vec16(self.dh_public).bytes()

    @classmethod
    def decode(cls, body: bytes) -> "ClientKeyExchange":
        r = Reader(body)
        public = r.vec16()
        r.expect_end()
        return cls(dh_public=public)


@dataclass
class ServerHelloDone:
    msg_type = SERVER_HELLO_DONE

    def encode(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, body: bytes) -> "ServerHelloDone":
        if body:
            raise DecodeError("ServerHelloDone must be empty")
        return cls()


@dataclass
class Finished:
    verify_data: bytes

    msg_type = FINISHED

    def encode(self) -> bytes:
        return self.verify_data

    @classmethod
    def decode(cls, body: bytes) -> "Finished":
        if len(body) != VERIFY_DATA_LEN:
            raise DecodeError("Finished verify_data has wrong length")
        return cls(verify_data=body)
