"""The TLS 1.2 record protocol (RFC 5246 §6).

Records are ``type(1) || version(2) || length(2) || fragment``.  Once a
direction is protected, fragments are MAC-then-encrypt: the MAC is computed
over ``seq(8) || type(1) || version(2) || plaintext_length(2) || plaintext``
and appended to the plaintext before encryption.

:class:`RecordLayer` holds both directions of one connection endpoint:
``encode()`` frames and protects outgoing payloads, ``feed()`` +
``read_record()`` de-frame and unprotect incoming bytes.

The data plane is on the fast path of every experiment: the receive
side parses straight out of a cursor buffer (:class:`repro.recbuf.RecordBuffer`)
with one fragment copy per record, the MAC key schedule is precomputed
per direction (the suite provider's cached HMAC context), and
headers/MAC prefixes are packed with :class:`struct.Struct`.  Wire bytes
are pinned by the golden-vector tests.
"""

from __future__ import annotations

import hmac as _hmac
from typing import Iterator, Optional, Tuple

from repro.framing import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    CONTENT_TYPES,
    HANDSHAKE,
    MAX_FRAGMENT,
    MAX_PLAINTEXT,
    TLS_DEFAULT,
    TLS_VERSION,
)
from repro.recbuf import RecordBuffer
from repro.tls.ciphersuites import BulkCipher, CipherError, CipherSuite

# The wire geometry is the default TLS instance of the pluggable framing
# seam (:mod:`repro.framing`); these aliases keep this module the
# canonical import surface for TLS record constants.
RECORD_HEADER_LEN = TLS_DEFAULT.header_len

# type(1) || version(2) || length(2)
_WIRE_HEADER = TLS_DEFAULT.header
# seq(8) || type(1) || version(2) || plaintext_length(2)
_MAC_PREFIX = TLS_DEFAULT.mac_prefix_struct


class RecordError(Exception):
    """Raised on malformed records or failed record protection."""


class DirectionState:
    """Protection state for one direction (null until ChangeCipherSpec)."""

    def __init__(self) -> None:
        self.cipher: Optional[BulkCipher] = None
        self.mac_key: bytes = b""
        self.suite: Optional[CipherSuite] = None
        self.seq: int = 0
        self._mac_ctx = None

    @property
    def protected(self) -> bool:
        return self.cipher is not None

    def activate(self, suite: CipherSuite, cipher: BulkCipher, mac_key: bytes) -> None:
        self.suite = suite
        self.cipher = cipher
        self.mac_key = mac_key
        self.seq = 0
        self._mac_ctx = suite.mac_context(mac_key)

    def next_seq(self) -> int:
        seq = self.seq
        self.seq += 1
        return seq

    def record_mac(self, seq: int, content_type: int, plaintext) -> bytes:
        """MAC over ``mac_input(seq, content_type, plaintext)``."""
        return self._mac_ctx.digest(
            _MAC_PREFIX.pack(seq, content_type, TLS_VERSION, len(plaintext)),
            plaintext,
        )


def mac_input(seq: int, content_type: int, plaintext: bytes) -> bytes:
    """The bytes a TLS record MAC covers."""
    return _MAC_PREFIX.pack(seq, content_type, TLS_VERSION, len(plaintext)) + plaintext


class RecordLayer:
    """Sans-I/O record framing and protection for one connection end."""

    def __init__(self) -> None:
        self.read_state = DirectionState()
        self.write_state = DirectionState()
        self._inbuf = RecordBuffer()

    # -- outgoing ------------------------------------------------------

    def encode(self, content_type: int, payload: bytes) -> bytes:
        """Frame (and fragment / protect) an outgoing payload."""
        if content_type not in CONTENT_TYPES:
            raise RecordError(f"invalid content type {content_type}")
        if len(payload) <= MAX_PLAINTEXT:
            return self._encode_one(content_type, payload)
        view = memoryview(payload)
        out = bytearray()
        for offset in range(0, len(payload), MAX_PLAINTEXT):
            out += self._encode_one(content_type, view[offset : offset + MAX_PLAINTEXT])
        return bytes(out)

    def _encode_one(self, content_type: int, plaintext) -> bytes:
        state = self.write_state
        if state.cipher is not None:
            seq = state.seq
            state.seq = seq + 1
            mac = state.record_mac(seq, content_type, plaintext)
            fragment = state.cipher.encrypt(b"".join((plaintext, mac)))
        else:
            fragment = plaintext
        if len(fragment) > MAX_FRAGMENT:
            raise RecordError("record fragment too long")
        return _WIRE_HEADER.pack(content_type, TLS_VERSION, len(fragment)) + fragment

    # -- incoming ------------------------------------------------------

    def feed(self, data: bytes) -> None:
        self._inbuf.append(data)

    def read_record(self) -> Optional[Tuple[int, bytes]]:
        """Return the next (content_type, plaintext) or None if incomplete."""
        buf = self._inbuf
        if len(buf) < RECORD_HEADER_LEN:
            return None
        content_type, version, length = _WIRE_HEADER.unpack_from(buf.data, buf.pos)
        if content_type not in CONTENT_TYPES:
            raise RecordError(f"invalid content type {content_type}")
        if version != TLS_VERSION:
            raise RecordError(f"unsupported record version 0x{version:04x}")
        if length > MAX_FRAGMENT:
            raise RecordError("record fragment too long")
        if len(buf) < RECORD_HEADER_LEN + length:
            return None
        buf.consume(RECORD_HEADER_LEN)
        fragment = buf.take(length)
        return content_type, self._unprotect(content_type, fragment)

    def read_all(self) -> Iterator[Tuple[int, bytes]]:
        while True:
            record = self.read_record()
            if record is None:
                return
            yield record

    def _unprotect(self, content_type: int, fragment: bytes) -> bytes:
        state = self.read_state
        if state.cipher is None:
            return fragment
        try:
            plaintext_and_mac = state.cipher.decrypt(fragment)
        except CipherError as exc:
            raise RecordError(f"record decryption failed: {exc}") from exc
        mac_len = state.suite.mac_length
        if len(plaintext_and_mac) < mac_len:
            raise RecordError("decrypted record shorter than MAC")
        plaintext = plaintext_and_mac[:-mac_len]
        mac = plaintext_and_mac[-mac_len:]
        seq = state.next_seq()
        expected = state.record_mac(seq, content_type, plaintext)
        if not _hmac.compare_digest(mac, expected):
            raise RecordError("record MAC verification failed")
        return plaintext
