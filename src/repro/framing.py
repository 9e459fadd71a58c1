"""Pluggable record framing: the wire geometry seam.

A :class:`RecordFraming` instance bundles everything a record layer
needs to know about how records look on the wire — header layout,
MAC-trailer geometry (how many bytes each MAC slot occupies), the
version value bound into MAC inputs and the explicit-nonce length.  The
one record engine (:mod:`repro.tls.record`: TLS's record layer, which
the mcTLS endpoint layer extends and whose ``parse_record`` the
middlebox calls, and behind :func:`repro.mctls.record.split_records`
the on-path attacker and :mod:`repro.trace` too) reads every header,
MAC prefix and trailer width off a framing instance instead of
hard-coding struct formats, so adding a framing (an AEAD layout, a
compact industrial layout) is a new instance here — not a change to a
record layer.  Nothing else under ``repro`` packs or parses a record
header.

Three instances ship:

``TLS_DEFAULT``
    The RFC 5246 layout: ``type(1) || version(2) || length(2)``,
    full-length (32 B) HMAC trailer.

``MCTLS_DEFAULT``
    The mcTLS layout (§3.4): ``type(1) || version(2) || context_id(1)
    || length(2)``, full-length MAC slots.  Byte-identical to what the
    repo produced before this seam existed — pinned by the frozen
    golden vectors.

``MCTLS_COMPACT``
    A Madtls-style compact layout for industrial links carrying tiny
    periodic records: ``marker(1) || context_id(1) || length(2)`` —
    two header bytes fewer than the default — with MAC slots truncated
    to 8 bytes and room for per-field MACs in the trailer (see
    :class:`repro.mctls.contexts.FieldSchema`).  The marker byte is
    ``0xD0 | (content_type - 20)``, a range disjoint from the TLS
    content types 20–23, so a capture mixing both framings stays
    decodable record by record.  MAC inputs bind the distinct version
    value ``0xFC04`` so a compact record can never be replayed into a
    default-framed session (framing is negotiated, not implied).

Framings never change mid-record, and the default framing always
carries the handshake: a session switches to its negotiated framing at
the ChangeCipherSpec boundary, exactly like cipher activation.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, Tuple

# Record content types (RFC 5246) — defined here, at the bottom layer,
# and re-exported by repro.tls.record for compatibility.
CHANGE_CIPHER_SPEC = 20
ALERT = 21
HANDSHAKE = 22
APPLICATION_DATA = 23

CONTENT_TYPES = (CHANGE_CIPHER_SPEC, ALERT, HANDSHAKE, APPLICATION_DATA)

TLS_VERSION = 0x0303  # TLS 1.2
# mcTLS records carry their own version so cross-protocol confusion with
# plain TLS fails immediately instead of stalling on a misparsed length.
MCTLS_VERSION = 0xFC03
# The compact framing has no version bytes on the wire; this value is
# bound into its MAC inputs instead (domain separation between framings).
MCTLS_COMPACT_VERSION = 0xFC04

MAX_PLAINTEXT = 1 << 14
# Protected fragments may exceed MAX_PLAINTEXT by MACs + padding + IV.
MAX_FRAGMENT = MAX_PLAINTEXT + 2048

# Compact-framing marker byte for content type 20 (markers 0xD0..0xD3).
COMPACT_MARKER_BASE = 0xD0


class FramingError(Exception):
    """Malformed header bytes for the framing asked to parse them."""


class RecordFraming:
    """One wire geometry.  Instances are stateless and shared."""

    name: str
    framing_id: int
    header_len: int
    mac_len: int
    carries_context_id: bool
    field_macs: bool
    nonce_len: int = 16

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecordFraming {self.name} id={self.framing_id}>"

    # -- header ---------------------------------------------------------

    def type_byte(self, content_type: int) -> int:
        """The first wire byte a record of ``content_type`` starts with."""
        raise NotImplementedError

    def pack_header(self, content_type: int, context_id: int, length: int) -> bytes:
        raise NotImplementedError

    def parse_header(self, data, pos: int = 0) -> Tuple[int, int, int]:
        """``(content_type, context_id, length)`` at ``data[pos:]``.

        Raises :class:`FramingError` on bytes this framing rejects;
        never reads past ``pos + header_len``.  Context-less framings
        report context 0.
        """
        raise NotImplementedError

    # -- MAC geometry ---------------------------------------------------

    def pack_mac_prefix(
        self, seq: int, content_type: int, context_id: int, payload_len: int
    ) -> bytes:
        """The fixed prefix every MAC of this framing covers."""
        raise NotImplementedError


class _TLSFraming(RecordFraming):
    """RFC 5246 framing: ``type(1) || version(2) || length(2)``."""

    name = "tls-default"
    framing_id = 0
    header_len = 5
    mac_len = 32
    carries_context_id = False
    field_macs = False

    header = Struct(">BHH")
    # seq(8) || type(1) || version(2) || plaintext_length(2)
    mac_prefix_struct = Struct(">QBHH")

    def type_byte(self, content_type: int) -> int:
        return content_type

    def pack_header(self, content_type: int, context_id: int, length: int) -> bytes:
        return self.header.pack(content_type, TLS_VERSION, length)

    def parse_header(self, data, pos: int = 0) -> Tuple[int, int, int]:
        content_type, version, length = self.header.unpack_from(data, pos)
        if content_type not in CONTENT_TYPES:
            raise FramingError(f"invalid content type {content_type}")
        if version != TLS_VERSION:
            raise FramingError(f"unsupported record version 0x{version:04x}")
        return content_type, 0, length

    def pack_mac_prefix(
        self, seq: int, content_type: int, context_id: int, payload_len: int
    ) -> bytes:
        return self.mac_prefix_struct.pack(seq, content_type, TLS_VERSION, payload_len)



class _McTLSDefaultFraming(RecordFraming):
    """mcTLS §3.4 framing: ``type || version(2) || context_id || length(2)``."""

    name = "mctls-default"
    framing_id = 1
    header_len = 6
    mac_len = 32
    carries_context_id = True
    field_macs = False

    header = Struct(">BHBH")
    # seq(8) || type(1) || version(2) || context_id(1) || payload_length(2)
    mac_prefix_struct = Struct(">QBHBH")

    def type_byte(self, content_type: int) -> int:
        return content_type

    def pack_header(self, content_type: int, context_id: int, length: int) -> bytes:
        return self.header.pack(content_type, MCTLS_VERSION, context_id, length)

    def parse_header(self, data, pos: int = 0) -> Tuple[int, int, int]:
        content_type, version, context_id, length = self.header.unpack_from(data, pos)
        if content_type not in CONTENT_TYPES:
            raise FramingError(f"invalid content type {content_type}")
        if version != MCTLS_VERSION:
            raise FramingError(f"unsupported record version 0x{version:04x}")
        return content_type, context_id, length

    def pack_mac_prefix(
        self, seq: int, content_type: int, context_id: int, payload_len: int
    ) -> bytes:
        return self.mac_prefix_struct.pack(
            seq, content_type, MCTLS_VERSION, context_id, payload_len
        )



class _McTLSCompactFraming(RecordFraming):
    """Madtls-style compact framing for tiny periodic records.

    ``marker(1) || context_id(1) || length(2)`` — the marker encodes the
    content type as ``0xD0 | (type - 20)`` so the first byte of a record
    also identifies the framing.  MAC slots are truncated to 8 bytes
    (Madtls's per-chunk authentication tags), and application-context
    trailers may carry per-field MACs after the three record MACs.
    """

    name = "mctls-compact"
    framing_id = 2
    header_len = 4
    mac_len = 8
    carries_context_id = True
    field_macs = True

    header = Struct(">BBH")
    # Same MAC-prefix shape as the default framing; only the bound
    # version value differs (domain separation between framings).
    mac_prefix_struct = Struct(">QBHBH")

    def type_byte(self, content_type: int) -> int:
        return COMPACT_MARKER_BASE | (content_type - CHANGE_CIPHER_SPEC)

    def pack_header(self, content_type: int, context_id: int, length: int) -> bytes:
        if content_type not in CONTENT_TYPES:
            raise FramingError(f"invalid content type {content_type}")
        return self.header.pack(self.type_byte(content_type), context_id, length)

    def parse_header(self, data, pos: int = 0) -> Tuple[int, int, int]:
        marker, context_id, length = self.header.unpack_from(data, pos)
        if marker & 0xFC != COMPACT_MARKER_BASE:
            raise FramingError(f"invalid compact framing marker 0x{marker:02x}")
        return CHANGE_CIPHER_SPEC + (marker & 0x03), context_id, length

    def pack_mac_prefix(
        self, seq: int, content_type: int, context_id: int, payload_len: int
    ) -> bytes:
        return self.mac_prefix_struct.pack(
            seq, content_type, MCTLS_COMPACT_VERSION, context_id, payload_len
        )



TLS_DEFAULT = _TLSFraming()
MCTLS_DEFAULT = _McTLSDefaultFraming()
MCTLS_COMPACT = _McTLSCompactFraming()

FRAMINGS: Tuple[RecordFraming, ...] = (TLS_DEFAULT, MCTLS_DEFAULT, MCTLS_COMPACT)
FRAMING_BY_ID: Dict[int, RecordFraming] = {f.framing_id: f for f in FRAMINGS}
FRAMING_BY_NAME: Dict[str, RecordFraming] = {f.name: f for f in FRAMINGS}


def framing_by_id(framing_id: int) -> RecordFraming:
    try:
        return FRAMING_BY_ID[framing_id]
    except KeyError:
        raise FramingError(f"unknown framing id {framing_id}") from None


def framing_by_name(name: str) -> RecordFraming:
    try:
        return FRAMING_BY_NAME[name]
    except KeyError:
        raise FramingError(f"unknown framing {name!r}") from None


def detect_mctls_framing(first_byte: int) -> RecordFraming:
    """Guess the framing of an mcTLS record from its first wire byte.

    The compact marker range (0xD0–0xD3) is disjoint from the content
    types (20–23), so a passive observer — :func:`repro.trace.describe_stream`
    — can decode captures that mix default-framed handshake records with
    compact-framed data records.  Unrecognized bytes report as default
    framing, whose parser raises the precise error.
    """
    if COMPACT_MARKER_BASE <= first_byte <= COMPACT_MARKER_BASE | 0x03:
        return MCTLS_COMPACT
    return MCTLS_DEFAULT
