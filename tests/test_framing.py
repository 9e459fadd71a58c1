"""Unit tests for the pluggable record-framing seam (``repro.framing``).

The framing instances are pure wire geometry — header pack/parse, MAC
prefix layout, trailer slot widths — so these tests pin each geometry
fact directly, independent of the record layers built on top.
"""

from __future__ import annotations

import pytest

from repro import framing as frm
from repro.framing import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    COMPACT_MARKER_BASE,
    CONTENT_TYPES,
    HANDSHAKE,
    MCTLS_COMPACT,
    MCTLS_COMPACT_VERSION,
    MCTLS_DEFAULT,
    MCTLS_VERSION,
    TLS_DEFAULT,
    FramingError,
)

ALL = (TLS_DEFAULT, MCTLS_DEFAULT, MCTLS_COMPACT)


# -- registry ---------------------------------------------------------------


def test_registry_is_consistent():
    assert frm.FRAMINGS == ALL
    for f in ALL:
        assert frm.framing_by_id(f.framing_id) is f
        assert frm.framing_by_name(f.name) is f
        assert frm.FRAMING_BY_ID[f.framing_id] is f
        assert frm.FRAMING_BY_NAME[f.name] is f
    assert len({f.framing_id for f in ALL}) == len(ALL)
    assert len({f.name for f in ALL}) == len(ALL)


def test_unknown_lookups_raise_framing_error():
    with pytest.raises(FramingError):
        frm.framing_by_id(77)
    with pytest.raises(FramingError):
        frm.framing_by_name("mctls-imaginary")


def test_geometry_attributes():
    assert (TLS_DEFAULT.header_len, TLS_DEFAULT.mac_len) == (5, 32)
    assert (MCTLS_DEFAULT.header_len, MCTLS_DEFAULT.mac_len) == (6, 32)
    assert (MCTLS_COMPACT.header_len, MCTLS_COMPACT.mac_len) == (4, 8)
    assert not TLS_DEFAULT.carries_context_id
    assert MCTLS_DEFAULT.carries_context_id and MCTLS_COMPACT.carries_context_id
    assert MCTLS_COMPACT.field_macs
    assert not TLS_DEFAULT.field_macs and not MCTLS_DEFAULT.field_macs
    for f in ALL:
        assert f.nonce_len == 16


# -- header pack / parse ----------------------------------------------------


@pytest.mark.parametrize("f", ALL, ids=lambda f: f.name)
@pytest.mark.parametrize("content_type", CONTENT_TYPES)
def test_header_round_trip(f, content_type):
    for context_id, length in [(0, 0), (3, 1), (0 if not f.carries_context_id else 255, 0xFFFF)]:
        header = f.pack_header(content_type, context_id, length)
        assert len(header) == f.header_len
        assert header[0] == f.type_byte(content_type)
        got = f.parse_header(header)
        expected_ctx = context_id if f.carries_context_id else 0
        assert got == (content_type, expected_ctx, length)


def test_parse_header_honors_pos():
    header = MCTLS_COMPACT.pack_header(APPLICATION_DATA, 2, 7)
    assert MCTLS_COMPACT.parse_header(b"\xAA\xBB" + header, pos=2) == (
        APPLICATION_DATA,
        2,
        7,
    )


def test_type_bytes():
    assert TLS_DEFAULT.type_byte(HANDSHAKE) == HANDSHAKE
    assert MCTLS_DEFAULT.type_byte(HANDSHAKE) == HANDSHAKE
    # Compact markers 0xD0..0xD3 are disjoint from content types 20..23.
    markers = {MCTLS_COMPACT.type_byte(ct) for ct in CONTENT_TYPES}
    assert markers == {0xD0, 0xD1, 0xD2, 0xD3}
    assert markers.isdisjoint(set(CONTENT_TYPES))
    assert MCTLS_COMPACT.type_byte(CHANGE_CIPHER_SPEC) == COMPACT_MARKER_BASE


def test_parse_rejects_bad_content_type():
    bad_tls = bytes([99]) + TLS_DEFAULT.pack_header(ALERT, 0, 1)[1:]
    with pytest.raises(FramingError):
        TLS_DEFAULT.parse_header(bad_tls)
    bad_mctls = bytes([99]) + MCTLS_DEFAULT.pack_header(ALERT, 0, 1)[1:]
    with pytest.raises(FramingError):
        MCTLS_DEFAULT.parse_header(bad_mctls)


def test_parse_rejects_bad_version():
    tls = bytearray(TLS_DEFAULT.pack_header(HANDSHAKE, 0, 1))
    tls[1] ^= 0xFF
    with pytest.raises(FramingError):
        TLS_DEFAULT.parse_header(bytes(tls))
    mctls = bytearray(MCTLS_DEFAULT.pack_header(HANDSHAKE, 0, 1))
    mctls[2] ^= 0xFF
    with pytest.raises(FramingError):
        MCTLS_DEFAULT.parse_header(bytes(mctls))


def test_compact_parse_rejects_bad_marker():
    header = bytearray(MCTLS_COMPACT.pack_header(APPLICATION_DATA, 1, 5))
    header[0] = APPLICATION_DATA  # a default-framing first byte
    with pytest.raises(FramingError):
        MCTLS_COMPACT.parse_header(bytes(header))


def test_compact_pack_rejects_bad_content_type():
    with pytest.raises(FramingError):
        MCTLS_COMPACT.pack_header(42, 1, 5)


# -- MAC geometry -----------------------------------------------------------


def test_mac_prefix_domain_separation():
    """Identical record coordinates MAC differently under each framing —
    a compact record can never replay into a default-framed session."""
    coords = (7, APPLICATION_DATA, 1, 64)
    prefixes = {f.name: f.pack_mac_prefix(*coords) for f in ALL}
    assert len(set(prefixes.values())) == 3
    # mcTLS prefixes share a shape; only the bound version differs.
    assert len(prefixes["mctls-default"]) == len(prefixes["mctls-compact"]) == 14
    default, compact = prefixes["mctls-default"], prefixes["mctls-compact"]
    assert default[9:11] == MCTLS_VERSION.to_bytes(2, "big")
    assert compact[9:11] == MCTLS_COMPACT_VERSION.to_bytes(2, "big")
    assert default[:9] == compact[:9] and default[11:] == compact[11:]


# -- framing detection ------------------------------------------------------


def test_detect_mctls_framing():
    for ct in CONTENT_TYPES:
        assert frm.detect_mctls_framing(ct) is MCTLS_DEFAULT
        assert (
            frm.detect_mctls_framing(MCTLS_COMPACT.type_byte(ct)) is MCTLS_COMPACT
        )
    # Unrecognized bytes report as default so its parser raises precisely.
    assert frm.detect_mctls_framing(0x00) is MCTLS_DEFAULT
    assert frm.detect_mctls_framing(0xD4) is MCTLS_DEFAULT
    assert frm.detect_mctls_framing(0xCF) is MCTLS_DEFAULT
    assert frm.detect_mctls_framing(0xFF) is MCTLS_DEFAULT
