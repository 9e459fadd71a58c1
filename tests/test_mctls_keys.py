"""Tests for the mcTLS key schedule: contributory keys, AuthEnc, carving."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mctls import keys as mk
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256, CipherError
from repro.wire import DecodeError

SUITE = SUITE_DHE_RSA_SHACTR_SHA256
RC, RS = b"c" * 32, b"s" * 32


class TestPairwise:
    def test_deterministic(self):
        a = mk.derive_pairwise(b"premaster", RC, RS)
        b = mk.derive_pairwise(b"premaster", RC, RS)
        assert a == b

    def test_random_separation(self):
        a = mk.derive_pairwise(b"pm", RC, RS)
        b = mk.derive_pairwise(b"pm", RS, RC)
        assert a.secret != b.secret

    def test_key_lengths(self):
        keys = mk.derive_pairwise(b"pm", RC, RS)
        assert len(keys.secret) == 48
        assert len(keys.enc) == 16
        assert len(keys.mac) == 32


class TestContributoryKeys:
    def test_both_halves_required(self):
        """Different halves from either side give different final keys —
        the contributory property (R4)."""
        base = mk.combine_context_keys(b"c1" * 16, b"s1" * 16, b"cw" * 16, b"sw" * 16, RC, RS)
        diff_client = mk.combine_context_keys(b"XX" * 16, b"s1" * 16, b"cw" * 16, b"sw" * 16, RC, RS)
        diff_server = mk.combine_context_keys(b"c1" * 16, b"XX" * 16, b"cw" * 16, b"sw" * 16, RC, RS)
        assert base != diff_client
        assert base != diff_server

    def test_directional_keys_distinct(self):
        keys = mk.combine_context_keys(b"a" * 32, b"b" * 32, b"c" * 32, b"d" * 32, RC, RS)
        assert keys.enc(mk.C2S) != keys.enc(mk.S2C)
        assert keys.reader_mac(mk.C2S) != keys.reader_mac(mk.S2C)
        assert keys.writer_mac(mk.C2S) != keys.writer_mac(mk.S2C)

    def test_reader_and_writer_keys_independent(self):
        keys = mk.combine_context_keys(b"a" * 32, b"b" * 32, b"c" * 32, b"d" * 32, RC, RS)
        assert keys.reader_mac(mk.C2S) != keys.writer_mac(mk.C2S)

    def test_partial_keys_context_separated(self):
        secret = b"S" * 48
        assert mk.partial_reader_key(secret, RC, 1) != mk.partial_reader_key(secret, RC, 2)
        assert mk.partial_reader_key(secret, RC, 1) != mk.partial_writer_key(secret, RC, 1)


class TestCKDKeys:
    def test_deterministic_from_endpoint_secret(self):
        a = mk.ckd_context_keys(b"ms" * 24, RC, RS, 1)
        b = mk.ckd_context_keys(b"ms" * 24, RC, RS, 1)
        assert a == b

    def test_context_separation(self):
        a = mk.ckd_context_keys(b"ms" * 24, RC, RS, 1)
        b = mk.ckd_context_keys(b"ms" * 24, RC, RS, 2)
        assert a != b

    def test_block_serialization_roundtrip(self):
        """The blocks travel as the PRF emitted them: rebuilt from their
        bytes they give the same keys, and the accessors carve the
        layout enc_c2s || enc_s2c || mac_c2s || mac_s2c (reader) and
        mac_c2s || mac_s2c (writer)."""
        keys = mk.ckd_context_keys(b"ms" * 24, RC, RS, 3)
        received = mk.ContextKeys(bytes(keys.reader_block), bytes(keys.writer_block))
        assert received == keys
        assert keys.reader_block == (
            keys.enc(mk.C2S) + keys.enc(mk.S2C)
            + keys.reader_mac(mk.C2S) + keys.reader_mac(mk.S2C)
        )
        assert keys.writer_block == keys.writer_mac(mk.C2S) + keys.writer_mac(mk.S2C)

    def test_bad_block_lengths_rejected(self):
        with pytest.raises(DecodeError, match="reader key block"):
            mk.ContextKeys(b"short")
        with pytest.raises(DecodeError, match="writer key block"):
            mk.ContextKeys(bytes(mk.READER_BLOCK_LEN), b"short")
        # A read grant carries no writer block at all.
        assert mk.ContextKeys(bytes(mk.READER_BLOCK_LEN)).writer_block == b""


class TestEndpointKeys:
    def test_directions_distinct(self):
        keys = mk.derive_endpoint_keys(b"S" * 48, RC, RS)
        assert keys.c2s != keys.s2c
        assert keys.for_direction(mk.C2S) is keys.c2s
        assert keys.for_direction(mk.S2C) is keys.s2c


class TestAuthEnc:
    def test_roundtrip(self):
        enc, mac = b"e" * 16, b"m" * 32
        sealed = mk.authenc_seal(SUITE, enc, mac, b"key material")
        assert mk.authenc_open(SUITE, enc, mac, sealed) == b"key material"

    def test_tamper_detected(self):
        enc, mac = b"e" * 16, b"m" * 32
        sealed = bytearray(mk.authenc_seal(SUITE, enc, mac, b"key material"))
        sealed[0] ^= 1
        with pytest.raises(CipherError):
            mk.authenc_open(SUITE, enc, mac, bytes(sealed))

    def test_wrong_mac_key_detected(self):
        enc = b"e" * 16
        sealed = mk.authenc_seal(SUITE, enc, b"m" * 32, b"data")
        with pytest.raises(CipherError):
            mk.authenc_open(SUITE, enc, b"x" * 32, sealed)

    def test_short_input_rejected(self):
        with pytest.raises(CipherError):
            mk.authenc_open(SUITE, b"e" * 16, b"m" * 32, b"tiny")

    @given(st.binary(max_size=500))
    @settings(max_examples=25)
    def test_roundtrip_random(self, payload):
        enc, mac = b"e" * 16, b"m" * 32
        assert mk.authenc_open(SUITE, enc, mac, mk.authenc_seal(SUITE, enc, mac, payload)) == payload
