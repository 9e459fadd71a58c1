"""Unit and property tests for the wire-format reader/writer."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.wire import DecodeError, Reader, Writer


class TestWriter:
    def test_fixed_width_integers(self):
        data = Writer().u8(1).u16(2).u24(3).u32(4).u64(5).bytes()
        r = Reader(data)
        assert (r.u8(), r.u16(), r.u24(), r.u32(), r.u64()) == (1, 2, 3, 4, 5)
        assert r.exhausted

    def test_integer_overflow_rejected(self):
        with pytest.raises(ValueError):
            Writer().u8(256)
        with pytest.raises(ValueError):
            Writer().u16(1 << 16)
        with pytest.raises(ValueError):
            Writer().u24(1 << 24)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Writer().u8(-1)

    def test_vector_length_prefixes(self):
        data = Writer().vec8(b"ab").vec16(b"cd").vec24(b"ef").bytes()
        assert data == b"\x02ab\x00\x02cd\x00\x00\x02ef"

    def test_vector_too_long(self):
        with pytest.raises(ValueError):
            Writer().vec8(b"x" * 256)

    def test_strings_are_utf8(self):
        data = Writer().string8("héllo").bytes()
        assert Reader(data).string8() == "héllo"

    def test_len(self):
        w = Writer().u16(5).raw(b"abc")
        assert len(w) == 5


class TestReader:
    def test_truncated_read_raises(self):
        with pytest.raises(DecodeError):
            Reader(b"\x01").u16()

    def test_truncated_vector_raises(self):
        with pytest.raises(DecodeError):
            Reader(b"\x05ab").vec8()

    def test_expect_end(self):
        r = Reader(b"\x01\x02")
        r.u8()
        with pytest.raises(DecodeError):
            r.expect_end()
        r.u8()
        r.expect_end()

    def test_rest(self):
        r = Reader(b"abcdef")
        r.raw(2)
        assert r.rest() == b"cdef"
        assert r.exhausted

    def test_invalid_utf8_raises(self):
        data = Writer().vec8(b"\xff\xfe").bytes()
        with pytest.raises(DecodeError):
            Reader(data).string8()


@given(st.binary(max_size=300))
def test_vec16_roundtrip(data):
    assert Reader(Writer().vec16(data).bytes()).vec16() == data


@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=20))
def test_u16_sequence_roundtrip(values):
    w = Writer()
    for v in values:
        w.u16(v)
    r = Reader(w.bytes())
    assert [r.u16() for _ in values] == values
    assert r.exhausted


@given(st.binary(max_size=64), st.binary(max_size=64), st.text(max_size=30))
def test_mixed_roundtrip(a, b, s):
    data = Writer().vec8(a).vec24(b).string16(s).bytes()
    r = Reader(data)
    assert r.vec8() == a
    assert r.vec24() == b
    assert r.string16() == s
    r.expect_end()


# -- how much Python the handshake codecs run ---------------------------------

# Python calls into repro/wire.py during one in-memory full mcTLS handshake
# (K=4 contexts, one middlebox): a clock-free bound on the codec work.  The
# count depends on neither key size nor random bytes, so it is exact; the
# test allows 5 % over it.
WIRE_CALLS_PER_HANDSHAKE = 324


def _wire_calls_in_one_handshake(bed) -> int:
    from repro import wire
    from repro.experiments.harness import Mode, build_cell, drive_handshake

    parties = build_cell(bed, Mode.MCTLS, 4, 1)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == wire.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        drive_handshake(*parties)
    finally:
        sys.setprofile(None)
    return calls


def test_handshake_codec_calls_stay_bounded():
    from repro.crypto.dh import GROUP_TEST_512
    from repro.experiments.harness import TestBed

    bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512)
    first, second = (_wire_calls_in_one_handshake(bed) for _ in range(2))
    assert first == second
    assert first <= WIRE_CALLS_PER_HANDSHAKE * 105 // 100
