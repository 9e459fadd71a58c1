"""Unit tests for the data-plane fast-path building blocks.

Covers the pieces the record layers now lean on per record:
:class:`repro.recbuf.RecordBuffer` (cursor-based receive buffer),
:class:`repro.crypto.hmaccache.CachedHmacSha256` (precomputed HMAC key
schedule), the :class:`repro.crypto.fastcipher.ShaCtrCipher` keystream
(chunk boundaries, memoryview inputs, memoization), and — critically —
that every per-key cache is invalidated on re-key.
"""

from __future__ import annotations

import gc
import hashlib
import hmac

import pytest

from repro.crypto import fastcipher
from repro.crypto.fastcipher import ShaCtrCipher, clear_keystream_cache
from repro.crypto.hmaccache import CachedHmacSha256, hmac_sha256
from repro.mctls import keys as mk
from repro.mctls.contexts import Permission
from repro.mctls.record import (
    APPLICATION_DATA,
    McTLSRecordError,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    split_records,
)
from repro.recbuf import RecordBuffer
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256 as SUITE

SECRET, RC, RS = b"S" * 48, b"c" * 32, b"s" * 32


# -- RecordBuffer ------------------------------------------------------------


class TestRecordBuffer:
    def test_append_len_bool(self):
        buf = RecordBuffer()
        assert len(buf) == 0 and not buf
        buf.append(b"abc")
        buf.append(b"defg")
        assert len(buf) == 7 and buf

    def test_take_and_consume_advance_the_cursor(self):
        buf = RecordBuffer()
        buf.append(b"hello world")
        buf.consume(6)
        assert buf.take(5) == b"world"
        assert len(buf) == 0

    def test_take_copies_are_independent(self):
        buf = RecordBuffer()
        buf.append(bytearray(b"xyz"))
        out = buf.take(3)
        buf.append(b"123")
        assert out == b"xyz"
        assert bytes(out) == out  # immutable copy, safe to retain

    def test_unpack_from_view(self):
        from struct import Struct

        header = Struct(">BH")
        buf = RecordBuffer()
        buf.append(b"\x00" + header.pack(7, 513) + b"rest")
        buf.consume(1)
        assert header.unpack_from(buf.data, buf.pos) == (7, 513)

    def test_fully_consumed_buffer_resets_on_append(self):
        buf = RecordBuffer()
        buf.append(b"abcd")
        buf.take(4)
        buf.append(b"ef")
        assert buf.pos == 0 and bytes(buf.data) == b"ef"

    def test_large_consumed_prefix_is_compacted(self):
        buf = RecordBuffer()
        buf.append(b"x" * (1 << 17))
        buf.consume((1 << 17) - 3)
        buf.append(b"yz")
        assert buf.take(5) == b"xxxyz"
        assert buf.pos <= 5  # the 128 KiB prefix was reclaimed

    def test_clear(self):
        buf = RecordBuffer()
        buf.append(b"junk")
        buf.clear()
        assert len(buf) == 0 and buf.pos == 0

    def test_interleaved_appends_and_reads(self):
        buf = RecordBuffer()
        expected = b""
        out = b""
        for i in range(50):
            chunk = bytes([i]) * (i % 7 + 1)
            buf.append(chunk)
            expected += chunk
            if i % 3 == 0:
                out += buf.take(min(len(buf), i % 5 + 1))
        out += buf.take(len(buf))
        assert out == expected


# -- CachedHmacSha256 --------------------------------------------------------


class TestCachedHmac:
    @pytest.mark.parametrize(
        "key", [b"", b"k", b"k" * 32, b"k" * 64, b"key longer than the block" * 4]
    )
    def test_matches_stdlib_hmac(self, key):
        data = b"the quick brown fox"
        expected = hmac.new(key, data, hashlib.sha256).digest()
        assert CachedHmacSha256(key).digest(data) == expected
        assert hmac_sha256(key, data) == expected

    def test_multi_part_digest_equals_concatenation(self):
        ctx = CachedHmacSha256(b"k" * 32)
        parts = (b"seq-and-header", b"payload bytes", b"")
        assert ctx.digest(*parts) == ctx.digest(b"".join(parts))

    def test_context_is_reusable(self):
        ctx = CachedHmacSha256(b"k" * 32)
        first = ctx.digest(b"one")
        second = ctx.digest(b"two")
        assert first == ctx.digest(b"one")
        assert second != first

    def test_one_shot_form_keeps_no_key_alive(self):
        """Key-material MAC keys are single-use: the functional form must
        not keep their key schedules in process memory after the call."""

        def live_schedules():
            return sum(isinstance(o, CachedHmacSha256) for o in gc.get_objects())

        gc.collect()
        before = live_schedules()
        for i in range(300):
            hmac_sha256(i.to_bytes(4, "big"), b"data")
        gc.collect()
        assert live_schedules() == before


# -- ShaCtrCipher ------------------------------------------------------------


def _naive_shactr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Reference implementation: block i = SHA256(key || nonce || i)."""
    stream = b""
    for i in range((len(data) + 31) // 32):
        stream += hashlib.sha256(key + nonce + i.to_bytes(8, "big")).digest()
    return bytes(a ^ b for a, b in zip(data, stream))


class TestShaCtr:
    KEY = bytes(range(16))
    NONCE = bytes(range(16, 32))

    @pytest.mark.parametrize(
        "size",
        [0, 1, 31, 32, 33, 352, 4095, 4096, 4097, 65535, 65536, 65537, 131073],
    )
    def test_matches_reference_across_chunk_boundaries(self, size):
        clear_keystream_cache()
        data = bytes((i * 37 + 11) & 0xFF for i in range(size))
        cipher = ShaCtrCipher(self.KEY)
        assert cipher.xor(self.NONCE, data) == _naive_shactr(self.KEY, self.NONCE, data)

    def test_xor_is_an_involution(self):
        cipher = ShaCtrCipher(self.KEY)
        data = b"round trip" * 100
        assert cipher.xor(self.NONCE, cipher.xor(self.NONCE, data)) == data

    def test_memoryview_inputs_match_bytes(self):
        cipher = ShaCtrCipher(self.KEY)
        data = bytes(range(256)) * 3
        assert cipher.xor(memoryview(self.NONCE), memoryview(data)) == cipher.xor(
            self.NONCE, data
        )

    def test_keystream_memo_hit_equals_recompute(self):
        clear_keystream_cache()
        data = b"z" * 300
        hit = ShaCtrCipher(self.KEY).xor(self.NONCE, data)  # miss: fills memo
        again = ShaCtrCipher(self.KEY).xor(self.NONCE, data)  # hit: same bytes
        clear_keystream_cache()
        fresh = ShaCtrCipher(self.KEY).xor(self.NONCE, data)
        assert hit == again == fresh

    def test_keystream_memo_distinguishes_keys_and_nonces(self):
        clear_keystream_cache()
        data = bytes(64)
        a = ShaCtrCipher(self.KEY).xor(self.NONCE, data)
        b = ShaCtrCipher(bytes(16)).xor(self.NONCE, data)
        c = ShaCtrCipher(self.KEY).xor(bytes(16), data)
        assert len({a, b, c}) == 3

    def test_keystream_memo_stays_bounded(self):
        clear_keystream_cache()
        cipher = ShaCtrCipher(self.KEY)
        for i in range(fastcipher._KEYSTREAM_CACHE_MAX + 50):
            cipher.xor(i.to_bytes(16, "big"), b"x")
        assert len(fastcipher.KEYSTREAM_POOL) <= fastcipher._KEYSTREAM_CACHE_MAX

    def test_oversized_streams_are_not_cached(self):
        clear_keystream_cache()
        ShaCtrCipher(self.KEY).xor(self.NONCE, bytes(fastcipher._CACHEABLE_BYTES + 1))
        assert len(fastcipher.KEYSTREAM_POOL) == 0


# -- cache invalidation on re-key -------------------------------------------


def _layer(is_client: bool, secret: bytes = SECRET) -> McTLSRecordLayer:
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(SUITE)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(secret, RC, RS))
    layer.install_context_keys(1, mk.ckd_context_keys(secret, RC, RS, 1))
    layer.activate_write()
    layer.activate_read()
    return layer


def _roundtrip(client: McTLSRecordLayer, server: McTLSRecordLayer, payload: bytes):
    server.feed(client.encode(APPLICATION_DATA, payload, 1))
    return server.read_record()


class TestRekeyInvalidation:
    def test_install_context_keys_drops_cached_state(self):
        client, server = _layer(True), _layer(False)
        assert _roundtrip(client, server, b"before rekey").payload == b"before rekey"
        new_keys = mk.ckd_context_keys(b"T" * 48, RC, RS, 1)
        client.install_context_keys(1, new_keys)
        server.install_context_keys(1, new_keys)
        record = _roundtrip(client, server, b"after rekey")
        assert record.payload == b"after rekey"
        assert record.legally_modified is False

    def test_set_endpoint_keys_drops_cached_state(self):
        client, server = _layer(True), _layer(False)
        _roundtrip(client, server, b"warm the caches")
        new_ep = mk.derive_endpoint_keys(b"U" * 48, RC, RS)
        client.set_endpoint_keys(new_ep)
        server.set_endpoint_keys(new_ep)
        # Endpoint keys feed the MAC_endpoints slot of every context, so
        # the context-1 state must have been rebuilt on both sides.
        record = _roundtrip(client, server, b"after endpoint rekey")
        assert record.payload == b"after endpoint rekey"
        assert record.legally_modified is False

    def test_processor_install_drops_cached_state(self):
        client = _layer(True)
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.WRITE, mk.ckd_context_keys(SECRET, RC, RS, 1))
        proc.activate()
        wire = client.encode(APPLICATION_DATA, b"first", 1)
        ct, cid, frag, _ = next(split_records(bytearray(wire)))
        assert proc.open_record(ct, cid, frag).payload == b"first"

        new_secret = b"V" * 48
        client2 = _layer(True, secret=new_secret)
        proc.install(1, Permission.WRITE, mk.ckd_context_keys(new_secret, RC, RS, 1))
        proc.seq = 0  # fresh session on the rekeyed keys
        wire = client2.encode(APPLICATION_DATA, b"second", 1)
        ct, cid, frag, _ = next(split_records(bytearray(wire)))
        assert proc.open_record(ct, cid, frag).payload == b"second"

    def test_processor_opaque_contexts_are_cached_but_rekeyable(self):
        client = _layer(True)
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.NONE, None)
        proc.activate()
        wire = client.encode(APPLICATION_DATA, b"hidden", 1)
        ct, cid, frag, raw = next(split_records(bytearray(wire)))
        opened = proc.open_record(ct, cid, frag)
        assert opened.payload is None
        assert opened.permission is Permission.NONE
        # Granting keys later must bust the cached "opaque" verdict.
        proc.install(1, Permission.READ, mk.ckd_context_keys(SECRET, RC, RS, 1))
        proc.seq = 1  # continue the same sequence space
        wire = client.encode(APPLICATION_DATA, b"visible", 1)
        ct, cid, frag, _ = next(split_records(bytearray(wire)))
        assert proc.open_record(ct, cid, frag).payload == b"visible"

    def test_rebuild_without_write_permission_is_rejected(self):
        client = _layer(True)
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, mk.ckd_context_keys(SECRET, RC, RS, 1))
        proc.activate()
        wire = client.encode(APPLICATION_DATA, b"read only", 1)
        ct, cid, frag, _ = next(split_records(bytearray(wire)))
        opened = proc.open_record(ct, cid, frag)
        with pytest.raises(McTLSRecordError, match="lacks write permission"):
            proc.rebuild_record(opened, b"tampered")
