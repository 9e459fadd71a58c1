"""A fast SHA-256 counter-mode stream cipher for bulk simulation.

Pure-Python AES runs at tens of kilobytes per second, which makes the
paper's multi-megabyte transfer experiments impractically slow to simulate
with real bytes.  This module provides a keystream cipher built from
SHA-256: keystream block ``i`` is ``SHA256(key || nonce || I2OSP(i, 8))``,
XORed into the data via big-integer arithmetic (or NumPy when available,
see :func:`xor_bytes`).

It is a drop-in replacement for the AES-CTR path in a cipher suite: same
key sizes, same "IV + ciphertext" record geometry, symmetric encrypt and
decrypt.  It exists purely so benchmarks can move real bytes through the
real record protocol at tractable speed; it is *not* a vetted cipher.

**The keystream seam.**  :func:`keystream_blocks` is the only producer of
keystream blocks, and it alone decides *who computes* them.  For
``i < 2**32`` the counter's upper four bytes are zero, so block ``i`` is
``SHA256(seed || I2OSP(i, 4))`` with ``seed = key || nonce ||
00 00 00 00`` — exactly MGF1-SHA256 (RFC 8017 B.2.1).  When
:func:`repro.crypto.libcrypto.bind` resolves ``PKCS1_MGF1`` and
``EVP_MD_fetch`` (and the fetch of SHA-256 succeeds), a stream that
starts at block 0 and fits one chunk (``<= _CHUNK_BLOCKS`` blocks, far
below MGF1's 2**32 counter) is one foreign call; otherwise it is the
``copy / update / digest`` loop in :func:`_python_blocks`.  The choice is
made once, at import, from what the platform offers — there is no option
to set — and :data:`KEYSTREAM_BACKEND` (``"openssl-mgf1"`` or
``"python"``) only reports it.  A missing library, a missing symbol
(``PKCS1_MGF1`` is deprecated in OpenSSL 3.0, so a ``no-deprecated``
build lacks it) or a failed fetch selects the Python loop completely.

*Fallback and reference.*  The Python loop also serves, on every
platform, the later chunks of a message longer than one chunk (no record
path reaches them: ``MAX_FRAGMENT``), and it is the reference
``tests/test_keystream_native.py`` compares the native path against.
The block function is pinned by the golden-vector tests
(``tests/golden/record_vectors.json``), so both paths are bit-exact.

*Thread rule.*  ``ctypes`` drops the GIL around the foreign call, so
nothing mutable is shared: every call owns its output buffer, and
``PKCS1_MGF1`` allocates and frees its own digest context.  The only
module-level native state is the fetched ``EVP_MD*``, which is immutable
and never freed.

A non-zero return from libcrypto (allocation failure) raises
:class:`KeystreamError` — never a short or stale buffer; the record
ciphers translate it to their ``CipherError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import time as _time
from typing import Dict, Optional

from repro.crypto import libcrypto

try:  # NumPy ships with the scientific-python base image; gate it anyway.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on minimal images
    _np = None

# Keystream is generated and consumed ~64 KiB at a time: big enough to
# amortise the per-chunk big-integer XOR, small enough that peak memory
# stays bounded no matter how large the message is.
_CHUNK_BLOCKS = 2048
_CHUNK_BYTES = _CHUNK_BLOCKS * 32

# Counter encodings for every block a record-sized (< 64 KiB) message
# can need; larger messages fall back to encoding on the fly per chunk.
_COUNTER_BYTES = tuple(i.to_bytes(8, "big") for i in range(_CHUNK_BLOCKS))

_int_from_bytes = int.from_bytes

# Below the crossover the big-integer XOR wins (two int conversions
# beat NumPy's fixed frombuffer/tobytes overhead); above it NumPy's C
# loop is several times faster (typical host: 256 B bigint 1.2 µs vs
# numpy 1.5 µs; 2 KiB 8.7 µs vs 2.7 µs).
#
# The crossover is measured once at import because the true value moves
# with the interpreter, NumPy build, and CPU (a slow frombuffer pushes
# it past 1 KiB; a fast one pulls it under 256 B).  Both backends are
# bit-exact, so the only effect of the calibration is speed.


def _tight_best_ns(fn, reps: int = 48, rounds: int = 3) -> float:
    """Best-of-``rounds`` mean ns/call — small enough to run at import."""
    best = float("inf")
    for _ in range(rounds):
        start = _time.perf_counter_ns()
        for _ in range(reps):
            fn()
        elapsed = (_time.perf_counter_ns() - start) / reps
        if elapsed < best:
            best = elapsed
    return best


def _measured_numpy_crossover() -> int:
    """Smallest probed size at which the NumPy XOR beats the bigint XOR.

    Probes doubling sizes (~1 ms total at import).  Returns an
    effectively-infinite bound when NumPy is absent.  Nothing here can
    raise: the probes are equal-length ``bytes`` constants, which
    ``frombuffer`` always views as ``uint8``, ``^`` always combines and
    ``to_bytes`` always fits.
    """
    if _np is None:
        return 1 << 62
    for size in (128, 256, 512, 1024, 2048):
        data = b"\x5a" * size
        stream = b"\xa5" * size

        def _bigint():
            n = _int_from_bytes(data, "big") ^ _int_from_bytes(stream, "big")
            n.to_bytes(size, "big")

        def _numpy():
            a = _np.frombuffer(data, dtype=_np.uint8)
            b = _np.frombuffer(stream, dtype=_np.uint8)
            (a ^ b).tobytes()

        if _tight_best_ns(_numpy) < _tight_best_ns(_bigint):
            return size
    return 4096


_NUMPY_MIN_BYTES = _measured_numpy_crossover()


def xor_bytes(data, stream, size: Optional[int] = None) -> bytes:
    """XOR two equal-length bytes-likes, picking the fastest backend.

    Both backends are bit-exact (XOR is XOR); the golden vectors pin
    this.  ``size`` may be passed when the caller already knows the
    length.
    """
    if size is None:
        size = len(data)
    if _np is not None and size >= _NUMPY_MIN_BYTES:
        a = _np.frombuffer(data, dtype=_np.uint8)
        b = _np.frombuffer(stream, dtype=_np.uint8)
        return (a ^ b).tobytes()
    n = _int_from_bytes(data, "big") ^ _int_from_bytes(stream, "big")
    return n.to_bytes(size, "big")


# Keystream memo.  Every hop of a simulated mcTLS chain re-derives the
# same per-record keystream — the client encrypts under (key, nonce),
# then each middlebox decrypts under the *same* (key, nonce), and the
# server decrypts it once more.  The keystream is a pure function of
# (key, nonce, block count), so memoizing it turns every hop after the
# first into a dict hit.  This exploits the single-process simulation
# topology (a real distributed deployment recomputes at each host), which
# is exactly this cipher's charter: make in-process experiments fast.
# Bounded FIFO: only record-sized streams are cached, so worst-case
# memory with the defaults is _KEYSTREAM_CACHE_MAX * _CACHEABLE_BYTES
# = 4 MiB.
_KEYSTREAM_CACHE_MAX = 1024
_CACHEABLE_BYTES = 4096


class KeystreamPool:
    """Bounded FIFO pool of memoized keystreams with hit/miss accounting.

    :meth:`get` and :meth:`put` are the whole data-plane interface:
    :meth:`ShaCtrCipher.stream_for` keys its streams itself and never
    touches the store directly.

    Counter updates are plain int increments without a lock: the data
    plane is single-threaded per connection, and the counters are
    advisory (a torn read under races costs an off-by-one in a stat,
    never a wrong keystream).  :meth:`publish_to` folds the counters
    into an :class:`repro.core.Instruments` as ``keystream.pool.hit`` /
    ``keystream.pool.miss`` / ``keystream.pool.evict`` deltas.
    """

    __slots__ = (
        "max_entries",
        "cacheable_bytes",
        "hits",
        "misses",
        "evictions",
        "_streams",
        "_published",
    )

    def __init__(
        self,
        max_entries: int = _KEYSTREAM_CACHE_MAX,
        cacheable_bytes: int = _CACHEABLE_BYTES,
    ) -> None:
        self.max_entries = max_entries
        self.cacheable_bytes = cacheable_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._streams: Dict[tuple, bytes] = {}
        self._published = {"hit": 0, "miss": 0, "evict": 0}

    def __len__(self) -> int:
        return len(self._streams)

    def get(self, cache_key: tuple) -> Optional[bytes]:
        """The memoized keystream under ``cache_key`` or ``None``,
        counting the hit or miss."""
        stream = self._streams.get(cache_key)
        if stream is None:
            self.misses += 1
        else:
            self.hits += 1
        return stream

    def put(self, cache_key: tuple, stream: bytes, size: int) -> None:
        """Admit a keystream if the record is pool-sized, evicting FIFO."""
        if size > self.cacheable_bytes:
            return
        streams = self._streams
        if len(streams) >= self.max_entries:
            del streams[next(iter(streams))]
            self.evictions += 1
        streams[cache_key] = stream

    def stats(self) -> Dict[str, int]:
        return {
            "hit": self.hits,
            "miss": self.misses,
            "evict": self.evictions,
            "entries": len(self._streams),
            "max_entries": self.max_entries,
            "cacheable_bytes": self.cacheable_bytes,
        }

    def publish_to(self, instruments) -> None:
        """Fold counter deltas since the last publish into ``instruments``."""
        if instruments is None:
            return
        published = self._published
        for name, value in (
            ("hit", self.hits),
            ("miss", self.misses),
            ("evict", self.evictions),
        ):
            delta = value - published[name]
            if delta:
                instruments.inc(f"keystream.pool.{name}", delta)
                published[name] = value

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self._published = {"hit": 0, "miss": 0, "evict": 0}

    def clear(self) -> None:
        """Drop all streams (stats survive; see :meth:`reset_stats`)."""
        self._streams.clear()


KEYSTREAM_POOL = KeystreamPool()


def clear_keystream_cache() -> None:
    """Drop all memoized keystreams (for tests and fresh-state benchmarks)."""
    KEYSTREAM_POOL.clear()


class KeystreamError(Exception):
    """libcrypto reported a failure while generating keystream."""


_PTR, _LONG = ctypes.c_void_p, ctypes.c_long

# Every libcrypto symbol the seam uses: name -> (restype, argtypes).
_MGF1_SYMBOLS = {
    "EVP_MD_fetch": (_PTR, (_PTR, ctypes.c_char_p, ctypes.c_char_p)),
    "PKCS1_MGF1": (ctypes.c_int, (ctypes.c_char_p, _LONG, ctypes.c_char_p, _LONG, _PTR)),
}


def _bind_mgf1():
    """``(PKCS1_MGF1, EVP_MD* for SHA-256)``, or None for the Python loop.

    The digest is fetched once: with the unfetched ``EVP_sha256()``
    OpenSSL 3.0 re-fetches on every ``EVP_DigestInit_ex``, i.e. per block
    (265 vs 86 µs per 16 KiB stream on this host).
    """
    bound = libcrypto.bind(_MGF1_SYMBOLS)
    if bound is None:
        return None
    sha256 = bound["EVP_MD_fetch"](None, b"SHA256", None)
    if not sha256:
        return None
    return bound["PKCS1_MGF1"], sha256


_mgf1 = _bind_mgf1()

#: Who computes the keystream blocks on this platform — read-only, for
#: fingerprints, CI and docs.
KEYSTREAM_BACKEND = "python" if _mgf1 is None else "openssl-mgf1"

_MGF1_COUNTER_HIGH = bytes(4)


def _python_blocks(key: bytes, nonce, first: int, count: int) -> bytes:
    """Blocks ``first .. first+count-1`` from the definition: the
    ``key || nonce`` prefix is hashed once and the context copied per
    counter.  Joined from a list — a preallocated ``bytearray`` with
    slice assignment measured ~24% slower."""
    last = first + count
    if last <= _CHUNK_BLOCKS:
        counters = _COUNTER_BYTES[first:last]
    else:
        counters = [c.to_bytes(8, "big") for c in range(first, last)]
    base = hashlib.sha256(key)
    base.update(nonce)
    copy = base.copy
    blocks = []
    append = blocks.append
    for counter in counters:
        ctx = copy()
        ctx.update(counter)
        append(ctx.digest())
    return b"".join(blocks)


def keystream_blocks(key: bytes, nonce, first: int, count: int) -> bytes:
    """Keystream blocks ``first .. first+count-1`` for ``(key, nonce)``.

    One ``PKCS1_MGF1`` call when libcrypto offers it and the stream
    starts at block 0 and fits one chunk; :func:`_python_blocks`
    otherwise.  ``nonce`` may be any bytes-like.
    """
    mgf1 = _mgf1
    if mgf1 is None or first or count > _CHUNK_BLOCKS:
        return _python_blocks(key, nonce, first, count)
    generate, sha256 = mgf1
    seed = b"".join((key, nonce, _MGF1_COUNTER_HIGH))
    size = count << 5
    out = ctypes.create_string_buffer(size)
    if generate(out, size, seed, len(seed), sha256) != 0:
        raise KeystreamError("PKCS1_MGF1 failed")
    return out.raw


class ShaCtrCipher:
    """Keystream cipher: block i = SHA256(key || nonce || counter)."""

    block_size = 32

    __slots__ = ("_key",)

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise ValueError("ShaCtr key must be 16 or 32 bytes")
        self._key = key

    def keystream(self, nonce, length: int) -> bytes:
        stream = keystream_blocks(self._key, nonce, 0, (length + 31) >> 5)
        return stream[:length] if length & 31 else stream

    def stream_for(self, nonce, size: int) -> bytes:
        """Full-block keystream covering ``size`` bytes, through the pool.

        Returns the *untruncated* stream (``ceil(size/32) * 32`` bytes);
        callers slice.  Single-chunk sizes only — :meth:`xor` chunks
        anything larger itself.  A stream too large for the pool to admit
        is generated without probing it.
        """
        nblocks = (size + 31) >> 5
        pool = KEYSTREAM_POOL
        if size > pool.cacheable_bytes:
            return keystream_blocks(self._key, nonce, 0, nblocks)
        if type(nonce) is not bytes:
            nonce = bytes(nonce)
        cache_key = (self._key, nonce, nblocks)
        stream = pool.get(cache_key)
        if stream is None:
            stream = keystream_blocks(self._key, nonce, 0, nblocks)
            pool.put(cache_key, stream, size)
        return stream

    def xor(self, nonce, data) -> bytes:
        """Encrypt or decrypt ``data`` (the operation is an involution).

        Accepts any bytes-like ``nonce``/``data`` (the record layers pass
        ``memoryview`` fragments).  Works in bounded-size chunks — one
        chunk of keystream exists at a time instead of a block list plus
        a full-length stream copy.
        """
        size = len(data)
        if not size:
            return b""
        if size <= _CHUNK_BYTES:
            stream = self.stream_for(nonce, size)
            if size & 31:
                stream = stream[:size]
            return xor_bytes(data, stream, size)
        out = bytearray(size)
        view = memoryview(data)
        for start in range(0, size, _CHUNK_BYTES):
            piece = view[start : start + _CHUNK_BYTES]
            length = len(piece)
            stream = keystream_blocks(self._key, nonce, start >> 5, (length + 31) >> 5)
            if length & 31:
                stream = stream[:length]
            out[start : start + length] = xor_bytes(piece, stream, length)
        return bytes(out)
