"""A fast SHA-256 counter-mode stream cipher for bulk simulation.

Pure-Python AES runs at tens of kilobytes per second, which makes the
paper's multi-megabyte transfer experiments impractically slow to simulate
with real bytes.  This module provides a keystream cipher built from
``hashlib.sha256`` (which runs at C speed): keystream block ``i`` is
``SHA256(key || nonce || counter_i)``, XORed into the data via big-integer
arithmetic (or NumPy when available, see :func:`xor_bytes`).

It is a drop-in replacement for the AES-CTR path in a cipher suite: same
key sizes, same "IV + ciphertext" record geometry, symmetric encrypt and
decrypt.  It exists purely so benchmarks can move real bytes through the
real record protocol at tractable speed; it is *not* a vetted cipher.

The block function is pinned by the golden-vector tests
(``tests/golden/record_vectors.json``), so optimisations here must be
bit-exact.  The hot loop hashes the ``key || nonce`` prefix once into a
SHA-256 context and ``.copy()``-es it per counter block instead of
rehashing the prefix; counter encodings are precomputed for the record
range.  The blocks are assembled with ``b"".join`` over a list — the
preallocated-``bytearray`` slice-assign variant was measured ~24%
slower (41.7 vs 54.9 MB/s on 1.4 KB records), because the join is a
single C pass while slice assignment pays per-block interpreter work.
"""

from __future__ import annotations

import hashlib
import time as _time
from typing import Dict, Optional

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
    effectively-infinite bound when NumPy is absent and the old 512 B
    default if calibration itself fails.
    """
    if _np is None:
        return 1 << 62
    try:
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
    except Exception:  # pragma: no cover - defensive
        return 512


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

# A pooled hit must beat regeneration by this factor to justify the
# admission bookkeeping and memory the pool spends on misses.
_POOL_WIN_FACTOR = 2.0


class KeystreamPool:
    """Bounded FIFO pool of memoized keystreams with hit/miss accounting.

    :meth:`get` and :meth:`put` are the whole data-plane interface: the
    keystream sources key their streams themselves and never touch the
    store directly.

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
        "_hit_cost_ns",
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
        self._hit_cost_ns: Optional[float] = None

    def __len__(self) -> int:
        return len(self._streams)

    # -- provider awareness --------------------------------------------

    def hit_cost_ns(self) -> float:
        """Measured cost of one pool hit (dict get + accounting), cached.

        Measured on a scratch dict so the calibration never perturbs the
        live store or the hit/miss counters.
        """
        if self._hit_cost_ns is None:
            probe = {("k", b"n", 11): b"\x00" * 352}
            key = ("k", b"n", 11)

            def _hit():
                probe.get(key)

            self._hit_cost_ns = _tight_best_ns(_hit) + 50.0  # +accounting
        return self._hit_cost_ns

    def worthwhile(self, gen_cost_ns: float) -> bool:
        """Should a keystream source with this per-stream generation
        cost memoize through the pool?

        This is where the pool is provider-aware: the pure SHA-CTR
        generator (~8 µs/stream) always clears the bar, while OpenSSL's
        fused AES-CTR generation (~0.5 µs/record) is cheaper than a hit
        and self-disables.
        """
        return gen_cost_ns > _POOL_WIN_FACTOR * self.hit_cost_ns()

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


class ShaCtrCipher:
    """Keystream cipher: block i = SHA256(key || nonce || counter)."""

    block_size = 32

    __slots__ = ("_key", "_key_ctx")

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise ValueError("ShaCtr key must be 16 or 32 bytes")
        self._key = key
        # The key prefix of every block hash, absorbed once per cipher.
        self._key_ctx = hashlib.sha256(key)

    def _base_ctx(self, nonce):
        """SHA-256 context primed with ``key || nonce``."""
        ctx = self._key_ctx.copy()
        ctx.update(nonce)
        return ctx

    @staticmethod
    def _stream_chunk(base, first_block: int, length: int) -> bytes:
        nblocks = (length + 31) >> 5
        last = first_block + nblocks
        if last <= _CHUNK_BLOCKS:
            counters = _COUNTER_BYTES[first_block:last]
        else:
            counters = [c.to_bytes(8, "big") for c in range(first_block, last)]
        copy = base.copy
        blocks = []
        append = blocks.append
        for counter in counters:
            ctx = copy()
            ctx.update(counter)
            append(ctx.digest())
        stream = b"".join(blocks)
        return stream[:length] if length & 31 else stream

    def keystream(self, nonce: bytes, length: int) -> bytes:
        return self._stream_chunk(self._base_ctx(nonce), 0, length)

    def stream_for(self, nonce: bytes, size: int) -> bytes:
        """Full-block keystream covering ``size`` bytes, through the pool.

        Returns the *untruncated* stream (``ceil(size/32) * 32`` bytes);
        callers slice.  Single-chunk sizes only — :meth:`xor` chunks
        anything larger itself.
        """
        nblocks = (size + 31) >> 5
        if type(nonce) is not bytes:
            nonce = bytes(nonce)
        cache_key = (self._key, nonce, nblocks)
        pool = KEYSTREAM_POOL
        stream = pool.get(cache_key)
        if stream is None:
            base = self._key_ctx.copy()
            base.update(nonce)
            copy = base.copy
            blocks = []
            append = blocks.append
            for counter in _COUNTER_BYTES[:nblocks]:
                ctx = copy()
                ctx.update(counter)
                append(ctx.digest())
            stream = b"".join(blocks)
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
        base = self._key_ctx.copy()
        base.update(nonce)
        out = bytearray(size)
        view = memoryview(data)
        for start in range(0, size, _CHUNK_BYTES):
            piece = view[start : start + _CHUNK_BYTES]
            stream = self._stream_chunk(base, start >> 5, len(piece))
            out[start : start + len(piece)] = xor_bytes(piece, stream, len(piece))
        return bytes(out)
