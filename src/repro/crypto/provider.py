"""Pluggable crypto provider layer for the record data plane.

The per-record crypto floor is one HMAC verification plus one
keystream's worth of cipher blocks per record.  This module puts the
record primitives — keystream generation and record MAC — behind a
small provider seam:

* :data:`PURE` — the existing zero-dependency implementation
  (``ShaCtrCipher`` keystreams, :class:`~repro.crypto.hmaccache.
  CachedHmacSha256` MACs).  Default; its wire bytes are pinned by the
  golden vectors and never change.
* :data:`OPENSSL` — backed by the ``cryptography`` package's OpenSSL
  bindings when importable: AES-128-CTR and ChaCha20 keystreams plus a
  ``cryptography.hazmat`` HMAC with cached cloned contexts.

The provider choice is **not** wire format: a suite's bytes are fully
determined by its keystream definition and HMAC-SHA256, both of which
are backend-independent for a given suite.  What the provider changes is
who computes them.

Why AES-CTR goes through a persistent ECB context
-------------------------------------------------

The naive route — one ``Cipher(AES, CTR(nonce))`` context per record —
costs ~28 µs per record in context setup alone, *slower* than the pure
SHA-CTR path it is meant to replace.  But CTR mode is just ECB over
counter blocks: keystream block ``i`` is ``AES-ECB(key, nonce + i)``
with the 16-byte nonce treated as a big-endian 128-bit counter.  So the
generator keeps ONE persistent ECB encryptor per key and feeds it a
record's counter blocks, assembled as one big integer, in a single
``update`` call.
ChaCha20 has no such decomposition in ``cryptography``'s API (the
context binds the nonce), so it pays the per-record context price — it
is negotiable and correct, and documented as winning only on large
records.

Keystream pooling becomes provider-aware here: each generator measures
its own generation cost once and asks the shared
:class:`~repro.crypto.fastcipher.KeystreamPool` whether memoization is
worth it (:meth:`KeystreamPool.worthwhile`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Optional

from repro.crypto.fastcipher import KEYSTREAM_POOL, ShaCtrCipher
from repro.crypto.hmaccache import CachedHmacSha256

try:  # OpenSSL bindings; the provider gates itself when absent.
    from cryptography.hazmat.primitives import hashes as _hazmat_hashes
    from cryptography.hazmat.primitives import hmac as _hazmat_hmac
    from cryptography.hazmat.primitives.ciphers import (
        Cipher as _Cipher,
        algorithms as _algorithms,
        modes as _modes,
    )

    _CRYPTOGRAPHY_OK = True
except ImportError:  # pragma: no cover - cryptography ships with the image
    _CRYPTOGRAPHY_OK = False

_MASK128 = (1 << 128) - 1

# The AES-CTR block offsets 0, 1, 2, … as one big integer, a 128-bit
# lane per block: the nonce repeated over the top ``n`` lanes plus this
# ramp is a record's whole CTR input in one C-speed addition.  2048
# lanes cover any record (MAX_FRAGMENT is 1152 blocks).
_CTR_LANES = 2048
_CTR_RAMP = int.from_bytes(
    b"".join(i.to_bytes(16, "big") for i in range(_CTR_LANES)), "big"
)

# A zero buffer ChaCha20 encrypts to expose its raw keystream.
_ZEROS = bytes(1 << 12)


def _best_ns(fn, reps: int = 32, rounds: int = 3) -> float:
    """Best-of-``rounds`` mean ns per call — tiny, import-time-safe."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        elapsed = (time.perf_counter_ns() - start) / reps
        if elapsed < best:
            best = elapsed
    return best


class OpenSSLHmacSha256:
    """HMAC-SHA256 via ``cryptography.hazmat`` with a cached cloned context.

    The keyed context is built once per key and ``copy()``-ed per digest
    — the same RFC 2104 precomputation trick as
    :class:`~repro.crypto.hmaccache.CachedHmacSha256`, expressed through
    OpenSSL's HMAC instead of two hashlib contexts.  Output bytes are
    identical; only the backend differs.
    """

    __slots__ = ("_base",)

    def __init__(self, key: bytes) -> None:
        self._base = _hazmat_hmac.HMAC(bytes(key), _hazmat_hashes.SHA256())

    def digest(self, *parts) -> bytes:
        ctx = self._base.copy()
        for part in parts:
            ctx.update(part if type(part) is bytes else bytes(part))
        return ctx.finalize()


class KeystreamGenerator:
    """Per-key keystream source a :class:`StreamRecordCipher` draws from.

    ``keystream(nonce, length)`` returns at least ``length`` bytes
    (rounded up to whole cipher blocks); callers slice.
    """

    block_size = 16
    _pool_tag = b""
    # Measured per-class generation cost of one 352 B keystream (the
    # 256 B-payload mcTLS record body), filled lazily by _decide_pooling.
    _gen_cost_ns: Optional[float] = None

    def __init__(self, key: bytes) -> None:
        self._key = bytes(key)
        self.pooled = self._decide_pooling()

    # -- subclass API ---------------------------------------------------

    def keystream(self, nonce: bytes, length: int) -> bytes:
        raise NotImplementedError

    # -- pooled access --------------------------------------------------

    def _decide_pooling(self) -> bool:
        cls = type(self)
        if cls._gen_cost_ns is None:
            try:
                nonce = b"\x00" * 16
                cls._gen_cost_ns = _best_ns(lambda: self.keystream(nonce, 352))
            except Exception:  # pragma: no cover - defensive
                cls._gen_cost_ns = float("inf")
        return KEYSTREAM_POOL.worthwhile(cls._gen_cost_ns)

    def stream_for(self, nonce: bytes, size: int) -> bytes:
        """Full-block keystream, memoized through the shared pool when
        this generator's measured cost clears the pool's hit cost."""
        if type(nonce) is not bytes:
            nonce = bytes(nonce)
        nblocks = -(-size // self.block_size)
        if not self.pooled:
            return self.keystream(nonce, nblocks * self.block_size)
        pool = KEYSTREAM_POOL
        cache_key = (self._pool_tag, self._key, nonce, nblocks)
        stream = pool.get(cache_key)
        if stream is None:
            stream = self.keystream(nonce, nblocks * self.block_size)
            if type(stream) is not bytes:
                stream = bytes(stream)
            pool.put(cache_key, stream, size)
        return stream


class AesCtrKeystream(KeystreamGenerator):
    """AES-128-CTR keystream via one persistent OpenSSL ECB context.

    The 16-byte record nonce is the initial 128-bit big-endian counter
    block; block ``i`` of the keystream is ``AES-ECB(key, (nonce + i)
    mod 2^128)``.  A record's counter blocks are assembled as one big
    integer (a run that would wrap 2^128 falls back to exact per-block
    arithmetic) and encrypted in one ``update``.
    """

    block_size = 16
    _pool_tag = b"aes128-ctr"

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128-CTR key must be 16 bytes")
        self._ecb = _Cipher(_algorithms.AES(bytes(key)), _modes.ECB()).encryptor()
        super().__init__(key)

    @staticmethod
    def _counter_blocks(nonce: bytes, nblocks: int) -> bytes:
        base = int.from_bytes(nonce, "big")
        if nblocks > _CTR_LANES or base + nblocks > _MASK128:
            return b"".join(
                ((base + i) & _MASK128).to_bytes(16, "big") for i in range(nblocks)
            )
        ramp = _CTR_RAMP >> 128 * (_CTR_LANES - nblocks)
        return (int.from_bytes(nonce * nblocks, "big") + ramp).to_bytes(
            16 * nblocks, "big"
        )

    def keystream(self, nonce: bytes, length: int) -> bytes:
        if type(nonce) is not bytes:
            nonce = bytes(nonce)
        nblocks = -(-length // 16)
        if nblocks <= 1:
            return self._ecb.update(nonce)
        return self._ecb.update(self._counter_blocks(nonce, nblocks))


class ChaCha20Keystream(KeystreamGenerator):
    """ChaCha20 keystream via per-record OpenSSL contexts.

    ``cryptography`` binds the 16-byte nonce (64-bit counter || 64-bit
    IV, the original DJB layout) at context construction, so there is no
    persistent-context trick like AES-ECB's: each record pays ~15 µs of
    context setup.  The suite exists for completeness — it wins only
    once records are large enough for C-speed bulk throughput to
    amortise the setup — and the pool keeps cross-hop re-derivations
    cheap.  The mcTLS key schedule carves 16-byte bulk keys
    (``ENC_KEY_LEN``); ChaCha20 needs 32, so the generator expands the
    suite key with SHA-256 — simulation-grade, like SHA-CTR itself.
    """

    block_size = 64
    _pool_tag = b"chacha20"

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        self._key32 = key if len(key) == 32 else hashlib.sha256(key).digest()
        super().__init__(key)

    def keystream(self, nonce: bytes, length: int) -> bytes:
        enc = _Cipher(
            _algorithms.ChaCha20(self._key32, bytes(nonce)), mode=None
        ).encryptor()
        if length <= len(_ZEROS):
            return enc.update(_ZEROS[:length])
        return enc.update(bytes(length))


class CryptoProvider:
    """A bundle of record-plane primitive implementations."""

    name = "base"
    available = True

    def mac_context(self, key: bytes):
        """Per-key record-MAC object exposing ``digest(*parts)``.

        Every provider's MAC is HMAC-SHA256 — identical bytes — so this
        only chooses *who* computes it.  The cached-context
        implementation is shared: all MAC slots (TLS record MAC and the
        three mcTLS slots) route through here.
        """
        return CachedHmacSha256(key)

    def hmac(self, key: bytes, *parts) -> bytes:
        return self.mac_context(key).digest(*parts)


class PurePythonProvider(CryptoProvider):
    """The zero-dependency provider: SHA-CTR keystreams, hashlib HMAC."""

    name = "pure"

    def shactr_keystream(self, key: bytes) -> ShaCtrCipher:
        return ShaCtrCipher(key)


class OpenSSLProvider(CryptoProvider):
    """OpenSSL-backed provider via the ``cryptography`` package."""

    name = "openssl"
    available = _CRYPTOGRAPHY_OK

    def __init__(self) -> None:
        self._mac_cls = None

    def _require(self) -> None:
        if not self.available:
            raise RuntimeError(
                "OpenSSL provider unavailable: the 'cryptography' package "
                "is not importable"
            )

    def mac_context(self, key: bytes):
        cls = self._mac_cls
        if cls is None:
            cls = self._mac_cls = self._pick_mac_backend()
        return cls(key)

    def _pick_mac_backend(self):
        if not self.available:
            return CachedHmacSha256
        # Measure both cached-context backends once; identical bytes
        # (HMAC-SHA256 is HMAC-SHA256), so this is purely a speed
        # decision — on CPython the hashlib-based CachedHmacSha256
        # usually wins by ~10 % because hashlib is itself OpenSSL-backed
        # with less Python wrapping.
        key = b"\x00" * 32
        data = b"\x5a" * 352
        hashlib_ctx = CachedHmacSha256(key)
        hazmat_ctx = OpenSSLHmacSha256(key)
        t_hashlib = _best_ns(lambda: hashlib_ctx.digest(data))
        t_hazmat = _best_ns(lambda: hazmat_ctx.digest(data))
        return OpenSSLHmacSha256 if t_hazmat < t_hashlib else CachedHmacSha256

    def aes_ctr_keystream(self, key: bytes) -> AesCtrKeystream:
        self._require()
        return AesCtrKeystream(key)

    def chacha20_keystream(self, key: bytes) -> ChaCha20Keystream:
        self._require()
        return ChaCha20Keystream(key)


PURE = PurePythonProvider()
OPENSSL = OpenSSLProvider()

PROVIDERS: Dict[str, CryptoProvider] = {PURE.name: PURE, OPENSSL.name: OPENSSL}

DEFAULT_PROVIDER = PURE


def get_provider(name: str) -> CryptoProvider:
    try:
        return PROVIDERS[name]
    except KeyError:
        raise KeyError(f"unknown crypto provider {name!r}") from None
