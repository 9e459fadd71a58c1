"""The TLS 1.2 pseudorandom function (RFC 5246 §5) with SHA-256.

``PRF(secret, label, seed)`` = P_SHA256(secret, label || seed), the
HMAC-based data-expansion function.  mcTLS keys everything — master
secrets, connection keys, partial context keys and final context keys —
through this PRF, exactly as TLS 1.2 does.
"""

from __future__ import annotations

from repro.crypto.hmaccache import CachedHmacSha256
from repro.crypto.opcount import count_op


def p_sha256(secret, seed: bytes, length: int) -> bytes:
    """The P_hash data-expansion function with SHA-256 (RFC 5246 §5).

    ``secret`` is the key bytes, or its :class:`CachedHmacSha256` when
    the caller derives several blocks under one secret: one key schedule
    per secret, cloned per digest instead of re-derived for every block
    or A(i) / output-block pair (identical bytes to ``hmac.new``).
    """
    ctx = secret if isinstance(secret, CachedHmacSha256) else CachedHmacSha256(secret)
    return ctx.expand(seed, length)


def prf(secret: bytes, label: bytes, seed: bytes, length: int) -> bytes:
    """TLS 1.2 PRF.  Counted as one logical ``hash`` operation (Table 3)."""
    count_op("hash")
    return p_sha256(secret, label + seed, length)


def prf_key_block(secret: bytes, label: bytes, seed: bytes, length: int) -> bytes:
    """PRF invocation that derives key material (counted as ``key_gen``)."""
    count_op("key_gen")
    return p_sha256(secret, label + seed, length)
