"""Per-key cached HMAC-SHA256.

``hmac.new(key, data, sha256)`` pays for two context constructions and
two key-pad compressions on every call.  On the record data plane the
*keys* are stable for the lifetime of a connection while the *data*
changes per record, so the inner/outer pads can be absorbed into two
SHA-256 contexts exactly once per key and ``.copy()``-ed per record —
RFC 2104's precomputation trick.  Measured on the 1.4 KB record MAC
input this is ~1.6x faster than ``hmac.new``; output bytes are
identical (pinned by the golden-vector tests).

:class:`CachedHmacSha256` is the per-key object: record layers hold one
per MAC slot, and a party derives every PRF block of one secret under
one (:meth:`CachedHmacSha256.expand` is the PRF's P_SHA256).
:func:`hmac_sha256` is the one-shot functional form for a key used
once.  Nothing is cached at module level: a key schedule lives only as
long as the object that owns it.
"""

from __future__ import annotations

import hashlib

_BLOCK_SIZE = 64  # SHA-256 compression block
_IPAD_TRANS = bytes(b ^ 0x36 for b in range(256))
_OPAD_TRANS = bytes(b ^ 0x5C for b in range(256))

DIGEST_SIZE = 32


class CachedHmacSha256:
    """HMAC-SHA256 with the key schedule precomputed once.

    ``digest(*parts)`` MACs the concatenation of ``parts`` without
    actually concatenating them — callers pass (header, payload) and
    skip the per-record ``bytes`` join.  Parts may be any bytes-like
    object (``bytes``, ``bytearray``, ``memoryview``).
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK_SIZE:
            key = hashlib.sha256(key).digest()
        padded = key.ljust(_BLOCK_SIZE, b"\x00")
        self._inner = hashlib.sha256(padded.translate(_IPAD_TRANS))
        self._outer = hashlib.sha256(padded.translate(_OPAD_TRANS))

    def digest(self, *parts) -> bytes:
        inner = self._inner.copy()
        for part in parts:
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def expand(self, seed: bytes, length: int) -> bytes:
        """P_SHA256(key, seed) (RFC 5246 §5), cut to ``length`` bytes.

        The same HMACs as :meth:`digest`, with the clones inlined: the
        PRF runs two per 32-byte output block, so a frame per HMAC is a
        quarter of its cost.
        """
        inner, outer = self._inner, self._outer
        output = bytearray()
        a = seed
        while len(output) < length:
            h = inner.copy()
            h.update(a)
            o = outer.copy()
            o.update(h.digest())
            a = o.digest()
            h = inner.copy()
            h.update(a)
            h.update(seed)
            o = outer.copy()
            o.update(h.digest())
            output += o.digest()
        return bytes(output[:length])


def hmac_sha256(key: bytes, *parts) -> bytes:
    """``hmac.new(key, b"".join(parts), sha256).digest()``, one shot: the
    key schedule is built for this call and dropped with it."""
    return CachedHmacSha256(key).digest(*parts)
