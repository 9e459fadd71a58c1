"""The mcTLS key schedule (§3.3–§3.5, Figure 1).

Key material in an mcTLS session:

* ``K_endpoints`` — encryption + MAC keys per direction shared by the two
  endpoints only; protects context-0 (control) records and provides the
  endpoint MAC on every application record.
* per context ``c``:

  - ``K_readers[c]`` — encryption keys and reader-MAC keys per direction,
    held by endpoints, writers and readers of ``c``;
  - ``K_writers[c]`` — writer-MAC keys per direction, held by endpoints
    and writers of ``c``.

* ``K_C-Mi`` / ``K_S-Mi`` — pairwise encryption + MAC keys between each
  endpoint and each middlebox, derived from ephemeral DH, used to AuthEnc
  the ``MiddleboxKeyMaterial`` messages.

In the **default mode** each endpoint generates *partial* context keys
from a private secret and the final keys are
``PRF(K^C || K^S, label || rand_C || rand_S)`` — a middlebox needs both
halves, so access requires both endpoints' consent.  In **client key
distribution mode** (§3.6) context keys come straight from the endpoint
master secret and only the client distributes them.
"""

from __future__ import annotations

import hmac as _hmac
import os
from dataclasses import dataclass

from repro.crypto.hmaccache import CachedHmacSha256, hmac_sha256
from repro.crypto.opcount import count_op
from repro.crypto.prf import p_sha256
from repro.crypto.rsa import RSAError
from repro.tls.ciphersuites import CipherSuite, CipherError
from repro.wire import DecodeError

MAC_KEY_LEN = 32
ENC_KEY_LEN = 16
PARTIAL_KEY_LEN = 32
SECRET_LEN = 48
# A context's reader block, and a MAC block: a context's writer block or
# one field's keys.
READER_BLOCK_LEN = 2 * (ENC_KEY_LEN + MAC_KEY_LEN)
MAC_BLOCK_LEN = 2 * MAC_KEY_LEN

LABEL_MASTER = b"ms"
LABEL_PAIRWISE = b"k"
LABEL_ENDPOINT_KEYS = b"endpoint keys"
LABEL_READER_PARTIAL = b"ck reader"
LABEL_WRITER_PARTIAL = b"ck writer"
LABEL_READER_KEYS = b"reader keys"
LABEL_WRITER_KEYS = b"writer keys"
LABEL_CKD_READER = b"ckd reader keys"
LABEL_CKD_WRITER = b"ckd writer keys"
LABEL_RES_READER = b"res reader keys"
LABEL_RES_WRITER = b"res writer keys"
LABEL_FIELD_MAC = b"field mac keys"

# Directions, named from the endpoints' perspective.
C2S = "c2s"
S2C = "s2c"

# Every ``secret`` / ``*_secret`` argument below is the secret's bytes or
# its :class:`~repro.crypto.hmaccache.CachedHmacSha256`.  A party that
# derives several blocks under one secret builds that key schedule once
# and passes it (see ``p_sha256``); ``count_op`` sites do not change.


@dataclass(frozen=True)
class DirectionalKeys:
    """Encryption + MAC key for one direction."""

    enc: bytes
    mac: bytes


@dataclass(frozen=True)
class EndpointKeys:
    """K_endpoints: enc + MAC keys in both directions."""

    c2s: DirectionalKeys
    s2c: DirectionalKeys

    def for_direction(self, direction: str) -> DirectionalKeys:
        return self.c2s if direction == C2S else self.s2c


def mac_half(block: bytes, direction: str) -> bytes:
    """One direction's key from a MAC block ``mac_c2s || mac_s2c``: a
    context's writer block, or one field's keys."""
    return block[:MAC_KEY_LEN] if direction == C2S else block[MAC_KEY_LEN:]


@dataclass(frozen=True)
class ContextKeys:
    """One context's keys as the PRF emitted them.

    ``reader_block`` is K_readers, ``enc_c2s || enc_s2c || mac_c2s ||
    mac_s2c``; ``writer_block`` is K_writers, ``mac_c2s || mac_s2c``, or
    ``b""`` for a read grant.  A middlebox builds these from the bytes it
    received, so a block of the wrong length is a :class:`DecodeError`.
    """

    reader_block: bytes
    writer_block: bytes = b""

    def __post_init__(self) -> None:
        if len(self.reader_block) != READER_BLOCK_LEN:
            raise DecodeError("reader key block has wrong length")
        if len(self.writer_block) not in (0, MAC_BLOCK_LEN):
            raise DecodeError("writer key block has wrong length")

    def enc(self, direction: str) -> bytes:
        start = 0 if direction == C2S else ENC_KEY_LEN
        return self.reader_block[start : start + ENC_KEY_LEN]

    def reader_mac(self, direction: str) -> bytes:
        return mac_half(self.reader_block[2 * ENC_KEY_LEN :], direction)

    def writer_mac(self, direction: str) -> bytes:
        return mac_half(self.writer_block, direction)


@dataclass(frozen=True)
class PairwiseKeys:
    """K_{E-M}: the endpoint↔middlebox key protecting key material."""

    secret: bytes
    enc: bytes
    mac: bytes


def derive_pairwise(premaster: bytes, rand_a: bytes, rand_b: bytes) -> PairwiseKeys:
    """PS → S → K for an endpoint-middlebox (or endpoint-endpoint) pair.

    Mirrors Figure 1: ``S = PRF_PS("ms" || rand_a || rand_b)`` then
    ``K = PRF_S("k" || rand_a || rand_b)``.
    """
    count_op("hash")
    secret = p_sha256(premaster, LABEL_MASTER + rand_a + rand_b, SECRET_LEN)
    count_op("key_gen")
    key_block = p_sha256(secret, LABEL_PAIRWISE + rand_a + rand_b, ENC_KEY_LEN + MAC_KEY_LEN)
    return PairwiseKeys(
        secret=secret,
        enc=key_block[:ENC_KEY_LEN],
        mac=key_block[ENC_KEY_LEN:],
    )


def derive_endpoint_keys(endpoint_secret, rand_c: bytes, rand_s: bytes) -> EndpointKeys:
    """K_endpoints from the endpoints' shared secret S_C-S."""
    count_op("key_gen")
    block = p_sha256(
        endpoint_secret,
        LABEL_ENDPOINT_KEYS + rand_c + rand_s,
        2 * (ENC_KEY_LEN + MAC_KEY_LEN),
    )
    return EndpointKeys(
        c2s=DirectionalKeys(enc=block[:16], mac=block[16:48]),
        s2c=DirectionalKeys(enc=block[48:64], mac=block[64:96]),
    )


def partial_reader_key(secret, rand: bytes, context_id: int) -> bytes:
    """One endpoint's half of a context's reader key (K^E_readers), from
    its own secret S_C or S_S."""
    count_op("key_gen")
    return p_sha256(
        secret, LABEL_READER_PARTIAL + rand + bytes([context_id]), PARTIAL_KEY_LEN
    )


def partial_writer_key(secret, rand: bytes, context_id: int) -> bytes:
    """One endpoint's half of a context's writer key (K^E_writers), from
    its own secret S_C or S_S."""
    count_op("key_gen")
    return p_sha256(
        secret, LABEL_WRITER_PARTIAL + rand + bytes([context_id]), PARTIAL_KEY_LEN
    )


def _context_keys(
    reader_secret,
    writer_secret,
    reader_label: bytes,
    writer_label: bytes,
    seed: bytes,
) -> ContextKeys:
    """The one derivation of a context's two key blocks.  The CKD and
    resumption derivations pass one secret for both blocks; its key
    schedule is then built once."""
    count_op("key_gen", 2)
    if writer_secret is reader_secret and not isinstance(reader_secret, CachedHmacSha256):
        reader_secret = writer_secret = CachedHmacSha256(reader_secret)
    return ContextKeys(
        p_sha256(reader_secret, reader_label + seed, READER_BLOCK_LEN),
        p_sha256(writer_secret, writer_label + seed, MAC_BLOCK_LEN),
    )


def combine_context_keys(
    reader_half_c: bytes,
    reader_half_s: bytes,
    writer_half_c: bytes,
    writer_half_s: bytes,
    rand_c: bytes,
    rand_s: bytes,
) -> ContextKeys:
    """Final context keys from both endpoints' halves (default mode).

    ``K_readers = PRF_{K^C || K^S}("reader keys" || rand_C || rand_S)`` and
    likewise for writers — contributory: missing either half makes the
    result uncomputable.
    """
    return _context_keys(
        reader_half_c + reader_half_s,
        writer_half_c + writer_half_s,
        LABEL_READER_KEYS,
        LABEL_WRITER_KEYS,
        rand_c + rand_s,
    )


def ckd_context_keys(
    endpoint_secret: bytes, rand_c: bytes, rand_s: bytes, context_id: int
) -> ContextKeys:
    """Full context keys straight from the endpoint master secret (client
    key distribution mode, §3.6).

    Both endpoints contributed randomness to ``endpoint_secret``, so the
    keys remain contributory in the entropy sense — but middlebox
    permission agreement is no longer enforced by construction.
    """
    return _context_keys(
        endpoint_secret,
        endpoint_secret,
        LABEL_CKD_READER,
        LABEL_CKD_WRITER,
        rand_c + rand_s + bytes([context_id]),
    )


def resumption_context_keys(
    endpoint_secret: bytes, rand_c: bytes, rand_s: bytes, context_id: int
) -> ContextKeys:
    """Fresh context keys for an abbreviated (resumed) handshake.

    Both endpoints derive these independently from the cached endpoint
    secret and the *fresh* session randoms; the client then re-distributes
    them to the middleboxes (sealed to their certificate keys), exactly as
    in client-key-distribution mode.  The labels are distinct from the
    CKD labels so resumed keys can never collide with the original
    session's keys even under identical randoms.
    """
    return _context_keys(
        endpoint_secret,
        endpoint_secret,
        LABEL_RES_READER,
        LABEL_RES_WRITER,
        rand_c + rand_s + bytes([context_id]),
    )


def derive_field_keys(
    endpoint_secret: bytes, rand_c: bytes, rand_s: bytes, schema
) -> tuple:
    """One MAC block ``mac_c2s || mac_s2c`` per field of ``schema``, in
    field order (no encryption key: fields share the parent context's
    encryption; only write authority is refined per field).

    Rooted in the *endpoint* secret — which only the two endpoints hold
    — rather than any context key: a middlebox with record-level write
    permission must not be able to forge the MAC of a field it was not
    granted, so field keys cannot be derivable from material every
    record writer already has.  The client distributes each field's key
    to exactly the middleboxes named in the schema's write grants.
    """
    out = []
    for index, field_def in enumerate(schema.fields):
        count_op("key_gen")
        seed = (
            rand_c
            + rand_s
            + bytes([schema.context_id, index])
            + field_def.name.encode("utf-8")
        )
        out.append(p_sha256(endpoint_secret, LABEL_FIELD_MAC + seed, MAC_BLOCK_LEN))
    return tuple(out)


# -- AuthEnc for MiddleboxKeyMaterial ------------------------------------


def authenc_seal(
    suite: CipherSuite, enc_key: bytes, mac_key: bytes, plaintext: bytes
) -> bytes:
    """Encrypt-then-MAC a key material payload (``AuthEnc_K(...)``)."""
    ciphertext = suite.new_cipher(enc_key).encrypt(plaintext)
    tag = hmac_sha256(mac_key, ciphertext)
    return ciphertext + tag


def authenc_open(
    suite: CipherSuite, enc_key: bytes, mac_key: bytes, sealed: bytes
) -> bytes:
    """Verify and decrypt an AuthEnc payload; raises
    :class:`~repro.tls.ciphersuites.CipherError` on tampering."""
    if len(sealed) < 32:
        raise CipherError("sealed key material too short")
    ciphertext, tag = sealed[:-32], sealed[-32:]
    expected = hmac_sha256(mac_key, ciphertext)
    if not _hmac.compare_digest(tag, expected):
        raise CipherError("key material authentication failed")
    return suite.new_cipher(enc_key).decrypt(ciphertext)


# -- RSA key transport (the paper's prototype shortcut, §5) ----------------
#
# "the MiddleboxKeyMaterial message should be encrypted using a key
# generated from the DHE key exchange between the endpoints and the
# middlebox, [but] we use RSA public key cryptography for simplicity in
# our implementation.  As a result, forward secrecy is not currently
# supported."  We implement both; RSA transport wraps a fresh symmetric
# key under the middlebox's certificate key (hybrid encryption) so any
# number of context shares fits.


def rsa_hybrid_seal(suite: CipherSuite, public_key, plaintext: bytes) -> bytes:
    """Seal key material to an RSA public key (hybrid: RSA-wrapped
    symmetric key + AuthEnc body)."""
    key_blob = os.urandom(ENC_KEY_LEN + MAC_KEY_LEN)
    wrapped = public_key.encrypt(key_blob)
    body = authenc_seal(suite, key_blob[:ENC_KEY_LEN], key_blob[ENC_KEY_LEN:], plaintext)
    return len(wrapped).to_bytes(2, "big") + wrapped + body


def rsa_hybrid_open(suite: CipherSuite, private_key, sealed: bytes) -> bytes:
    """Open RSA-hybrid-sealed key material with the middlebox's key.

    An unwrap that fails — bad padding, a wrapped blob of the wrong
    length, an unwrapped key of the wrong length — goes on under random
    key bytes (RFC 5246 §7.4.7.1), so it fails exactly where a forged
    body does: one :class:`CipherError` from ``authenc_open``, whatever
    was wrong, and a padding failure takes the same path as a MAC
    failure.  No padding oracle.
    """
    if len(sealed) < 2:
        raise CipherError("sealed key material too short")
    wrapped_len = int.from_bytes(sealed[:2], "big")
    wrapped = sealed[2 : 2 + wrapped_len]
    body = sealed[2 + wrapped_len :]
    try:
        key_blob = private_key.decrypt(wrapped)
    except RSAError:
        key_blob = b""
    if len(key_blob) != ENC_KEY_LEN + MAC_KEY_LEN:
        key_blob = os.urandom(ENC_KEY_LEN + MAC_KEY_LEN)
    return authenc_open(suite, key_blob[:ENC_KEY_LEN], key_blob[ENC_KEY_LEN:], body)
