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

from repro.crypto.hmaccache import hmac_sha256
from repro.crypto.opcount import count_op
from repro.crypto.prf import p_sha256
from repro.crypto.rsa import RSAError
from repro.tls.ciphersuites import CipherSuite, CipherError

MAC_KEY_LEN = 32
ENC_KEY_LEN = 16
PARTIAL_KEY_LEN = 32
SECRET_LEN = 48

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


@dataclass(frozen=True)
class ReaderKeys:
    """K_readers for one context: enc + reader-MAC keys per direction."""

    c2s: DirectionalKeys
    s2c: DirectionalKeys

    def for_direction(self, direction: str) -> DirectionalKeys:
        return self.c2s if direction == C2S else self.s2c


@dataclass(frozen=True)
class WriterKeys:
    """K_writers for one context: writer-MAC key per direction."""

    mac_c2s: bytes
    mac_s2c: bytes

    def mac_for_direction(self, direction: str) -> bytes:
        return self.mac_c2s if direction == C2S else self.mac_s2c


@dataclass(frozen=True)
class ContextKeys:
    """All symmetric material for one context."""

    readers: ReaderKeys
    writers: WriterKeys


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


def derive_endpoint_keys(endpoint_secret: bytes, rand_c: bytes, rand_s: bytes) -> EndpointKeys:
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


def partial_reader_key(endpoint_secret: bytes, rand: bytes, context_id: int) -> bytes:
    """One endpoint's half of a context's reader key (K^E_readers)."""
    count_op("key_gen")
    return p_sha256(
        endpoint_secret, LABEL_READER_PARTIAL + rand + bytes([context_id]), PARTIAL_KEY_LEN
    )


def partial_writer_key(endpoint_secret: bytes, rand: bytes, context_id: int) -> bytes:
    """One endpoint's half of a context's writer key (K^E_writers)."""
    count_op("key_gen")
    return p_sha256(
        endpoint_secret, LABEL_WRITER_PARTIAL + rand + bytes([context_id]), PARTIAL_KEY_LEN
    )


def _carve_reader_block(block: bytes) -> ReaderKeys:
    return ReaderKeys(
        c2s=DirectionalKeys(enc=block[:16], mac=block[32:64]),
        s2c=DirectionalKeys(enc=block[16:32], mac=block[64:96]),
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
    count_op("key_gen", 2)
    reader_block = p_sha256(
        reader_half_c + reader_half_s, LABEL_READER_KEYS + rand_c + rand_s, 96
    )
    writer_block = p_sha256(
        writer_half_c + writer_half_s, LABEL_WRITER_KEYS + rand_c + rand_s, 64
    )
    return ContextKeys(
        readers=_carve_reader_block(reader_block),
        writers=WriterKeys(mac_c2s=writer_block[:32], mac_s2c=writer_block[32:]),
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
    count_op("key_gen", 2)
    seed = rand_c + rand_s + bytes([context_id])
    reader_block = p_sha256(endpoint_secret, LABEL_CKD_READER + seed, 96)
    writer_block = p_sha256(endpoint_secret, LABEL_CKD_WRITER + seed, 64)
    return ContextKeys(
        readers=_carve_reader_block(reader_block),
        writers=WriterKeys(mac_c2s=writer_block[:32], mac_s2c=writer_block[32:]),
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
    count_op("key_gen", 2)
    seed = rand_c + rand_s + bytes([context_id])
    reader_block = p_sha256(endpoint_secret, LABEL_RES_READER + seed, 96)
    writer_block = p_sha256(endpoint_secret, LABEL_RES_WRITER + seed, 64)
    return ContextKeys(
        readers=_carve_reader_block(reader_block),
        writers=WriterKeys(mac_c2s=writer_block[:32], mac_s2c=writer_block[32:]),
    )


@dataclass(frozen=True)
class FieldKeys:
    """Per-direction MAC keys for one field sub-context (no encryption
    key: fields share the parent context's encryption; only write
    authority is refined per field)."""

    mac_c2s: bytes
    mac_s2c: bytes

    def mac_for_direction(self, direction: str) -> bytes:
        return self.mac_c2s if direction == C2S else self.mac_s2c


def derive_field_keys(
    endpoint_secret: bytes, rand_c: bytes, rand_s: bytes, schema
) -> tuple:
    """One :class:`FieldKeys` per field of ``schema``, in field order.

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
        block = p_sha256(endpoint_secret, LABEL_FIELD_MAC + seed, 2 * MAC_KEY_LEN)
        out.append(FieldKeys(mac_c2s=block[:MAC_KEY_LEN], mac_s2c=block[MAC_KEY_LEN:]))
    return tuple(out)


# -- serialization of full key blocks (client key distribution mode) -----

READER_BLOCK_LEN = 96
WRITER_BLOCK_LEN = 64


def reader_block_bytes(keys: ReaderKeys) -> bytes:
    return keys.c2s.enc + keys.s2c.enc + keys.c2s.mac + keys.s2c.mac


def reader_keys_from_block(block: bytes) -> ReaderKeys:
    if len(block) != READER_BLOCK_LEN:
        raise ValueError("reader key block has wrong length")
    return _carve_reader_block(block)


def writer_block_bytes(keys: WriterKeys) -> bytes:
    return keys.mac_c2s + keys.mac_s2c


def writer_keys_from_block(block: bytes) -> WriterKeys:
    if len(block) != WRITER_BLOCK_LEN:
        raise ValueError("writer key block has wrong length")
    return WriterKeys(mac_c2s=block[:32], mac_s2c=block[32:])


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
