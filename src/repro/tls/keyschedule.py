"""The TLS 1.2 key schedule (RFC 5246 §8.1, §6.3).

``premaster → master secret → key block``, all via the SHA-256 PRF.  The
key block is carved into per-direction MAC keys and encryption keys.
mcTLS reuses these helpers for each pairwise secret (client-server,
client-middlebox, server-middlebox).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.prf import prf, prf_key_block

MASTER_SECRET_LEN = 48

LABEL_MASTER_SECRET = b"master secret"
LABEL_KEY_EXPANSION = b"key expansion"
LABEL_CLIENT_FINISHED = b"client finished"
LABEL_SERVER_FINISHED = b"server finished"


def master_secret(premaster: bytes, client_random: bytes, server_random: bytes) -> bytes:
    """Derive the 48-byte master secret from the premaster secret."""
    return prf(
        premaster,
        LABEL_MASTER_SECRET,
        client_random + server_random,
        MASTER_SECRET_LEN,
    )


@dataclass(frozen=True)
class KeyBlock:
    """Per-direction record protection keys for one cipher suite."""

    client_mac_key: bytes
    server_mac_key: bytes
    client_enc_key: bytes
    server_enc_key: bytes


def derive_key_block(
    secret: bytes,
    client_random: bytes,
    server_random: bytes,
    mac_key_length: int,
    enc_key_length: int,
) -> KeyBlock:
    """Expand a master secret into the record keys (RFC 5246 §6.3).

    Note the seed order flip versus the master secret derivation:
    ``server_random || client_random``.
    """
    total = 2 * mac_key_length + 2 * enc_key_length
    block = prf_key_block(
        secret, LABEL_KEY_EXPANSION, server_random + client_random, total
    )
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        chunk = block[offset : offset + n]
        offset += n
        return chunk

    return KeyBlock(
        client_mac_key=take(mac_key_length),
        server_mac_key=take(mac_key_length),
        client_enc_key=take(enc_key_length),
        server_enc_key=take(enc_key_length),
    )


def finished_verify_data(secret: bytes, label: bytes, transcript_hash: bytes) -> bytes:
    """Compute the 12-byte Finished verify_data."""
    return prf(secret, label, transcript_hash, 12)
