"""Finite-field ephemeral Diffie-Hellman.

mcTLS uses ephemeral DH key pairs for all pairwise key establishment
(client-server, client-middlebox, server-middlebox).  A middlebox generates
*two* key pairs — one towards the client and one towards the server — to
avoid small-subgroup attacks, exactly as the paper specifies.

The default group is the 2048-bit MODP group from RFC 3526.  A small
512-bit safe-prime group is provided for fast unit tests.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto.numtheory import bytes_to_int, int_to_bytes, modexp
from repro.crypto.opcount import count_op


class DHError(Exception):
    """Raised on invalid Diffie-Hellman public values."""


@dataclass(frozen=True)
class DHGroup:
    """A finite-field DH group (prime modulus ``p``, generator ``g``)."""

    name: str
    p: int
    g: int

    @property
    def byte_length(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def generate_keypair(self) -> "DHKeyPair":
        """Generate an ephemeral key pair in this group."""
        # Private exponents of 2 * security-level bits are standard; cap
        # at the group size.
        exponent_bits = min(max(256, self.p.bit_length() // 8), self.p.bit_length() - 2)
        private = secrets.randbits(exponent_bits) | (1 << (exponent_bits - 1))
        public = modexp(self.g, private, self.p)
        return DHKeyPair(group=self, private=private, public=public)

    def validate_public(self, public: int) -> None:
        """Reject degenerate public values (1, 0, p-1, out of range)."""
        if not 2 <= public <= self.p - 2:
            raise DHError("DH public value out of range")

    def public_to_bytes(self, public: int) -> bytes:
        return int_to_bytes(public, self.byte_length)

    def public_from_bytes(self, data: bytes) -> int:
        if len(data) != self.byte_length:
            raise DHError("DH public value has wrong length for group")
        public = bytes_to_int(data)
        self.validate_public(public)
        return public


@dataclass(frozen=True)
class DHKeyPair:
    """An ephemeral DH key pair bound to its group."""

    group: DHGroup
    private: int
    public: int

    @property
    def public_bytes(self) -> bytes:
        return self.group.public_to_bytes(self.public)

    def combine(self, peer_public: int) -> bytes:
        """Compute the shared secret with a peer's public value.

        This is ``DHCombine`` from the paper's notation.  Counted as one
        ``secret_comp`` operation (Table 3).
        """
        self.group.validate_public(peer_public)
        count_op("secret_comp")
        shared = modexp(peer_public, self.private, self.group.p)
        return int_to_bytes(shared, self.group.byte_length)


# RFC 3526, group 14 (2048-bit MODP).
_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

GROUP_MODP_2048 = DHGroup(name="modp2048", p=_MODP_2048_P, g=2)

# 1024-bit MODP group (RFC 2409 group 2) — used by benchmarks to keep
# pure-Python handshakes fast while remaining a real standardised group.
_MODP_1024_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

GROUP_MODP_1024 = DHGroup(name="modp1024", p=_MODP_1024_P, g=2)

# A fixed 512-bit safe prime for unit tests (generated once offline with
# generate_safe_prime(512); safe primality is asserted by the test suite).
_TEST_512_P = int(
    "A4AEBCA7AB7418975AC13EF7A2959675CDAC0C6306F667CDF22E2AC07F4CFAE9"
    "D12BF56702B854C9B3E344399FB7F13F12CEFA46563E6767E6D0C8DF2E033A67",
    16,
)

GROUP_TEST_512 = DHGroup(name="test512", p=_TEST_512_P, g=2)

GROUPS = {
    g.name: g for g in (GROUP_MODP_2048, GROUP_MODP_1024, GROUP_TEST_512)
}
