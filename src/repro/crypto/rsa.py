"""RSA from scratch: key generation, PKCS#1 v1.5 signing and encryption.

The paper's prototype uses RSA certificates for entity authentication
(DHE-RSA cipher suite) and — in the authors' implementation shortcut — RSA
public-key encryption for the ``MiddleboxKeyMaterial`` messages.  We
implement both uses.

Signatures and encryption follow PKCS#1 v1.5 (RFC 8017 §8.2 / §7.2) with
SHA-256 as the digest for signatures.  Private-key operations use the CRT
optimisation.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from repro.crypto.numtheory import (
    bytes_to_int,
    generate_prime,
    int_to_bytes,
    modexp,
    modinv,
    public_modexp,
)
from repro.crypto.opcount import count_op

# DER prefix for a SHA-256 DigestInfo (RFC 8017 §9.2 note 1).
_SHA256_DIGESTINFO = bytes.fromhex("3031300d060960864801650304020105000420")

_DEFAULT_PUBLIC_EXPONENT = 65537

# Smallest modulus generated or accepted off the wire.
MIN_MODULUS_BITS = 512


class RSAError(Exception):
    """Raised on any RSA padding/verification/size failure."""


@dataclass(frozen=True)
class RSAPublicKey:
    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    # -- signatures --------------------------------------------------

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PKCS#1 v1.5 SHA-256 signature; returns True/False."""
        count_op("asym_verify")
        k = self.byte_length
        if len(signature) != k:
            return False
        em = int_to_bytes(public_modexp(bytes_to_int(signature), self.e, self.n), k)
        return em == _pkcs1_sign_encode(message, k)

    # -- encryption ---------------------------------------------------

    def encrypt(self, plaintext: bytes) -> bytes:
        """PKCS#1 v1.5 encryption (type 2 padding)."""
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise RSAError("plaintext too long for RSA modulus")
        padding_len = k - 3 - len(plaintext)
        # Non-zero random padding: draw what is missing in one call, drop
        # the zero bytes, top up — i.i.d. uniform on 1..255, one or two
        # urandom calls instead of one per byte.
        padding = b""
        while len(padding) < padding_len:
            draw = secrets.token_bytes(padding_len - len(padding))
            padding += draw.replace(b"\x00", b"")
        em = b"\x00\x02" + padding + b"\x00" + plaintext
        return int_to_bytes(public_modexp(bytes_to_int(em), self.e, self.n), k)

    # -- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        n_bytes = int_to_bytes(self.n)
        e_bytes = int_to_bytes(self.e)
        return (
            len(n_bytes).to_bytes(2, "big")
            + n_bytes
            + len(e_bytes).to_bytes(2, "big")
            + e_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSAPublicKey":
        if len(data) < 4:
            raise RSAError("truncated RSA public key")
        n_len = int.from_bytes(data[:2], "big")
        n = bytes_to_int(data[2 : 2 + n_len])
        offset = 2 + n_len
        e_len = int.from_bytes(data[offset : offset + 2], "big")
        e = bytes_to_int(data[offset + 2 : offset + 2 + e_len])
        if offset + 2 + e_len != len(data):
            raise RSAError("trailing bytes after RSA public key")
        # A key off the wire must be usable as one: verify() returns
        # True/False only if the modulus fits a SHA-256 DigestInfo, and
        # an odd modulus is what the Montgomery path of modexp needs.
        if n.bit_length() < MIN_MODULUS_BITS or not n & 1:
            raise RSAError(
                f"RSA modulus must be odd and at least {MIN_MODULUS_BITS} bits"
            )
        if e < 3 or not e & 1:
            raise RSAError("RSA public exponent must be odd and at least 3")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RSAPrivateKey:
    n: int
    e: int
    d: int
    p: int
    q: int
    # CRT precomputation
    dp: int
    dq: int
    qinv: int

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _private_op(self, c: int) -> int:
        """RSA private-key exponentiation using the CRT."""
        m1 = modexp(c, self.dp, self.p)
        m2 = modexp(c, self.dq, self.q)
        h = (self.qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    # -- signatures ---------------------------------------------------

    def sign(self, message: bytes) -> bytes:
        """Produce a PKCS#1 v1.5 SHA-256 signature."""
        count_op("asym_sign")
        k = self.byte_length
        em = _pkcs1_sign_encode(message, k)
        return int_to_bytes(self._private_op(bytes_to_int(em)), k)

    # -- encryption ---------------------------------------------------

    def decrypt(self, ciphertext: bytes) -> bytes:
        """PKCS#1 v1.5 decryption; raises :class:`RSAError` on bad padding."""
        count_op("secret_comp")
        k = self.byte_length
        if len(ciphertext) != k:
            raise RSAError("ciphertext length does not match modulus")
        em = int_to_bytes(self._private_op(bytes_to_int(ciphertext)), k)
        if em[:2] != b"\x00\x02":
            raise RSAError("invalid PKCS#1 v1.5 padding")
        try:
            separator = em.index(b"\x00", 2)
        except ValueError:
            raise RSAError("missing PKCS#1 v1.5 separator") from None
        if separator < 10:
            raise RSAError("PKCS#1 v1.5 padding too short")
        return em[separator + 1 :]


def _pkcs1_sign_encode(message: bytes, k: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 digest."""
    digest = hashlib.sha256(message).digest()
    t = _SHA256_DIGESTINFO + digest
    if k < len(t) + 11:
        raise RSAError("RSA modulus too small for SHA-256 signature")
    ps = b"\xff" * (k - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


def generate_rsa_key(bits: int = 2048, e: int = _DEFAULT_PUBLIC_EXPONENT) -> RSAPrivateKey:
    """Generate an RSA key pair with an n of exactly ``bits`` bits."""
    if bits < MIN_MODULUS_BITS:
        raise ValueError(f"RSA keys below {MIN_MODULUS_BITS} bits are not supported")
    while True:
        p = generate_prime(bits // 2)
        q = generate_prime(bits - bits // 2)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except ValueError:
            continue  # e not coprime with phi; repick primes
        if p < q:
            p, q = q, p
        return RSAPrivateKey(
            n=n,
            e=e,
            d=d,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            qinv=modinv(q, p),
        )
