"""Cipher suite definitions: two suites, the same on every host.

The paper evaluates with ``DHE-RSA-AES128-SHA256`` (0x0067); we implement
that suite faithfully (AES-128-CBC, HMAC-SHA256, MAC-then-encrypt per
RFC 5246 §6.2.3.2) plus one drop-in stand-in for bulk simulation,
``DHE-RSA-SHACTR-SHA256`` (0xFF67), which replaces the AES-CBC bulk
cipher with the zero-dependency SHA-CTR keystream
(:mod:`repro.crypto.fastcipher`, golden-vector-pinned) while keeping the
record geometry: an explicit per-record 16-byte IV/nonce and a 32-byte
HMAC-SHA256 MAC, ``nonce(16) || ciphertext`` with no padding.

Where libcrypto's EVP interface binds (:mod:`repro.crypto.evp`,
``CIPHER_BACKEND == "openssl-evp"``) it computes 0x0067's AES-128-CBC;
elsewhere 0x0067 runs the pure-Python AES (:mod:`repro.crypto.aes`, also
the tests' reference).  Either way both suites are registered, and who
computes a suite's cipher is never wire format.  Benchmarks state which
suite they use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict

from repro.crypto.aes import AES
from repro.crypto.evp import CIPHER_BACKEND, EvpCipher, EvpError
from repro.crypto.fastcipher import KeystreamError, ShaCtrCipher
from repro.crypto.hmaccache import CachedHmacSha256, hmac_sha256
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.opcount import count_op


class CipherError(Exception):
    """Raised when record decryption or MAC verification fails."""


class BulkCipher:
    """Interface for the per-direction bulk encryption of records."""

    def encrypt(self, plaintext: bytes) -> bytes:
        raise NotImplementedError

    def decrypt(self, ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Predict ciphertext size without encrypting (for size accounting)."""
        raise NotImplementedError


class AesCbcCipher(BulkCipher):
    """AES-CBC with an explicit per-record IV and PKCS#7 padding."""

    def __init__(self, key: bytes):
        self._aes = AES(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        if type(plaintext) is not bytes:
            plaintext = bytes(plaintext)
        iv = os.urandom(16)
        return iv + cbc_encrypt(self._aes, iv, pkcs7_pad(plaintext))

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if type(ciphertext) is not bytes:
            ciphertext = bytes(ciphertext)
        if len(ciphertext) < 32:
            raise CipherError("ciphertext shorter than IV + one block")
        iv, body = ciphertext[:16], ciphertext[16:]
        try:
            return pkcs7_unpad(cbc_decrypt(self._aes, iv, body))
        except (PaddingError, ValueError) as exc:
            raise CipherError(str(exc)) from exc

    def ciphertext_length(self, plaintext_length: int) -> int:
        padded = (plaintext_length // 16 + 1) * 16
        return 16 + padded


class ShaCtrRecordCipher(BulkCipher):
    """SHA-CTR keystream cipher with an explicit 16-byte nonce.

    Same wire geometry as :class:`AesCbcCipher` minus padding: records are
    ``nonce || ciphertext``.  A libcrypto failure while generating the
    keystream surfaces as :class:`CipherError`, like any other cipher
    failure the record layers translate.
    """

    def __init__(self, key: bytes):
        self._cipher = ShaCtrCipher(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        nonce = os.urandom(16)
        try:
            return nonce + self._cipher.xor(nonce, plaintext)
        except KeystreamError as exc:
            raise CipherError(str(exc)) from exc

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if len(ciphertext) < 16:
            raise CipherError("ciphertext shorter than nonce")
        nonce, body = ciphertext[:16], ciphertext[16:]
        try:
            return self._cipher.xor(nonce, body)
        except KeystreamError as exc:
            raise CipherError(str(exc)) from exc

    def ciphertext_length(self, plaintext_length: int) -> int:
        return 16 + plaintext_length


class EvpAesCbcCipher(AesCbcCipher):
    """:class:`AesCbcCipher` computed by libcrypto (:mod:`repro.crypto.evp`).

    EVP's PKCS#7 padding gives the bytes of ``pkcs7_pad`` +
    ``cbc_encrypt``; bad padding or a ragged length on decrypt is a
    :class:`CipherError`, as any libcrypto failure is.
    """

    def __init__(self, key: bytes):
        self._evp = EvpCipher(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        iv = os.urandom(16)
        try:
            return iv + self._evp.padded(True, iv, plaintext)
        except EvpError as exc:
            raise CipherError(str(exc)) from exc

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if len(ciphertext) < 32:
            raise CipherError("ciphertext shorter than IV + one block")
        try:
            return self._evp.padded(False, bytes(ciphertext[:16]), ciphertext[16:])
        except EvpError as exc:
            raise CipherError(str(exc)) from exc


# Every suite's record geometry: 16-byte bulk keys (what the mcTLS key
# schedule carves) and HMAC-SHA256 record MACs.
KEY_LENGTH = 16
MAC_KEY_LENGTH = 32
MAC_LENGTH = 32


@dataclass(frozen=True)
class CipherSuite:
    """A negotiated algorithm bundle: DHE-RSA key exchange, a bulk
    cipher, HMAC-SHA256 record MACs.  Suites differ only in their row of
    the table below."""

    suite_id: int
    name: str
    cipher_factory: Callable[[bytes], BulkCipher]

    key_length = KEY_LENGTH
    mac_key_length = MAC_KEY_LENGTH
    mac_length = MAC_LENGTH
    # One-shot HMAC-SHA256 (pinned by the golden vectors' ``suite_mac``
    # primitive); record layers keep a keyed :meth:`mac_context` instead.
    mac = staticmethod(hmac_sha256)

    def new_cipher(self, key: bytes) -> BulkCipher:
        if len(key) != KEY_LENGTH:
            raise ValueError("bulk key has wrong length for suite")
        return self.cipher_factory(key)

    def mac_context(self, key: bytes) -> CachedHmacSha256:
        """The record MAC under ``key``, its key schedule computed once."""
        return CachedHmacSha256(key)


# One row per suite: id, name, bulk cipher.  0x0067 is
# TLS_DHE_RSA_WITH_AES_128_CBC_SHA256; 0xFF67 (the fast simulation
# suite) is a private-use id.
_TABLE = (
    CipherSuite(
        0x0067,
        "DHE-RSA-AES128-CBC-SHA256",
        EvpAesCbcCipher if CIPHER_BACKEND == "openssl-evp" else AesCbcCipher,
    ),
    CipherSuite(0xFF67, "DHE-RSA-SHACTR-SHA256", ShaCtrRecordCipher),
)
SUITE_DHE_RSA_AES128_CBC_SHA256, SUITE_DHE_RSA_SHACTR_SHA256 = _TABLE

SUITES: Dict[int, CipherSuite] = {s.suite_id: s for s in _TABLE}


def suite_by_id(suite_id: int) -> CipherSuite:
    try:
        return SUITES[suite_id]
    except KeyError:
        raise CipherError(f"unknown cipher suite 0x{suite_id:04x}") from None
