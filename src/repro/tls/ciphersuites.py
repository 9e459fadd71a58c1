"""Cipher suite definitions.

The paper evaluates with ``DHE-RSA-AES128-SHA256``; we implement that suite
faithfully (AES-128-CBC, HMAC-SHA256, MAC-then-encrypt per RFC 5246
§6.2.3.2) plus drop-in stream variants that replace the AES-CBC bulk
cipher with a keystream cipher while preserving the record geometry (an
explicit per-record 16-byte IV/nonce and 32-byte MAC):

* ``DHE-RSA-SHACTR-SHA256`` (0xFF67) — the zero-dependency SHA-CTR
  keystream (:mod:`repro.crypto.fastcipher`), golden-vector-pinned;
* ``DHE-RSA-AES128CTR-SHA256`` (0xFF68) — AES-128-CTR;
* ``DHE-RSA-CHACHA20-SHA256`` (0xFF69) — ChaCha20.

Where libcrypto's EVP interface binds (:mod:`repro.crypto.evp`,
``CIPHER_BACKEND == "openssl-evp"``) it computes the bulk cipher of
0x0067, 0xFF68 and 0xFF69; elsewhere 0x0067 runs the pure-Python AES
(:mod:`repro.crypto.aes`, also the tests' reference) and the two stream
suites are not registered.  Negotiation treats every registered suite
alike (offered in ClientHello, sealed into tickets).  All stream suites
share one wire geometry — ``nonce(16) || ciphertext`` with HMAC-SHA256
record MACs — and who computes a suite's cipher is never wire format.
Benchmarks state which suite they use.
"""

from __future__ import annotations

import hashlib
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


class StreamRecordCipher(BulkCipher):
    """Base for ``nonce(16) || ciphertext`` keystream record ciphers."""

    def ciphertext_length(self, plaintext_length: int) -> int:
        return 16 + plaintext_length


class ShaCtrRecordCipher(StreamRecordCipher):
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


class EvpAesCbcCipher(AesCbcCipher):
    """:class:`AesCbcCipher` computed by libcrypto (:mod:`repro.crypto.evp`).

    EVP's PKCS#7 padding gives the bytes of ``pkcs7_pad`` +
    ``cbc_encrypt``; bad padding or a ragged length on decrypt is a
    :class:`CipherError`, as any libcrypto failure is.
    """

    def __init__(self, key: bytes):
        self._evp = EvpCipher("AES-128-CBC", key)

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


class EvpStreamCipher(StreamRecordCipher):
    """``nonce(16) || ciphertext`` on a libcrypto stream cipher whose IV
    is the record nonce."""

    algorithm = ""

    def __init__(self, key: bytes):
        self._evp = EvpCipher(self.algorithm, key)

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        nonce = os.urandom(16)
        try:
            return nonce + self._evp.stream(nonce, plaintext)
        except EvpError as exc:
            raise CipherError(str(exc)) from exc

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if len(ciphertext) < 16:
            raise CipherError("ciphertext shorter than nonce")
        try:
            return self._evp.stream(bytes(ciphertext[:16]), ciphertext[16:])
        except EvpError as exc:
            raise CipherError(str(exc)) from exc


class AesCtrRecordCipher(EvpStreamCipher):
    """AES-128-CTR: the nonce is the initial big-endian 128-bit counter
    block, so keystream block ``i`` is ``AES(key, (nonce + i) mod 2^128)``."""

    algorithm = "AES-128-CTR"


class ChaCha20RecordCipher(EvpStreamCipher):
    """ChaCha20 with the 16-byte nonce as its IV, in the original layout:
    a 64-bit little-endian block counter, then a 64-bit nonce.  The mcTLS
    key schedule carves 16-byte bulk keys; ChaCha20 needs 32, so the
    suite key is expanded with SHA-256 — simulation-grade, like SHA-CTR
    itself."""

    algorithm = "ChaCha20"

    def __init__(self, key: bytes):
        super().__init__(key if len(key) == 32 else hashlib.sha256(key).digest())


# Every suite's record geometry: 16-byte bulk keys (the mcTLS key
# schedule carves 16-byte keys; ChaCha20 expands its own) and
# HMAC-SHA256 record MACs.
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
    # HMAC-SHA256 with the key schedule cached per key (pinned by the
    # golden vectors' ``suite_mac`` primitive).
    mac = staticmethod(hmac_sha256)

    def new_cipher(self, key: bytes) -> BulkCipher:
        if len(key) != KEY_LENGTH:
            raise ValueError("bulk key has wrong length for suite")
        return self.cipher_factory(key)

    def mac_context(self, key: bytes) -> CachedHmacSha256:
        """The record MAC under ``key``, its key schedule computed once."""
        return CachedHmacSha256(key)


_NATIVE = CIPHER_BACKEND == "openssl-evp"

# One row per suite: id, name, bulk cipher.  0x0067 is
# TLS_DHE_RSA_WITH_AES_128_CBC_SHA256; 0xFF67 (the fast simulation
# suite), 0xFF68 and 0xFF69 are private-use ids.
_TABLE = (
    CipherSuite(
        0x0067, "DHE-RSA-AES128-CBC-SHA256", EvpAesCbcCipher if _NATIVE else AesCbcCipher
    ),
    CipherSuite(0xFF67, "DHE-RSA-SHACTR-SHA256", ShaCtrRecordCipher),
    CipherSuite(0xFF68, "DHE-RSA-AES128CTR-SHA256", AesCtrRecordCipher),
    CipherSuite(0xFF69, "DHE-RSA-CHACHA20-SHA256", ChaCha20RecordCipher),
)
(
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
    SUITE_DHE_RSA_AES128CTR_SHA256,
    SUITE_DHE_RSA_CHACHA20_SHA256,
) = _TABLE

# A suite whose cipher only the EVP seam computes is simply unknown
# without it: a client cannot offer it, a server cannot pick it, and
# sealed tickets naming it fail resumption cleanly via suite_by_id.
SUITES: Dict[int, CipherSuite] = {
    s.suite_id: s
    for s in _TABLE
    if _NATIVE or not issubclass(s.cipher_factory, EvpStreamCipher)
}


def suite_by_id(suite_id: int) -> CipherSuite:
    try:
        return SUITES[suite_id]
    except KeyError:
        raise CipherError(f"unknown cipher suite 0x{suite_id:04x}") from None
