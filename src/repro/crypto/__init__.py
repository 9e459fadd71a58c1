"""Cryptographic substrate for the mcTLS reproduction.

The core is implemented from scratch on top of the Python standard
library (``hashlib``/``hmac``/``os.urandom``): AES, CBC mode,
finite-field Diffie-Hellman, RSA with PKCS#1 v1.5, the TLS 1.2 PRF, a toy
certificate infrastructure, and an operation counter used to reproduce the
paper's Table 3.

Three native seams hand hot primitives to the libcrypto CPython's
``_hashlib`` already maps, each bound once at import through
:func:`repro.crypto.libcrypto.bind` and each falling back to its Python
path completely when a library or symbol is missing: big-integer
``modexp`` (:mod:`repro.crypto.numtheory`, ``MODEXP_BACKEND``), the
SHA-CTR keystream (:mod:`repro.crypto.fastcipher`, ``KEYSTREAM_BACKEND``)
and the paper's suite's AES-128-CBC on EVP (:mod:`repro.crypto.evp`,
``CIPHER_BACKEND``).  A seam never changes wire bytes — only who
computes them — and no third-party package is imported for any of them.

These primitives exist to make the *protocol* reproduction self-contained;
they are not hardened against side channels and must not be used to protect
real traffic.
"""

from repro.crypto.aes import AES
from repro.crypto.dh import DHGroup, DHKeyPair, GROUP_MODP_2048, GROUP_TEST_512
from repro.crypto.fastcipher import ShaCtrCipher, clear_keystream_cache
from repro.crypto.hmaccache import CachedHmacSha256, hmac_sha256
from repro.crypto.opcount import OpCounter, current_counter, count_op, counting
from repro.crypto.prf import prf, p_sha256
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey, generate_rsa_key

__all__ = [
    "AES",
    "CachedHmacSha256",
    "DHGroup",
    "DHKeyPair",
    "GROUP_MODP_2048",
    "GROUP_TEST_512",
    "OpCounter",
    "RSAPrivateKey",
    "RSAPublicKey",
    "ShaCtrCipher",
    "clear_keystream_cache",
    "count_op",
    "counting",
    "current_counter",
    "generate_rsa_key",
    "hmac_sha256",
    "p_sha256",
    "prf",
]
