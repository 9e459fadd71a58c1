"""Number-theoretic helpers for RSA and Diffie-Hellman.

Implements deterministic-enough probabilistic primality testing
(Miller-Rabin with fixed witnesses for small inputs plus random witnesses
for large inputs), prime generation, modular inverse, and the one
modular-exponentiation seam every public-key operation goes through.

**The ``modexp`` seam.**  Every public-key operation computes
``base ** exp % mod`` through one of two functions here, and they alone
decide *who computes* it.  The rule is OpenSSL's own: a **secret**
exponent goes through :func:`modexp`, a **public** one through
:func:`public_modexp`.

* :func:`modexp` serves the two CRT halves of an RSA private op, DH
  keygen and combine, and every Miller-Rabin round.  When
  :func:`repro.crypto.libcrypto.bind` finds a libcrypto in which every
  symbol in ``_BN_SYMBOLS`` resolves, it runs
  ``BN_mod_exp_mont_consttime``.
* :func:`public_modexp` serves only ``RSAPublicKey.verify`` and
  ``RSAPublicKey.encrypt``, whose exponent ``e`` is on the wire.  It runs
  ``BN_mod_exp_mont``, the path ``rsa_ossl_public_encrypt`` and RSA
  verification take in OpenSSL.  Its time depends on the exponent's
  bits, which are public.

Without such a libcrypto both are the builtin ``pow()``; either way
they share one body.  The choice is made once, at import, from what the
platform offers — there is no option to set — and
:data:`MODEXP_BACKEND` (``"openssl-bn"`` or ``"python"``) only reports
it.  A missing library or a single missing
symbol selects ``pow()`` completely, for both functions; there is no
half-bound backend.

*Fallback.*  ``pow()`` also serves, on every platform and on both
paths, any modulus that is even or below 3 and any negative exponent:
Montgomery multiplication needs an odd modulus, and both clients build a
:class:`~repro.crypto.dh.DHGroup` from a peer's ServerKeyExchange bytes,
so the modulus can be hostile.  Those inputs get exactly ``pow()``'s
value or exception.  ``pow()`` is also the reference the differential
tests in ``tests/test_modexp.py`` compare the BN path against.

*Thread rule.*  ``ctypes`` drops the GIL around every foreign call and
handshakes run on several threads, so nothing foreign is shared: each
call allocates its own ``BIGNUM``s and ``BN_CTX`` and frees them before
returning.  There is no module-level or per-thread native state, so
no ``BN_MONT_CTX`` is kept per modulus either: each call builds its own,
where OpenSSL's RSA keeps one per key.

Padding, length checks, ``validate_public``, ``count_op`` sites and
error types stay with the Python callers, so wire bytes and Table 3 op
counts do not depend on the backend.
"""

from __future__ import annotations

import ctypes
import secrets

from repro.crypto import libcrypto

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
    317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
]

# Witnesses that make Miller-Rabin deterministic for n < 3.3 * 10**24.
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


_PTR, _INT = ctypes.c_void_p, ctypes.c_int

# Every libcrypto symbol the seam uses: name -> (restype, argtypes).
_BN_SYMBOLS = {
    "BN_CTX_new": (_PTR, ()),
    "BN_CTX_free": (None, (_PTR,)),
    "BN_new": (_PTR, ()),
    "BN_clear_free": (None, (_PTR,)),
    "BN_bin2bn": (_PTR, (ctypes.c_char_p, _INT, _PTR)),
    "BN_bn2binpad": (_INT, (_PTR, ctypes.c_char_p, _INT)),
    "BN_mod_exp_mont_consttime": (_INT, (_PTR,) * 6),
    "BN_mod_exp_mont": (_INT, (_PTR,) * 6),
}


_bn = libcrypto.bind(_BN_SYMBOLS)

#: Which arithmetic :func:`modexp` and :func:`public_modexp` run on this
#: platform — read-only, for fingerprints, CI and docs.
MODEXP_BACKEND = "python" if _bn is None else "openssl-bn"


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` for a *secret* exponent, computed by
    OpenSSL's ``BN_mod_exp_mont_consttime`` when it can be.

    Even, zero and negative moduli, ``mod == 1`` and negative exponents
    always take the builtin, so they keep its value or its exception.
    Raises :class:`ArithmeticError` if libcrypto reports a failure
    (allocation) rather than return a wrong integer.
    """
    return _bn_modexp(base, exp, mod, "BN_mod_exp_mont_consttime")


def public_modexp(base: int, exp: int, mod: int) -> int:
    """:func:`modexp` for a *public* exponent (RSA verify and encrypt):
    OpenSSL's ``BN_mod_exp_mont``, the variable-time path its own RSA
    public operations take.  Same fallback and errors as :func:`modexp`."""
    return _bn_modexp(base, exp, mod, "BN_mod_exp_mont")


def _bn_modexp(base: int, exp: int, mod: int, routine: str) -> int:
    """The body both exponentiations share; ``routine`` names the BN
    function that computes."""
    bn = _bn
    if bn is None or exp < 0 or mod < 3 or not mod & 1:
        return pow(base, exp, mod)
    size = (mod.bit_length() + 7) // 8
    base %= mod
    a = base.to_bytes((base.bit_length() + 7) // 8, "big")
    p = exp.to_bytes((exp.bit_length() + 7) // 8, "big")
    out = (ctypes.c_char * size)()
    bin2bn = bn["BN_bin2bn"]
    ctx = bn["BN_CTX_new"]()
    numbers = ()
    try:
        numbers = (
            bn["BN_new"](),
            bin2bn(a, len(a), None),
            bin2bn(p, len(p), None),
            bin2bn(mod.to_bytes(size, "big"), size, None),
        )
        if ctx is None or None in numbers:
            raise ArithmeticError("libcrypto could not allocate a BIGNUM")
        if bn[routine](*numbers, ctx, None) != 1:
            raise ArithmeticError(f"{routine} failed")
        if bn["BN_bn2binpad"](numbers[0], out, size) != size:
            raise ArithmeticError("BN_bn2binpad failed")
    finally:
        clear_free = bn["BN_clear_free"]
        for number in numbers:
            clear_free(number)  # freeing NULL is a no-op, here and below
        bn["BN_CTX_free"](ctx)
    return int.from_bytes(out.raw, "big")


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True means "probably prime so far"."""
    x = modexp(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24, probabilistic (``rounds`` random
    witnesses) above that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < 3_317_044_064_679_887_385_961_981:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n]
    else:
        witnesses = [secrets.randbelow(n - 3) + 2 for _ in range(rounds)]

    return all(_miller_rabin_round(n, a, d, r) for a in witnesses)


def generate_prime(bits: int) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size too small")
    while True:
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate):
            return candidate


def generate_safe_prime(bits: int) -> int:
    """Generate a safe prime p (p = 2q + 1 with q prime).

    Only used for small test DH groups; standard groups are constants.
    """
    while True:
        q = generate_prime(bits - 1)
        p = 2 * q + 1
        if is_probable_prime(p):
            return p


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m`` (extended Euclid)."""
    g, x = _extended_gcd(a % m, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple:
    """Return (gcd, x) such that a*x ≡ gcd (mod b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


def int_to_bytes(n: int, length: int = 0) -> bytes:
    """Big-endian encoding of a non-negative integer.

    With ``length == 0`` the minimal number of bytes is used (at least 1).
    """
    if n < 0:
        raise ValueError("negative integers are not supported")
    if length == 0:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")
