"""The record cipher on libcrypto's EVP interface.

**The cipher seam.**  The bulk cipher of the AES-128-CBC suite (0x0067)
in :mod:`repro.tls.ciphersuites` runs on :class:`EvpCipher` and nothing
else when :func:`repro.crypto.libcrypto.bind` resolves every symbol in
``_EVP_SYMBOLS`` and ``EVP_CIPHER_fetch`` returns AES-128-CBC.
Otherwise 0x0067 runs the pure-Python AES in :mod:`repro.crypto.aes`.
The choice is made once, at import, from what the platform offers —
there is no option to set — and :data:`CIPHER_BACKEND`
(``"openssl-evp"`` or ``"python"``) only reports it.  A missing library,
a missing symbol (``EVP_CIPHER_fetch`` is OpenSSL 3.0's) or a failed
fetch selects the Python path completely.  Only AES-128-CBC is fetched,
so a build that lacks any other algorithm still runs the paper's suite
natively.

*Contexts.*  An :class:`EvpCipher` is AES-128-CBC under one key, and a
record cipher holds one per connection direction (``suite.new_cipher``
is called per direction key).  It keys an ``EVP_CIPHER_CTX`` per
operation on first use — CBC decryption runs AES's inverse key schedule,
so a cipher that is also asked to encrypt (a middlebox re-protecting a
record it opened) keys a second one — and frees them when the object
dies.  Per record only the IV is set: ``EVP_CipherInit_ex`` with a NULL
key, then ``EVP_CipherUpdate`` and ``EVP_CipherFinal_ex`` for the PKCS#7
padding — three foreign calls per record.

*Thread rule.*  ``ctypes`` drops the GIL around every foreign call, so a
context must never be shared: each belongs to one direction of one
connection, and a connection is driven by one thread at a time.  Every
call owns its output buffer.  The module-level native state is the one
fetched ``EVP_CIPHER*``, immutable and never freed.

Every return code is checked: a failure (allocation, a bad padding or
length on decrypt) clears libcrypto's error queue and raises
:class:`EvpError`, never a short or stale buffer; the record cipher
translates it to its ``CipherError``.
"""

from __future__ import annotations

import ctypes

from repro.crypto import libcrypto

_PTR, _INT = ctypes.c_void_p, ctypes.c_int
_OUT_LEN = ctypes.POINTER(ctypes.c_int)

# Every libcrypto symbol the seam uses: name -> (restype, argtypes).
_EVP_SYMBOLS = {
    "EVP_CIPHER_fetch": (_PTR, (_PTR, ctypes.c_char_p, ctypes.c_char_p)),
    "EVP_CIPHER_CTX_new": (_PTR, ()),
    "EVP_CIPHER_CTX_free": (None, (_PTR,)),
    "EVP_CipherInit_ex": (
        _INT,
        (_PTR, _PTR, _PTR, ctypes.c_char_p, ctypes.c_char_p, _INT),
    ),
    "EVP_CipherUpdate": (_INT, (_PTR, _PTR, _OUT_LEN, ctypes.c_char_p, _INT)),
    "EVP_CipherFinal_ex": (_INT, (_PTR, _PTR, _OUT_LEN)),
    "ERR_clear_error": (None, ()),
}

#: The algorithm the paper's suite runs, by its OpenSSL name.
ALGORITHM = "AES-128-CBC"


def _bind_evp():
    """The bound functions plus the fetched ``EVP_CIPHER*`` under
    :data:`ALGORITHM`, or None for the Python path."""
    bound = libcrypto.bind(_EVP_SYMBOLS)
    if bound is None:
        return None
    algorithm = bound["EVP_CIPHER_fetch"](None, ALGORITHM.encode(), None)
    if not algorithm:
        return None
    bound[ALGORITHM] = algorithm
    return bound


_evp = _bind_evp()

#: Who computes the paper's suite's bulk cipher on this platform —
#: read-only, for fingerprints, CI and docs.
CIPHER_BACKEND = "python" if _evp is None else "openssl-evp"

_ctx_free = None if _evp is None else _evp["EVP_CIPHER_CTX_free"]


class EvpError(Exception):
    """libcrypto reported a failure inside a cipher call."""


def _failure(call: str) -> EvpError:
    _evp["ERR_clear_error"]()  # leave nothing for the next caller to misread
    return EvpError(f"{call} failed")


class EvpCipher:
    """AES-128-CBC under one key.

    Only constructed when :data:`CIPHER_BACKEND` is ``"openssl-evp"``.
    ``iv`` is 16 bytes (libcrypto reads that many from the pointer);
    ``data`` may be any bytes-like; results are ``bytes``.
    """

    __slots__ = ("_key", "_contexts")

    def __init__(self, key: bytes) -> None:
        self._key = bytes(key)
        self._contexts = [None, None]  # keyed to decrypt, to encrypt

    def __del__(self) -> None:
        free = _ctx_free
        if free is None:  # module globals already cleared at shutdown
            return
        for ctx in self._contexts:
            if ctx:
                free(ctx)

    def _context(self, encrypt: int):
        evp = _evp
        ctx = evp["EVP_CIPHER_CTX_new"]()
        if not ctx:
            raise _failure("EVP_CIPHER_CTX_new")
        keyed = evp["EVP_CipherInit_ex"](ctx, evp[ALGORITHM], None, self._key, None, encrypt)
        if keyed != 1:
            _ctx_free(ctx)
            raise _failure("EVP_CipherInit_ex")
        self._contexts[encrypt] = ctx
        return ctx

    def padded(self, encrypt: bool, iv: bytes, data) -> bytes:
        """CBC with PKCS#7 padding added (``encrypt``) or checked and
        removed: set ``iv`` on the context keyed for that operation and
        run ``data`` through it in three foreign calls.  Bad padding or a
        length that is not whole blocks raises :class:`EvpError` on
        decrypt."""
        if len(iv) != 16:
            raise EvpError("IV must be 16 bytes")
        if type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        encrypt = int(encrypt)
        ctx = self._contexts[encrypt] or self._context(encrypt)
        evp = _evp
        out = ctypes.create_string_buffer(size + 16)
        written = ctypes.c_int()
        if evp["EVP_CipherInit_ex"](ctx, None, None, None, iv, -1) != 1:
            raise _failure("EVP_CipherInit_ex")
        if evp["EVP_CipherUpdate"](ctx, out, ctypes.byref(written), data, size) != 1:
            raise _failure("EVP_CipherUpdate")
        total = written.value
        if evp["EVP_CipherFinal_ex"](ctx, ctypes.byref(out, total), ctypes.byref(written)) != 1:
            raise _failure("EVP_CipherFinal_ex")
        return out[: total + written.value]
