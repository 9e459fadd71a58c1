"""Record ciphers on libcrypto's EVP interface.

**The cipher seam.**  The bulk ciphers of the AES-128-CBC (0x0067),
AES-128-CTR (0xFF68) and ChaCha20 (0xFF69) suites in
:mod:`repro.tls.ciphersuites` run on :class:`EvpCipher` and nothing else
when :func:`repro.crypto.libcrypto.bind` resolves every symbol in
``_EVP_SYMBOLS`` and ``EVP_CIPHER_fetch`` returns all three algorithms.
Otherwise 0x0067 runs the pure-Python AES in :mod:`repro.crypto.aes` and
the two stream suites are not registered at all.  The choice is made
once, at import, from what the platform offers — there is no option to
set — and :data:`CIPHER_BACKEND` (``"openssl-evp"`` or ``"python"``)
only reports it.  A missing library, a missing symbol (``EVP_CIPHER_fetch``
is OpenSSL 3.0's) or a failed fetch selects the Python path completely.

*Contexts.*  An :class:`EvpCipher` is one algorithm under one key, and a
record cipher holds one per connection direction (``suite.new_cipher``
is called per direction key).  It keys an ``EVP_CIPHER_CTX`` on first
use — one for a stream cipher, whose decryption is its encryption; CBC
decryption runs AES's inverse key schedule, so a CBC cipher that is also
asked to encrypt (a middlebox re-protecting a record it opened) keys a
second one — and frees them when the object dies.  Per record only the
IV is set: ``EVP_CipherInit_ex`` with a NULL key, then
``EVP_CipherUpdate``, plus ``EVP_CipherFinal_ex`` for CBC's PKCS#7
padding — two foreign calls per stream record, three per CBC record.

*Thread and fork rule.*  ``ctypes`` drops the GIL around every foreign
call, so a context must never be shared: each belongs to one direction
of one connection, and a connection is driven by one thread at a time.
Every call owns its output buffer.  The module-level native state is the
three fetched ``EVP_CIPHER*``, immutable, never freed and inherited
unchanged by a ``fork()`` (``repro.mp`` forks before any connection —
hence any context — exists).

Every return code is checked: a failure (allocation, a bad CBC padding
or length on decrypt) clears libcrypto's error queue and raises
:class:`EvpError`, never a short or stale buffer; the record ciphers
translate it to their ``CipherError``.
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

#: The algorithms the record suites run, by their OpenSSL names.
ALGORITHMS = ("AES-128-CBC", "AES-128-CTR", "ChaCha20")


def _bind_evp():
    """The bound functions plus each fetched ``EVP_CIPHER*`` under its
    algorithm name, or None for the Python path."""
    bound = libcrypto.bind(_EVP_SYMBOLS)
    if bound is None:
        return None
    for name in ALGORITHMS:
        algorithm = bound["EVP_CIPHER_fetch"](None, name.encode(), None)
        if not algorithm:
            return None
        bound[name] = algorithm
    return bound


_evp = _bind_evp()

#: Who computes the record suites' bulk cipher on this platform —
#: read-only, for fingerprints, CI and docs.
CIPHER_BACKEND = "python" if _evp is None else "openssl-evp"

_ctx_free = None if _evp is None else _evp["EVP_CIPHER_CTX_free"]


class EvpError(Exception):
    """libcrypto reported a failure inside a cipher call."""


def _failure(call: str) -> EvpError:
    _evp["ERR_clear_error"]()  # leave nothing for the next caller to misread
    return EvpError(f"{call} failed")


class EvpCipher:
    """``algorithm`` (one of :data:`ALGORITHMS`) under one key.

    Only constructed when :data:`CIPHER_BACKEND` is ``"openssl-evp"``.
    ``iv`` is 16 bytes (libcrypto reads that many from the pointer);
    ``data`` may be any bytes-like; results are ``bytes``.
    """

    __slots__ = ("_algorithm", "_key", "_contexts")

    def __init__(self, algorithm: str, key: bytes) -> None:
        self._algorithm = algorithm
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
        keyed = evp["EVP_CipherInit_ex"](
            ctx, evp[self._algorithm], None, self._key, None, encrypt
        )
        if keyed != 1:
            _ctx_free(ctx)
            raise _failure("EVP_CipherInit_ex")
        self._contexts[encrypt] = ctx
        return ctx

    def stream(self, iv: bytes, data) -> bytes:
        """``data`` XOR the keystream that starts at ``iv`` — encryption
        and decryption alike (AES-CTR, ChaCha20)."""
        return self._crypt(1, iv, data, False) if len(data) else b""

    def padded(self, encrypt: bool, iv: bytes, data) -> bytes:
        """CBC with PKCS#7 padding added (``encrypt``) or checked and
        removed; bad padding or a length that is not whole blocks raises
        :class:`EvpError` on decrypt."""
        return self._crypt(int(encrypt), iv, data, True)

    def _crypt(self, encrypt: int, iv: bytes, data, padded: bool) -> bytes:
        """Set ``iv`` on the context keyed for ``encrypt`` and run
        ``data`` through it: two foreign calls, three with the padding."""
        if len(iv) != 16:
            raise EvpError("IV must be 16 bytes")
        if type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        ctx = self._contexts[encrypt] or self._context(encrypt)
        evp = _evp
        out = ctypes.create_string_buffer(size + 16 if padded else size)
        written = ctypes.c_int()
        if evp["EVP_CipherInit_ex"](ctx, None, None, None, iv, -1) != 1:
            raise _failure("EVP_CipherInit_ex")
        if evp["EVP_CipherUpdate"](ctx, out, ctypes.byref(written), data, size) != 1:
            raise _failure("EVP_CipherUpdate")
        if not padded:
            return out.raw
        total = written.value
        if evp["EVP_CipherFinal_ex"](ctx, ctypes.byref(out, total), ctypes.byref(written)) != 1:
            raise _failure("EVP_CipherFinal_ex")
        return out[: total + written.value]
