"""The record-cipher seam: libcrypto's EVP under the paper's AES-128-CBC
suite (0x0067).

The references are independent of libcrypto: the repo's pure-Python AES
(CBC written out block by block) and the frozen wires in
``tests/golden/record_vectors.json`` (its ``aes128-cbc`` groups, which
must come out of both backends).  No option selects a backend, so the Python leg is forced the way a host
without libcrypto would force it: a subprocess whose ``ctypes.CDLL``
raises.  The last section pins what a cipher that keeps failing does to
a connection — whichever backend failed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import hmac as _hmac
import importlib
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.crypto import evp
from repro.crypto.aes import AES
from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.evp import CIPHER_BACKEND, EvpCipher, EvpError
from repro.crypto.fastcipher import _measured_numpy_crossover
from repro.crypto.modes import cbc_encrypt, pkcs7_pad
from repro.experiments.harness import Mode, TestBed
from repro.mctls.contexts import Permission
from repro.mctls.record import McTLSRecordError
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITES,
    AesCbcCipher,
    CipherError,
    EvpAesCbcCipher,
)
from repro.tls.connection import TLSError
from repro.tls.record import RecordError
from repro.transport import Chain

from tests.golden import gen_record_vectors as golden

needs_evp = pytest.mark.skipif(
    CIPHER_BACKEND != "openssl-evp",
    reason="no EVP seam on this platform: the suites run their Python path already",
)

REPO = Path(__file__).resolve().parents[1]
KEY = bytes(range(16))


# -- which suites run where ----------------------------------------------------


@needs_evp
def test_openssl_suites_registered_when_available():
    assert sorted(SUITES) == [0x0067, 0xFF67]
    assert SUITES[0x0067].cipher_factory is EvpAesCbcCipher
    assert evp.ALGORITHM in evp._evp


# -- frozen wire vectors ------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [pytest.param(EvpAesCbcCipher, marks=needs_evp, id="openssl-evp"),
     pytest.param(AesCbcCipher, id="python")],
)
def test_every_aes128_cbc_golden_vector(factory):
    """The paper's suite writes the frozen ``aes128-cbc`` wires from
    either backend: TLS records, both mcTLS directions, and a WRITE
    middlebox that opens and re-protects (its CBC cipher decrypts and
    encrypts under one key)."""
    frozen = json.loads(golden.VECTORS_PATH.read_text())["suites"]["aes128-cbc"]
    suite = dataclasses.replace(golden.SUITES["aes128-cbc"], cipher_factory=factory)
    groups = {
        "tls": lambda: golden._tls_vectors(suite),
        "mctls_c2s": lambda: golden._mctls_direction_vectors(suite, is_client=True),
        "mctls_s2c": lambda: golden._mctls_direction_vectors(suite, is_client=False),
        "middlebox_rebuild": lambda: golden._middlebox_rebuild_vectors(suite),
    }
    for name, build in groups.items():
        with golden._patched_nonces():
            assert build() == frozen[name], name


# -- the ciphers against independent references --------------------------------


# 0..3 whole blocks and every tail around them, then a bulk record body
# (16 KiB plus three MACs).
CBC_SIZES = (0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 16384, 16384 + 96)


@needs_evp
@pytest.mark.parametrize("size", CBC_SIZES)
def test_cbc_matches_pure_python_aes(size):
    data = bytes((7 * i) & 0xFF for i in range(size))
    iv = os.urandom(16)
    native = EvpCipher(KEY)
    expected = cbc_encrypt(AES(KEY), iv, pkcs7_pad(data))
    assert native.padded(True, iv, data) == expected
    assert native.padded(False, iv, expected) == data
    # Records cross backends both ways (the pure decrypt is the slow
    # one, so the 16 KiB body crosses in one direction only).
    record = EvpAesCbcCipher(KEY).encrypt(memoryview(data))
    assert AesCbcCipher(KEY).decrypt(record) == data
    if size <= 48:
        assert EvpAesCbcCipher(KEY).decrypt(AesCbcCipher(KEY).encrypt(data)) == data


def _bad_cbc_records():
    """(label, record) pairs both backends must reject."""
    ref, iv = AES(KEY), bytes(range(100, 116))

    def sealed(padded):
        return iv + cbc_encrypt(ref, iv, padded)

    return [
        ("pad byte 0", sealed(bytes(31) + b"\x00")),
        ("pad byte 17", sealed(bytes(31) + b"\x11")),
        ("inconsistent pad", sealed(bytes(28) + b"\x01\x04\x04\x04")),
        ("ragged length", sealed(bytes(15) + b"\x01" + bytes(16))[:-3]),
        ("IV only", iv + bytes(8)),
    ]


@pytest.mark.parametrize(
    "factory",
    [pytest.param(EvpAesCbcCipher, marks=needs_evp, id="openssl-evp"),
     pytest.param(AesCbcCipher, id="python")],
)
def test_cbc_padding_errors_are_cipher_errors(factory):
    cipher = factory(KEY)
    for label, record in _bad_cbc_records():
        with pytest.raises(CipherError):
            cipher.decrypt(record)
        # The failure leaves nothing behind: the next record opens.
        assert cipher.decrypt(AesCbcCipher(KEY).encrypt(b"fine")) == b"fine", label


# -- the seam's own rules ------------------------------------------------------


@needs_evp
@pytest.mark.parametrize("size", [160, 16384])
@pytest.mark.parametrize("suite_id, budget", [(0x0067, 3)])
def test_foreign_calls_per_record(monkeypatch, suite_id, budget, size):
    """Keyed once; per record only the IV is set: three foreign calls per
    record (the padding is a final call)."""
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for name in ("EVP_CIPHER_CTX_new", "EVP_CipherInit_ex", "EVP_CipherUpdate",
                 "EVP_CipherFinal_ex"):
        monkeypatch.setitem(evp._evp, name, counted(name, evp._evp[name]))
    suite = SUITES[suite_id]
    writer, reader = suite.new_cipher(KEY), suite.new_cipher(KEY)
    reader.decrypt(writer.encrypt(bytes(size)))  # keys one context each
    assert calls.count("EVP_CIPHER_CTX_new") == 2
    for _ in range(3):
        calls.clear()
        record = writer.encrypt(bytes(size))
        assert len(calls) == budget, calls
        calls.clear()
        assert reader.decrypt(record) == bytes(size)
        assert len(calls) == budget, calls


@needs_evp
def test_contexts_are_freed_when_the_cipher_dies(monkeypatch):
    freed = []
    real_free = evp._ctx_free
    monkeypatch.setattr(evp, "_ctx_free", lambda ctx: (freed.append(ctx), real_free(ctx)))
    cbc = EvpCipher(KEY)
    iv = bytes(16)
    cbc.padded(True, iv, b"one way")
    encrypting = cbc._contexts[1]
    assert cbc._contexts == [None, encrypting]
    del cbc
    assert freed == [encrypting]
    cbc = EvpCipher(KEY)
    assert cbc.padded(False, iv, cbc.padded(True, iv, b"both ways")) == b"both ways"
    contexts = list(cbc._contexts)
    assert all(contexts) and contexts[0] != contexts[1]
    del cbc
    assert sorted(freed[1:]) == sorted(contexts) and len(freed) == 3


@needs_evp
@pytest.mark.parametrize(
    "symbol, failed, leaked",
    [("EVP_CIPHER_CTX_new", None, 0), ("EVP_CipherInit_ex", 0, 1)],
)
def test_a_context_that_cannot_be_made_is_reported_and_not_kept(
    monkeypatch, symbol, failed, leaked
):
    freed = []
    real_free = evp._ctx_free
    monkeypatch.setattr(evp, "_ctx_free", lambda ctx: (freed.append(ctx), real_free(ctx)))
    monkeypatch.setitem(evp._evp, symbol, lambda *args: failed)
    cipher = EvpAesCbcCipher(KEY)
    with pytest.raises(CipherError, match=f"{symbol} failed"):
        cipher.encrypt(b"never keyed")
    assert len(freed) == leaked and cipher._evp._contexts == [None, None]


@needs_evp
def test_an_iv_of_the_wrong_length_never_reaches_libcrypto():
    for iv in (b"", bytes(15), bytes(17)):
        with pytest.raises(EvpError, match="16 bytes"):
            EvpCipher(KEY).padded(True, iv, b"x")
        with pytest.raises(EvpError, match="16 bytes"):
            EvpCipher(KEY).padded(False, iv, bytes(16))


def _no_library(*_args, **_kwargs):
    raise OSError("simulated: no loadable libcrypto")


class _Library:
    """A libcrypto stand-in: every symbol resolves but ``missing``, and
    ``EVP_CIPHER_fetch`` finds every algorithm but ``unfetchable``."""

    missing = ()
    unfetchable = ()

    def __init__(self, *_args, **_kwargs):
        pass

    def __getattr__(self, name):
        if name in self.missing:
            raise AttributeError(name)
        if name == "EVP_CIPHER_fetch":
            return lambda _lib, algorithm, _props: (
                None if algorithm.decode() in self.unfetchable else 0xC1F
            )
        return lambda *args: 1


class _OpenSSL11(_Library):
    """Before 3.0 there is no ``EVP_CIPHER_fetch``."""

    missing = ("EVP_CIPHER_fetch",)


class _NoAesCbc(_Library):
    """A build that cannot fetch the paper's cipher."""

    unfetchable = ("AES-128-CBC",)


class _NoStreamCiphers(_Library):
    """A build (a FIPS-only provider, say) that cannot fetch ChaCha20 or
    AES-128-CTR — neither of which any suite runs."""

    unfetchable = ("ChaCha20", "AES-128-CTR")


def _reloaded(cdll):
    """``(CIPHER_BACKEND, _evp, _ctx_free)`` as :mod:`evp` selects them
    over the library ``cdll`` loads; the module is put back as it was."""
    saved = dict(vars(evp))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ctypes, "CDLL", cdll)
            importlib.reload(evp)
        return evp.CIPHER_BACKEND, evp._evp, evp._ctx_free
    finally:
        # Put the module back as it was (a second reload would fork its
        # classes away from the ones ciphersuites imported by name).
        vars(evp).clear()
        vars(evp).update(saved)


@pytest.mark.parametrize(
    "cdll", [_no_library, _OpenSSL11, _NoAesCbc],
    ids=["absent", "no-EVP_CIPHER_fetch", "no-AES-128-CBC"],
)
def test_import_without_a_usable_seam_selects_python(cdll):
    """Missing library, symbol or algorithm: the Python path completely —
    never a seam with some symbols bound."""
    assert _reloaded(cdll) == ("python", None, None)
    assert evp.CIPHER_BACKEND == CIPHER_BACKEND


def test_a_library_without_other_algorithms_keeps_the_paper_suite_native():
    """The seam fetches AES-128-CBC alone: a libcrypto that cannot fetch
    ChaCha20 or AES-128-CTR still runs 0x0067 on EVP, not on
    pure-Python AES."""
    backend, bound, _free = _reloaded(_NoStreamCiphers)
    assert backend == "openssl-evp"
    assert bound[evp.ALGORITHM] == 0xC1F
    assert evp.CIPHER_BACKEND == CIPHER_BACKEND


@needs_evp
def test_concurrent_ciphers_share_no_native_state():
    """``ctypes`` releases the GIL around every call; each thread's
    records must still come out exactly as when computed alone."""
    threads, records = 8, 150
    expected = {}
    for index in range(threads):
        cipher = EvpCipher(bytes([index]) * 16)
        expected[index] = [
            cipher.padded(True, call.to_bytes(16, "big"), bytes(4000 + 37 * call))
            for call in range(records)
        ]
    wrong: list = []

    def worker(index: int) -> None:
        cipher = EvpCipher(bytes([index]) * 16)
        for call in range(records):
            got = cipher.padded(True, call.to_bytes(16, "big"), bytes(4000 + 37 * call))
            if got != expected[index][call]:
                wrong.append((index, call))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert wrong == []


_WITHOUT_LIBCRYPTO = """
import ctypes


def _no_library(*_args, **_kwargs):
    raise OSError("simulated: no loadable libcrypto")


ctypes.CDLL = _no_library
"""

_ON_PURE_PYTHON = """
import json

from repro.crypto import evp, fastcipher, numtheory
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.mctls import McTLSApplicationData
from repro.tls import ciphersuites as cs
from repro.transport import Chain
from tests.golden import gen_record_vectors as golden

frozen = json.loads(golden.VECTORS_PATH.read_text())["suites"]["aes128-cbc"]
suite = golden.SUITES["aes128-cbc"]
golden_ok = []
for name, build in (
    ("tls", lambda: golden._tls_vectors(suite)),
    ("mctls_c2s", lambda: golden._mctls_direction_vectors(suite, is_client=True)),
    ("middlebox_rebuild", lambda: golden._middlebox_rebuild_vectors(suite)),
):
    with golden._patched_nonces():
        golden_ok.append(build() == frozen[name])

bed = TestBed(
    key_bits=512, dh_group=GROUP_TEST_512, suite=cs.SUITE_DHE_RSA_AES128_CBC_SHA256
)
client, server = bed.make_endpoints(Mode.MCTLS, topology=bed.topology(1))
chain = Chain(client, bed.make_relays(Mode.MCTLS, 1), server)
client.start_handshake()
chain.pump()
client.send_application_data(b"on pure-Python AES", context_id=1)
delivered = [e.data.decode() for e in chain.pump() if isinstance(e, McTLSApplicationData)]
print(json.dumps({
    "backends": [evp.CIPHER_BACKEND, fastcipher.KEYSTREAM_BACKEND, numtheory.MODEXP_BACKEND],
    "suites": sorted(cs.SUITES),
    "factory": cs.SUITE_DHE_RSA_AES128_CBC_SHA256.cipher_factory.__name__,
    "golden": golden_ok,
    "negotiated": server.negotiated_suite.suite_id,
    "delivered": delivered,
}))
"""


def test_without_libcrypto_the_paper_suite_runs_on_pure_python(tmp_path):
    """A whole program on a host where no libcrypto loads: every seam on
    its Python path, the same two suites registered, and 0x0067 still
    writing the frozen wires and carrying a handshake and data through a
    middlebox."""
    (tmp_path / "sitecustomize.py").write_text(_WITHOUT_LIBCRYPTO)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(REPO / "src"), str(REPO)])
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_ON_PURE_PYTHON)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report == {
        "backends": ["python", "python", "python"],
        "suites": [0x0067, 0xFF67],
        "factory": "AesCbcCipher",
        "golden": [True, True, True],
        "negotiated": 0x0067,
        "delivered": ["on pure-Python AES"],
    }


# -- MAC identity and the XOR crossover ------------------------------------------


def test_suite_mac_context_routes_through_provider():
    """Every suite's record MAC is HMAC-SHA256 with a cached key
    schedule, whoever computes its cipher."""
    key = b"\x24" * 32
    ref = _hmac.new(key, b"record", hashlib.sha256).digest()
    for suite in SUITES.values():
        assert suite.mac_context(key).digest(b"rec", memoryview(b"ord")) == ref


def test_xor_crossover_measured_value_sane():
    value = _measured_numpy_crossover()
    assert value in (128, 256, 512, 1024, 2048, 4096) or value == 1 << 62


# -- a cipher that keeps failing ------------------------------------------------
#
# Once the bulk cipher fails on every call, no record can be protected:
# not the data, and not the alert that would report the failure.  The
# connection must still end typed and closed — receive path, close and
# write path alike — and a middlebox that re-protects a record it
# rewrote must report its own record error.


class _StubFault:
    """The suite's cipher class, patched: the failing operations raise."""

    def __init__(self, patch, suite):
        self.failing = ()
        cls = suite.cipher_factory
        for op in ("encrypt", "decrypt"):
            patch.setattr(cls, op, self._guarded(op, getattr(cls, op)))

    def _guarded(self, op, real):
        def call(cipher, data):
            if op in self.failing:
                raise CipherError(f"stub: {op} failed")
            return real(cipher, data)

        return call


class _EvpFault:
    """The seam's ``EVP_CipherUpdate`` returns 0 for the failing
    operations — told apart by the direction each context was keyed in."""

    def __init__(self, patch, suite):
        self.failing = ()
        self._encrypting = {}
        init, update = evp._evp["EVP_CipherInit_ex"], evp._evp["EVP_CipherUpdate"]

        def keyed(ctx, algorithm, engine, key, iv, enc):
            if algorithm is not None:
                self._encrypting[ctx] = enc == 1
            return init(ctx, algorithm, engine, key, iv, enc)

        def failing_update(ctx, *args):
            op = "encrypt" if self._encrypting[ctx] else "decrypt"
            return 0 if op in self.failing else update(ctx, *args)

        patch.setitem(evp._evp, "EVP_CipherInit_ex", keyed)
        patch.setitem(evp._evp, "EVP_CipherUpdate", failing_update)


@pytest.fixture(scope="module")
def cbc_bed():
    # 0x0067: encryption and decryption are different operations (and,
    # on the seam, different contexts), so one can fail alone.
    return TestBed(
        key_bits=512, dh_group=GROUP_TEST_512, suite=SUITE_DHE_RSA_AES128_CBC_SHA256
    )


@pytest.fixture(params=["stub", pytest.param("evp", marks=needs_evp)])
def fault(request, monkeypatch):
    maker = _StubFault if request.param == "stub" else _EvpFault
    return maker(monkeypatch, SUITE_DHE_RSA_AES128_CBC_SHA256)


STACKS = {Mode.E2E_TLS: RecordError, Mode.MCTLS: McTLSRecordError}


def _connected(bed, mode, permission=Permission.WRITE):
    topology = bed.topology(1, permission=permission) if mode.has_contexts else None
    client, server = bed.make_endpoints(mode, topology=topology)
    relay = bed.make_relays(mode, 1)[0]
    chain = Chain(client, [relay], server)
    client.start_handshake()
    chain.pump()
    assert client.handshake_complete and server.handshake_complete
    assert server.negotiated_suite is SUITE_DHE_RSA_AES128_CBC_SHA256
    return client, relay, server


def _one_record(client, mode) -> bytes:
    if mode.has_contexts:
        client.send_application_data(b"a record", context_id=1)
    else:
        client.send_application_data(b"a record")
    return client.data_to_send()


@pytest.mark.parametrize("mode", list(STACKS), ids=lambda m: m.value)
def test_failing_cipher_on_receive_fails_typed_and_closed(cbc_bed, fault, mode):
    # A NONE middlebox forwards the record unopened to the server.
    client, relay, server = _connected(cbc_bed, mode, permission=Permission.NONE)
    wire = _one_record(client, mode)
    relay.receive_from_client(wire)
    forwarded = relay.data_to_server()
    fault.failing = ("encrypt", "decrypt")
    with pytest.raises(TLSError) as caught:
        server.receive_data(forwarded)
    assert isinstance(caught.value.__cause__, STACKS[mode])
    assert server.closed
    assert server.data_to_send() == b""  # the fatal alert could not be protected
    assert server.receive_data(forwarded) == []


@pytest.mark.parametrize("mode", list(STACKS), ids=lambda m: m.value)
def test_failing_cipher_on_close_still_closes(cbc_bed, fault, mode):
    client, _relay, _server = _connected(cbc_bed, mode)
    fault.failing = ("encrypt", "decrypt")
    client.close()
    assert client.closed
    assert client.data_to_send() == b""  # close_notify dropped, nothing raised


@pytest.mark.parametrize("mode", list(STACKS), ids=lambda m: m.value)
def test_failing_cipher_on_write_raises_the_record_error(cbc_bed, fault, mode):
    client, _relay, _server = _connected(cbc_bed, mode)
    fault.failing = ("encrypt", "decrypt")
    with pytest.raises(STACKS[mode]) as caught:
        _one_record(client, mode)
    assert isinstance(caught.value.__cause__, CipherError)
    assert client.closed and client.data_to_send() == b""
    with pytest.raises(TLSError, match="closed"):
        client.send_application_data(b"again", context_id=1)


def test_failing_cipher_on_middlebox_rewrite_is_its_record_error(cbc_bed, fault):
    client, relay, server = _connected(cbc_bed, Mode.MCTLS)
    relay.transformer = lambda direction, context_id, payload: payload.upper()
    wire = _one_record(client, Mode.MCTLS)
    fault.failing = ("encrypt",)  # it opens the record, then cannot re-protect it
    with pytest.raises(TLSError) as caught:
        relay.receive_from_client(wire)
    cause = caught.value.__cause__
    assert isinstance(cause, McTLSRecordError) and cause.where == "middlebox"
    assert isinstance(cause.__cause__, CipherError)
    assert relay.closed and relay.data_to_server() == b""
