"""The SHA-CTR keystream seam: ``PKCS1_MGF1`` and the Python
``copy / update / digest`` loop must be indistinguishable to everything
above :func:`repro.crypto.fastcipher.keystream_blocks`.

The oracle throughout is the cipher's definition written out with
``hashlib``.  The forced-fallback leg lives here (the ``backend`` fixture
patches the module onto the Python loop) because no option exists to
select a backend at run time.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib
import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import ApplicationData
from repro.crypto import fastcipher
from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.fastcipher import KeystreamError, ShaCtrCipher, clear_keystream_cache
from repro.experiments.harness import Mode, TestBed
from repro.experiments.throughput import ProfiledNode
from repro.mctls.contexts import Permission
from repro.mctls.record import McTLSRecordError
from repro.tls.connection import TLSError
from repro.transport import Chain

from tests.golden import gen_record_vectors as golden

needs_mgf1 = pytest.mark.skipif(
    fastcipher.KEYSTREAM_BACKEND == "python",
    reason="no PKCS1_MGF1 on this platform: the keystream is the Python loop already",
)


@contextlib.contextmanager
def forced_python():
    """Put the seam on its Python loop, as on a host without libcrypto."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastcipher, "_mgf1", None)
        patch.setattr(fastcipher, "KEYSTREAM_BACKEND", "python")
        clear_keystream_cache()  # a pooled stream would skip the seam
        yield
    clear_keystream_cache()


@pytest.fixture(params=[pytest.param("openssl-mgf1", marks=needs_mgf1), "python"])
def backend(request):
    if request.param == "python":
        with forced_python():
            yield request.param
    else:
        clear_keystream_cache()
        yield request.param


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


def oracle(key: bytes, nonce: bytes, size: int) -> bytes:
    """Block i = SHA256(key || nonce || I2OSP(i, 8)), from the definition."""
    blocks = (
        hashlib.sha256(key + nonce + i.to_bytes(8, "big")).digest()
        for i in range((size + 31) // 32)
    )
    return b"".join(blocks)[:size]


# -- (a) differential: native vs Python loop vs the definition ------------------

# Tails that are not a multiple of 32, the pool's admission edge (4 096),
# a bulk record body (16 KiB + three MACs), the one-chunk edge (65 536)
# and the chunked path above it.
SIZES = (0, 1, 31, 32, 33, 4096, 4097, 16384 + 3 * 32, 65536, 65537, 200_000)


@st.composite
def keys_and_nonces(draw):
    key = draw(st.binary(min_size=16, max_size=16) | st.binary(min_size=32, max_size=32))
    nonce = draw(st.binary(min_size=1, max_size=48))
    return key, nonce


@needs_mgf1
class TestDifferential:
    @given(keys_and_nonces(), st.sampled_from(SIZES) | st.integers(0, 5000), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_streams_match_the_definition(self, key_nonce, size, as_view):
        key, nonce = key_nonce
        expected = oracle(key, nonce, size)
        wire_nonce = memoryview(nonce) if as_view else nonce
        clear_keystream_cache()
        native = ShaCtrCipher(key).keystream(wire_nonce, size)
        with forced_python():
            python = ShaCtrCipher(key).keystream(wire_nonce, size)
        assert native == python == expected

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("key_len", (16, 32))
    def test_every_size_at_both_key_lengths(self, key_len, size):
        key, nonce = bytes(range(key_len)), bytes(range(100, 116))
        data = bytes(i * 7 & 0xFF for i in range(size))
        stream = oracle(key, nonce, size)
        expected = bytes(a ^ b for a, b in zip(data, stream))
        for view in (bytes, memoryview):
            clear_keystream_cache()
            native = ShaCtrCipher(key).xor(view(nonce), view(data))
            with forced_python():
                python = ShaCtrCipher(key).xor(view(nonce), view(data))
            assert native == python == expected
        assert ShaCtrCipher(key).keystream(nonce, size) == stream

    def test_blocks_past_the_first_chunk_take_the_python_loop(self, monkeypatch):
        """The native path serves block 0 onward, one chunk at most."""
        calls = []
        generate, sha256 = fastcipher._mgf1

        def spy(out, size, *rest):
            calls.append(size)
            return generate(out, size, *rest)

        monkeypatch.setattr(fastcipher, "_mgf1", (spy, sha256))
        key, nonce = bytes(16), bytes(16)
        assert ShaCtrCipher(key).xor(nonce, bytes(200_000)) == oracle(key, nonce, 200_000)
        assert calls == [65536]
        assert ShaCtrCipher(key).keystream(nonce, 65537) == oracle(key, nonce, 65537)
        assert calls == [65536]


class TestEdges:
    def test_short_key_is_rejected(self, backend):
        with pytest.raises(ValueError):
            ShaCtrCipher(b"short")

    def test_empty_data_is_empty(self, backend):
        assert ShaCtrCipher(bytes(16)).xor(bytes(16), b"") == b""
        assert ShaCtrCipher(bytes(16)).keystream(bytes(16), 0) == b""

    def test_backend_names_what_runs(self, backend):
        assert fastcipher.KEYSTREAM_BACKEND == backend
        assert (fastcipher._mgf1 is None) == (backend == "python")


# -- (b) the frozen wire and the stacks above, under both backends ---------------


def test_every_shactr_golden_vector(backend):
    frozen = json.loads(golden.VECTORS_PATH.read_text())
    suite = golden.SUITES["shactr"]
    groups = {
        "tls": lambda: golden._tls_vectors(suite),
        "mctls_c2s": lambda: golden._mctls_direction_vectors(suite, is_client=True),
        "mctls_s2c": lambda: golden._mctls_direction_vectors(suite, is_client=False),
        "middlebox_rebuild": lambda: golden._middlebox_rebuild_vectors(suite),
    }
    for name, build in groups.items():
        with golden._patched_nonces():
            assert build() == frozen["suites"]["shactr"][name], name
    primitives = golden._primitive_vectors()
    assert primitives["shactr_xor"] == frozen["primitives"]["shactr_xor"]
    assert primitives["shactr_xor_big"] == frozen["primitives"]["shactr_xor_big"]


ECHO = bytes(range(256)) * 80  # 20 480 B: two records, the first a full 16 KiB


def _handshake_and_echo(bed, mode):
    """One handshake, ``ECHO`` to the server and back; per-party op counts."""
    topology = bed.topology(1, n_contexts=2) if mode.has_contexts else None
    client, server = bed.make_endpoints(mode, topology=topology)
    nodes = {
        "client": ProfiledNode(client),
        "middlebox": ProfiledNode(bed.make_relays(mode, 1)[0]),
        "server": ProfiledNode(server),
    }
    chain = Chain(nodes["client"], [nodes["middlebox"]], nodes["server"])

    def delivered(events):
        return b"".join(e.data for e in events if isinstance(e, ApplicationData))

    nodes["client"].start_handshake()
    chain.pump()
    assert client.handshake_complete and server.handshake_complete
    nodes["client"].send_application_data(ECHO)
    assert delivered(chain.pump()) == ECHO
    nodes["server"].send_application_data(ECHO)
    assert delivered(chain.pump()) == ECHO
    return {name: node.ops.snapshot() for name, node in nodes.items()}


@pytest.mark.parametrize(
    "mode", [Mode.MCTLS, Mode.E2E_TLS, Mode.MDTLS], ids=lambda m: m.value
)
def test_handshake_and_echo_with_equal_op_counts(bed, mode):
    """Table 3 counts are taken above the seam: one ``sym_encrypt`` /
    ``sym_decrypt`` per record whoever computes the blocks."""
    with forced_python():
        reference = _handshake_and_echo(bed, mode)
    clear_keystream_cache()
    assert _handshake_and_echo(bed, mode) == reference
    assert reference["client"]["sym_encrypt"] and reference["server"]["sym_decrypt"]


# -- (c) a libcrypto failure inside a record is a typed record error -------------


@contextlib.contextmanager
def mgf1_failing_once():
    """The next ``PKCS1_MGF1`` call reports failure (an allocation that
    did not succeed); later calls work again."""
    generate, sha256 = fastcipher._mgf1
    failures = []

    def flaky(*args):
        if not failures:
            failures.append(args)
            return -1
        return generate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastcipher, "_mgf1", (flaky, sha256))
        yield failures


@needs_mgf1
class TestNativeFailure:
    def test_seam_raises_its_typed_error(self):
        with mgf1_failing_once():
            with pytest.raises(KeystreamError):
                fastcipher.keystream_blocks(bytes(16), bytes(16), 0, 4)

    @pytest.mark.parametrize("where", ["endpoint", "middlebox"])
    def test_record_error_fatal_alert_once_and_no_plaintext(self, bed, where):
        # A NONE middlebox forwards the record unopened, so the failure
        # lands in the server's decrypt; a WRITE one decrypts it itself.
        permission = Permission.NONE if where == "endpoint" else Permission.WRITE
        topology = bed.topology(1, n_contexts=1, permission=permission)
        client, server = bed.make_endpoints(Mode.MCTLS, topology=topology)
        relay = bed.make_relays(Mode.MCTLS, 1)[0]
        chain = Chain(client, [relay], server)
        client.start_handshake()
        chain.pump()
        assert server.handshake_complete
        # Big enough that neither the pool nor a short stream hides it.
        client.send_application_data(bytes(8000), context_id=1)
        wire = client.data_to_send()
        clear_keystream_cache()
        with mgf1_failing_once() as failures:
            with pytest.raises(TLSError) as caught:
                relay.receive_from_client(wire)  # a WRITE middlebox stops here
                server.receive_data(relay.data_to_server())
            assert len(failures) == 1
            cause = caught.value.__cause__
            assert isinstance(cause, McTLSRecordError)
            assert "decryption failed" in str(cause)
            assert isinstance(cause.__cause__.__cause__, KeystreamError)
            if where == "endpoint":
                assert server.closed
                alert = server.data_to_send()
                assert alert and server.data_to_send() == b""  # queued once
                assert server.receive_data(wire) == []  # and nothing after it
            else:
                assert relay.closed
                assert relay.data_to_server() == b""  # nothing partial forwarded
                assert relay.receive_from_client(wire) == []


# -- (d) thread safety -----------------------------------------------------------


@needs_mgf1
def test_concurrent_streams_share_no_native_buffer():
    """``ctypes`` releases the GIL around ``PKCS1_MGF1``; a module-shared
    output buffer would be overwritten mid-stream here."""
    threads, calls = 8, 200
    wrong: list = []

    def worker(index: int) -> None:
        cipher = ShaCtrCipher(bytes([index]) * 16)
        for call in range(calls):
            nonce = call.to_bytes(16, "big")
            size = 4100 + 37 * call  # past the pool: every call is generated
            if cipher.keystream(nonce, size) != oracle(bytes([index]) * 16, nonce, size):
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


# -- (e) a platform without a usable libcrypto -----------------------------------


def _no_library(*_args, **_kwargs):
    raise OSError("simulated: no loadable libcrypto")


class _LibraryWithoutMgf1:
    """A ``no-deprecated`` OpenSSL 3 build: ``PKCS1_MGF1`` is not exported."""

    fetched = 0xD16E57

    def __init__(self, *_args, **_kwargs):
        pass

    def __getattr__(self, name):
        if name == "PKCS1_MGF1":
            raise AttributeError(name)
        return lambda *args: self.fetched


class _LibraryWhoseFetchFails(_LibraryWithoutMgf1):
    """Every symbol resolves but ``EVP_MD_fetch`` returns NULL."""

    fetched = None

    def __getattr__(self, name):
        return lambda *args: self.fetched


@contextlib.contextmanager
def reimported_with(cdll):
    """``importlib.reload`` of :mod:`fastcipher` with ``ctypes.CDLL``
    replaced, then the module exactly as it was: the module dict is put
    back rather than reloaded again, so the classes, the pool and the
    error type other modules imported by name stay the live ones."""
    saved = dict(vars(fastcipher))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ctypes, "CDLL", cdll)
            importlib.reload(fastcipher)
        yield
    finally:
        vars(fastcipher).clear()
        vars(fastcipher).update(saved)
        clear_keystream_cache()


@pytest.mark.parametrize(
    "cdll",
    [_no_library, _LibraryWithoutMgf1, _LibraryWhoseFetchFails],
    ids=["absent", "no-PKCS1_MGF1", "fetch-returns-NULL"],
)
def test_import_without_usable_libcrypto_selects_python(cdll, bed):
    """Missing library, symbol or digest: the Python loop silently and
    completely — never a half-bound backend — and records still flow."""
    platform_backend = fastcipher.KEYSTREAM_BACKEND
    with reimported_with(cdll):
        assert fastcipher.KEYSTREAM_BACKEND == "python"
        assert fastcipher._mgf1 is None
        key, nonce = bytes(range(16)), bytes(range(16))
        assert fastcipher.ShaCtrCipher(key).keystream(nonce, 5000) == oracle(key, nonce, 5000)
        # The stacks' record ciphers run their methods on the module's
        # globals, so this round trip is on the re-imported backend.
        _handshake_and_echo(bed, Mode.MCTLS)
    assert fastcipher.KEYSTREAM_BACKEND == platform_backend
    assert fastcipher.ShaCtrCipher is ShaCtrCipher
