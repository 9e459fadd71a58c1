"""Provider-layer tests: frozen wire vectors, keystream correctness
against independent references, MAC backend unification, and the
provider-aware pooling / calibration satellites.

The OpenSSL-dependent tests skip cleanly when ``cryptography`` is
absent; everything the pure provider owns runs everywhere.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
from pathlib import Path

import pytest

from repro.crypto.aes import AES
from repro.crypto.fastcipher import (
    KEYSTREAM_POOL,
    _measured_numpy_crossover,
    clear_keystream_cache,
)
from repro.crypto.hmaccache import CachedHmacSha256
from repro.crypto.provider import (
    OPENSSL,
    PROVIDERS,
    PURE,
    CryptoProvider,
    get_provider,
)
from repro.mctls import keys as mk
from repro.mctls.record import McTLSRecordLayer
from repro.tls.ciphersuites import SUITES
from repro.tls.record import APPLICATION_DATA, RecordLayer

needs_openssl = pytest.mark.skipif(
    not OPENSSL.available, reason="cryptography package not importable"
)

VECTORS_PATH = Path(__file__).parent / "golden" / "provider_vectors.json"
PROVIDER_SUITE_IDS = {"aes128-ctr": 0xFF68, "chacha20": 0xFF69}


def _vectors() -> dict:
    return json.loads(VECTORS_PATH.read_text())


def _suite(name: str):
    return SUITES[PROVIDER_SUITE_IDS[name]]


# -- registry -----------------------------------------------------------------


def test_registry_contents():
    assert get_provider("pure") is PURE
    assert get_provider("openssl") is OPENSSL
    assert set(PROVIDERS) == {"pure", "openssl"}
    with pytest.raises(KeyError):
        get_provider("sgx-enclave")


def test_pure_provider_is_default_for_existing_suites():
    assert SUITES[0xFF67].provider == "pure"
    assert SUITES[0x0067].provider == "pure"


@needs_openssl
def test_openssl_suites_registered_when_available():
    assert SUITES[0xFF68].provider == "openssl"
    assert SUITES[0xFF69].provider == "openssl"


# -- frozen wire vectors ------------------------------------------------------


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_vectors_match_regenerated(name):
    """Regenerating a suite's vector group must reproduce the frozen
    bytes exactly — same contract as record_vectors.json for the pure
    suites."""
    from tests.golden.gen_provider_vectors import build_provider_vectors

    frozen = _vectors()
    rebuilt = build_provider_vectors()
    assert rebuilt["suites"][name] == frozen["suites"][name]


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_tls_records_decode(name):
    group = _vectors()["suites"][name]["tls"]
    suite = _suite(name)
    reader = RecordLayer()
    reader.read_state.activate(
        suite,
        suite.new_cipher(bytes.fromhex(group["enc_key"])),
        bytes.fromhex(group["mac_key"]),
    )
    for rec in group["records"]:
        reader.feed(bytes.fromhex(rec["wire"]))
        content_type, plaintext = reader.read_record()
        assert content_type == APPLICATION_DATA
        assert plaintext == bytes.fromhex(rec["payload"])


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
@pytest.mark.parametrize("direction", ["mctls_c2s", "mctls_s2c"])
def test_frozen_mctls_records_decode(name, direction):
    group = _vectors()["suites"][name][direction]
    suite = _suite(name)
    is_client_writer = direction == "mctls_c2s"
    reader = McTLSRecordLayer(is_client=not is_client_writer)
    reader.set_suite(suite)
    reader.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    reader.install_context_keys(
        1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    reader.activate_write()
    reader.activate_read()
    for rec in group["records"]:
        reader.feed(bytes.fromhex(rec["wire"]))
        record = reader.read_record()
        assert record.context_id == rec["context_id"]
        assert record.payload == bytes.fromhex(rec["payload"])


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_burst_equals_sequential_concat(name):
    """The frozen burst wires must equal the concatenation of the
    frozen per-record wires — nonces are drawn in record order."""
    group = _vectors()["suites"][name]
    assert group["tls_burst"] == "".join(r["wire"] for r in group["tls"]["records"])
    for direction in ("mctls_c2s", "mctls_s2c"):
        assert group[f"{direction}_burst"] == "".join(
            r["wire"] for r in group[direction]["records"]
        )


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_rebuild_cases_decode(name):
    group = _vectors()["suites"][name]["middlebox_rebuild"]
    suite = _suite(name)
    server = McTLSRecordLayer(is_client=False)
    server.set_suite(suite)
    server.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    server.install_context_keys(
        1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    server.activate_write()
    server.activate_read()
    for case in group["cases"]:
        server.feed(bytes.fromhex(case["rebuilt_wire"]))
        record = server.read_record()
        assert record.payload == bytes.fromhex(case["replacement_payload"])
        modified = case["replacement_payload"] != case["original_payload"]
        assert record.legally_modified == modified


# -- keystream correctness against independent references ---------------------


@needs_openssl
def test_aes_ctr_keystream_matches_pure_python_aes():
    """The persistent-ECB generator must equal CTR mode computed from
    the repo's own pure-Python AES, block by block."""
    key = bytes(range(16))
    gen = OPENSSL.aes_ctr_keystream(key)
    ref = AES(key)
    for nonce_int, length in [
        (0, 1),
        (1, 16),
        (2**64 - 2, 100),  # low-half carry mid-run
        (2**128 - 1, 33),  # full wraparound
        (2**128 - 4, 48),  # last run that fits below 2^128 ...
        (2**128 - 3, 48),  # ... and the first that wraps
        (12345678901234567890, 352),
        (2**127 + 5, 16384 + 112),  # a full-size record
    ]:
        nonce = nonce_int.to_bytes(16, "big")
        expected = b"".join(
            ref.encrypt_block(((nonce_int + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(-(-length // 16))
        )
        got = bytes(gen.keystream(nonce, length))
        assert got == expected[: len(got)]
        assert len(got) >= length


@needs_openssl
def test_chacha20_keystream_deterministic_and_key_expanded():
    key16 = b"\xcc" * 16
    gen = OPENSSL.chacha20_keystream(key16)
    nonce = b"\x07" * 16
    a = bytes(gen.keystream(nonce, 100))
    b = bytes(OPENSSL.chacha20_keystream(key16).keystream(nonce, 100))
    assert a == b and len(a) == 100
    # 16-byte suite keys expand via SHA-256 to ChaCha20's 32 bytes.
    expanded = OPENSSL.chacha20_keystream(hashlib.sha256(key16).digest())
    assert bytes(expanded.keystream(nonce, 100)) == a


@needs_openssl
def test_openssl_unavailable_paths_raise(monkeypatch):
    from repro.crypto import provider as provider_mod

    p = provider_mod.OpenSSLProvider()
    monkeypatch.setattr(p, "available", False)
    with pytest.raises(RuntimeError, match="unavailable"):
        p.aes_ctr_keystream(b"k" * 16)
    with pytest.raises(RuntimeError, match="unavailable"):
        p.chacha20_keystream(b"k" * 16)
    # MAC stays usable (falls back to the hashlib implementation).
    assert p.mac_context(b"m" * 32).digest(b"x") == _hmac.new(
        b"m" * 32, b"x", hashlib.sha256
    ).digest()


# -- MAC unification ----------------------------------------------------------


@pytest.mark.parametrize("provider_name", sorted(PROVIDERS))
def test_provider_mac_matches_hmac_reference(provider_name):
    provider = PROVIDERS[provider_name]
    if provider_name == "openssl" and not provider.available:
        pytest.skip("cryptography package not importable")
    key = bytes(range(32))
    ctx = provider.mac_context(key)
    ref = _hmac.new(key, b"part-one|part-two", hashlib.sha256).digest()
    assert ctx.digest(b"part-one|", b"part-two") == ref
    assert provider.hmac(key, b"part-one|", b"part-two") == ref


@needs_openssl
def test_hazmat_and_hashlib_mac_backends_identical():
    from repro.crypto.provider import OpenSSLHmacSha256

    key = b"\x42" * 32
    for parts in [(b"",), (b"a", b"bc", b"def"), (memoryview(b"view-part"),)]:
        assert (
            OpenSSLHmacSha256(key).digest(*parts)
            == CachedHmacSha256(key).digest(*parts)
        )


def test_suite_mac_context_routes_through_provider():
    key = b"\x24" * 32
    ref = _hmac.new(key, b"record", hashlib.sha256).digest()
    for suite in SUITES.values():
        assert suite.mac_context(key).digest(b"record") == ref


# -- provider-aware pooling ---------------------------------------------------


def test_pool_worthwhile_thresholds():
    hit = KEYSTREAM_POOL.hit_cost_ns()
    assert hit > 0
    assert KEYSTREAM_POOL.worthwhile(hit * 100)
    assert not KEYSTREAM_POOL.worthwhile(hit * 0.5)


@needs_openssl
def test_pooled_generator_uses_shared_pool():
    clear_keystream_cache()
    gen = OPENSSL.aes_ctr_keystream(b"\xdd" * 16)
    if not gen.pooled:
        pytest.skip("pool self-disabled for AES-CTR on this host")
    nonce = b"\x11" * 16
    misses, hits = KEYSTREAM_POOL.misses, KEYSTREAM_POOL.hits
    first = gen.stream_for(nonce, 352)
    second = gen.stream_for(nonce, 352)
    assert first == second
    assert KEYSTREAM_POOL.misses == misses + 1
    assert KEYSTREAM_POOL.hits == hits + 1
    clear_keystream_cache()


@needs_openssl
def test_pool_keys_disambiguate_providers():
    """AES-CTR and ChaCha20 keystreams for the same (key, nonce) must
    never collide in the shared pool."""
    clear_keystream_cache()
    key, nonce = b"\xee" * 16, b"\x33" * 16
    aes = OPENSSL.aes_ctr_keystream(key)
    cha = OPENSSL.chacha20_keystream(key)
    if not (aes.pooled and cha.pooled):
        pytest.skip("pool self-disabled on this host")
    a = bytes(aes.stream_for(nonce, 64))[:64]
    c = bytes(cha.stream_for(nonce, 64))[:64]
    assert a != c
    assert bytes(aes.stream_for(nonce, 64))[:64] == a
    clear_keystream_cache()


# -- xor crossover calibration satellite --------------------------------------


def test_xor_crossover_measured_value_sane():
    value = _measured_numpy_crossover()
    assert value in (128, 256, 512, 1024, 2048, 4096) or value == 1 << 62
