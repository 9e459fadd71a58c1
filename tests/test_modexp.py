"""The ``modexp`` seam: OpenSSL BN and builtin ``pow()`` must be
indistinguishable to everything above :mod:`repro.crypto.numtheory`.

``pow()`` is the reference throughout.  The forced-fallback leg lives
here (the ``backend`` fixture patches the module onto the ``pow()``
path) because no option exists to select a backend at run time.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import numtheory
from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.numtheory import modexp, public_modexp
from repro.crypto.rsa import generate_rsa_key
from repro.experiments.harness import Mode, TestBed, profile_handshake

needs_bn = pytest.mark.skipif(
    numtheory.MODEXP_BACKEND == "python",
    reason="no loadable libcrypto on this platform: modexp is pow() already",
)


@contextlib.contextmanager
def forced_python():
    """Put the seam on its ``pow()`` path, as on a host without libcrypto."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numtheory, "_bn", None)
        patch.setattr(numtheory, "MODEXP_BACKEND", "python")
        yield


@pytest.fixture(
    params=[pytest.param("openssl-bn", marks=needs_bn), "python"]
)
def backend(request):
    if request.param == "python":
        with forced_python():
            yield request.param
    else:
        yield request.param


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


# -- (a) differential against pow() ------------------------------------------

EXPONENT_BITS = (0, 1, 17, 256, 1024)


@st.composite
def odd_moduli(draw):
    bits = draw(st.integers(2, 2048))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1


@st.composite
def exponents(draw):
    bits = draw(st.sampled_from(EXPONENT_BITS))
    if bits == 0:
        return 0
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


@st.composite
def bases(draw, mod):
    return draw(
        st.one_of(
            st.sampled_from([0, 1, mod - 1, mod, mod + 1, 3 * mod + 2]),
            st.integers(0, (1 << 1100) - 1),
        )
    )


@needs_bn
class TestDifferential:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_odd_moduli_match_pow(self, data):
        mod = data.draw(odd_moduli())
        exp = data.draw(exponents())
        base = data.draw(bases(mod))
        assert modexp(base, exp, mod) == pow(base, exp, mod)

    def test_every_exponent_size_at_both_modulus_extremes(self):
        for mod in (3, (1 << 2048) - 1):
            for bits in EXPONENT_BITS:
                exp = (1 << bits) - 1
                for base in (0, 1, 2, mod - 1, mod, mod + 5, (1 << 1100) - 1):
                    assert modexp(base, exp, mod) == pow(base, exp, mod), (base, bits, mod)

    def test_negative_base_is_reduced_like_pow(self):
        assert modexp(-5, 3, 7) == pow(-5, 3, 7)
        assert modexp(-(1 << 600), 65537, (1 << 521) - 1) == pow(-(1 << 600), 65537, (1 << 521) - 1)


class TestPublicModexp:
    """``public_modexp`` runs ``BN_mod_exp_mont`` instead of the
    constant-time routine; it must still be ``pow()`` exactly, on both
    backends, fallback inputs included."""

    @given(st.data())
    @settings(
        max_examples=100,
        deadline=None,
        # the backend is meant to hold for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_odd_moduli_match_pow(self, backend, data):
        bits = data.draw(st.integers(512, 2048))
        mod = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
        exp = data.draw(st.one_of(st.sampled_from([3, 65537]), exponents()))
        base = data.draw(bases(mod))
        assert public_modexp(base, exp, mod) == pow(base, exp, mod)

    def test_negative_and_oversized_bases_are_reduced_like_pow(self, backend):
        mod = (1 << 1023) + 1155  # odd
        for base in (-5, -(1 << 1100), mod, 3 * mod + 2, (1 << 2100) - 1):
            assert public_modexp(base, 65537, mod) == pow(base, 65537, mod), base

    def test_even_moduli_and_moduli_below_three(self, backend):
        for mod in (1, 2, 1 << 1024, (1 << 1024) + 2):
            assert public_modexp(12345, 65537, mod) == pow(12345, 65537, mod)

    def test_negative_exponent_and_pows_exceptions(self, backend):
        assert public_modexp(3, -1, 7) == pow(3, -1, 7) == 5
        for args in [(2, 3, 0), (2, -1, 4), (0, -1, 7)]:
            with pytest.raises(ValueError) as reference:
                pow(*args)
            with pytest.raises(ValueError) as ours:
                public_modexp(*args)
            assert str(ours.value) == str(reference.value)


class TestFallbackInputs:
    """Moduli and exponents a peer can choose: exactly ``pow()``'s value
    or ``pow()``'s exception, on either backend."""

    @given(st.integers(0, 1 << 1100), exponents(), st.integers(1, 1 << 1024))
    @settings(max_examples=60, deadline=None)
    def test_even_moduli_and_one(self, base, exp, half):
        for mod in (1, 2, 2 * half):
            assert modexp(base, exp, mod) == pow(base, exp, mod)

    def test_negative_modulus_has_pows_sign(self):
        assert modexp(2, 5, -7) == pow(2, 5, -7) == -3

    def test_negative_exponent_is_the_inverse(self):
        assert modexp(3, -1, 7) == pow(3, -1, 7) == 5
        assert modexp(3, -2, 7) == pow(3, -2, 7)

    @pytest.mark.parametrize(
        "args",
        [(2, 3, 0), (2, -1, 4), (0, -1, 7)],
        ids=["zero-modulus", "no-inverse-even", "no-inverse-zero"],
    )
    def test_same_exception_as_pow(self, args):
        with pytest.raises(ValueError) as reference:
            pow(*args)
        with pytest.raises(ValueError) as ours:
            modexp(*args)
        assert str(ours.value) == str(reference.value)


# -- (b) the layers above, under both backends --------------------------------


class TestBothBackends:
    def test_rsa_roundtrips(self, backend):
        key = generate_rsa_key(512)
        assert key.n.bit_length() == 512
        signature = key.sign(b"message")
        assert key.public_key.verify(b"message", signature)
        assert not key.public_key.verify(b"other", signature)
        assert key.decrypt(key.public_key.encrypt(b"premaster")) == b"premaster"

    def test_dh_agreement(self, backend):
        ours, theirs = GROUP_TEST_512.generate_keypair(), GROUP_TEST_512.generate_keypair()
        assert ours.combine(theirs.public) == theirs.combine(ours.public)

    @pytest.mark.parametrize("mode", [Mode.MCTLS, Mode.MDTLS], ids=lambda m: m.value)
    def test_full_handshake(self, backend, bed, mode):
        client, server, *_ = profile_handshake(bed, mode, n_contexts=2)
        assert client.handshake_complete and server.handshake_complete


@needs_bn
class TestCrossBackend:
    def test_signature_bytes_are_identical(self):
        key = generate_rsa_key(512)
        with forced_python():
            reference = key.sign(b"deterministic")
        assert key.sign(b"deterministic") == reference

    def test_sign_and_encrypt_on_one_verify_and_decrypt_on_the_other(self):
        key = generate_rsa_key(512)
        with forced_python():
            signature = key.sign(b"m")
            ciphertext = key.public_key.encrypt(b"secret")
        assert key.public_key.verify(b"m", signature)
        assert key.decrypt(ciphertext) == b"secret"
        signature, ciphertext = key.sign(b"n"), key.public_key.encrypt(b"other")
        with forced_python():
            assert key.public_key.verify(b"n", signature)
            assert key.decrypt(ciphertext) == b"other"

    def test_dh_combine_across_backends(self):
        ours = GROUP_TEST_512.generate_keypair()
        with forced_python():
            theirs = GROUP_TEST_512.generate_keypair()
            reference = theirs.combine(ours.public)
        assert ours.combine(theirs.public) == reference

    def test_key_generated_on_one_works_on_the_other(self):
        with forced_python():
            key = generate_rsa_key(512)
        assert key.public_key.verify(b"x", key.sign(b"x"))

    @pytest.mark.parametrize("mode", [Mode.MCTLS, Mode.MDTLS], ids=lambda m: m.value)
    def test_op_counts_do_not_know_the_backend(self, bed, mode):
        """Table 3 counts per party are taken above the seam."""

        def ops():
            return profile_handshake(bed, mode, n_contexts=2).ops

        with forced_python():
            reference = ops()
        assert ops() == reference
        assert any(reference["middlebox1"].values())


# -- (c) which routine each exponent takes -------------------------------------

# The Python function that owns each exponentiation, and whether its
# exponent is public (RSA ``e``) or secret (CRT halves, DH, Miller-Rabin).
_PUBLIC_SITES = {"verify", "encrypt"}
_SECRET_SITES = {"_private_op", "generate_keypair", "combine", "_miller_rabin_round"}


@needs_bn
def test_secret_exponents_never_take_the_public_path(bed):
    """Wrap both BN entry points, run a full mcTLS and a full mdTLS
    handshake and one key generation: every secret exponent went through
    ``BN_mod_exp_mont_consttime``, and only RSA verify / encrypt through
    ``BN_mod_exp_mont``."""
    calls = []

    def recording(routine, real):
        def call(*args):
            # Frames up: the seam's body, modexp / public_modexp, the site.
            calls.append((routine, sys._getframe(3).f_code.co_name))
            return real(*args)

        return call

    routines = ("BN_mod_exp_mont", "BN_mod_exp_mont_consttime")
    wrapped = dict(numtheory._bn)
    wrapped.update({name: recording(name, numtheory._bn[name]) for name in routines})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numtheory, "_bn", wrapped)
        for mode in (Mode.MCTLS, Mode.MDTLS):
            client, server, *_ = profile_handshake(bed, mode)
            assert client.handshake_complete and server.handshake_complete
        generate_rsa_key(512)

    sites = {routine: {site for r, site in calls if r == routine} for routine in routines}
    assert sites["BN_mod_exp_mont"] == _PUBLIC_SITES
    assert sites["BN_mod_exp_mont_consttime"] == _SECRET_SITES


# -- (d) thread safety ---------------------------------------------------------


@needs_bn
def test_concurrent_calls_share_no_native_state():
    """``ctypes`` releases the GIL around every BN call; a module-shared
    BIGNUM or BN_CTX would be overwritten mid-computation here."""
    threads, calls = 8, 200
    p = GROUP_TEST_512.p
    wrong: list = []

    def worker(index: int) -> None:
        for call in range(calls):
            base = (index << 400) + (call << 200) + 0xC0FFEE
            exp = (1 << 255) | (index * calls + call)
            mod = p - 2 * (index * calls + call)  # distinct, odd, ~512 bits
            if modexp(base, exp, mod) != pow(base, exp, mod):
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


# -- (e) a platform without libcrypto ------------------------------------------


def _no_library(*_args, **_kwargs):
    raise OSError("simulated: no loadable libcrypto")


class _LibraryMissingOneSymbol:
    """A libcrypto too old for ``BN_bn2binpad``."""

    def __init__(self, *_args, **_kwargs):
        pass

    def __getattr__(self, name):
        if name == "BN_bn2binpad":
            raise AttributeError(name)
        return lambda *args: None


@pytest.mark.parametrize(
    "cdll", [_no_library, _LibraryMissingOneSymbol], ids=["absent", "one-symbol-short"]
)
def test_import_without_usable_libcrypto_selects_python(cdll, bed):
    """Missing library or symbol: ``pow()`` silently and completely —
    never a half-bound backend — and the protocol still runs."""
    platform_backend = numtheory.MODEXP_BACKEND
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ctypes, "CDLL", cdll)
            importlib.reload(numtheory)
            assert numtheory.MODEXP_BACKEND == "python"
            assert numtheory._bn is None
            assert numtheory.modexp(4, 13, 497) == 445
            client, server, *_ = profile_handshake(bed, Mode.MCTLS)
            assert client.handshake_complete and server.handshake_complete
    finally:
        importlib.reload(numtheory)
    assert numtheory.MODEXP_BACKEND == platform_backend
