"""Tests for AES, modes, number theory, DH, PRF and the fast cipher."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.crypto.dh import DHError, GROUP_MODP_1024, GROUP_MODP_2048, GROUP_TEST_512
from repro.crypto.fastcipher import ShaCtrCipher
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.numtheory import (
    bytes_to_int,
    generate_prime,
    int_to_bytes,
    is_probable_prime,
    modinv,
)
from repro.crypto.prf import p_sha256, prf


class TestAES:
    """FIPS 197 appendix C known-answer vectors."""

    def test_aes128_fips_vector(self):
        cipher = AES(bytes(range(16)))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert cipher.encrypt_block(plaintext).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192_fips_vector(self):
        cipher = AES(bytes(range(24)))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert cipher.encrypt_block(plaintext).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256_fips_vector(self):
        cipher = AES(bytes(range(32)))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert cipher.encrypt_block(plaintext).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_zero_key_vector(self):
        assert (
            AES(bytes(16)).encrypt_block(bytes(16)).hex()
            == "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )

    def test_invalid_key_length(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_invalid_block_length(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(b"tiny")

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_decrypt_inverts_encrypt(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestModes:
    def test_pkcs7_always_pads(self):
        assert pkcs7_pad(b"") == bytes([16]) * 16
        assert pkcs7_pad(b"x" * 16)[-1] == 16

    def test_pkcs7_roundtrip(self):
        for n in range(33):
            data = bytes(range(n % 256))[:n]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_pkcs7_bad_padding_rejected(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x00" * 15 + b"\x02")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x00" * 16 + b"\x11" * 16)

    @given(st.binary(max_size=100), st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_cbc_roundtrip(self, data, iv):
        cipher = AES(b"0123456789abcdef")
        padded = pkcs7_pad(data)
        assert pkcs7_unpad(cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, padded))) == data

    def test_cbc_requires_alignment(self):
        cipher = AES(bytes(16))
        with pytest.raises(ValueError):
            cbc_encrypt(cipher, bytes(16), b"unaligned")


class TestNumTheory:
    def test_small_primes(self):
        primes = [2, 3, 5, 7, 11, 101, 7919]
        composites = [1, 0, 4, 9, 561, 7917]  # 561 is a Carmichael number
        assert all(is_probable_prime(p) for p in primes)
        assert not any(is_probable_prime(c) for c in composites)

    def test_generate_prime_has_exact_bits(self):
        p = generate_prime(64)
        assert p.bit_length() == 64
        assert is_probable_prime(p)

    def test_modinv(self):
        assert (3 * modinv(3, 11)) % 11 == 1
        with pytest.raises(ValueError):
            modinv(2, 4)

    @given(st.integers(min_value=0, max_value=1 << 128))
    def test_int_bytes_roundtrip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    def test_int_to_bytes_fixed_length(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"
        assert int_to_bytes(0) == b"\x00"


class TestDH:
    def test_groups_use_safe_primes(self):
        for group in (GROUP_TEST_512,):
            assert is_probable_prime(group.p)
            assert is_probable_prime((group.p - 1) // 2)

    def test_standard_group_sizes(self):
        assert GROUP_MODP_2048.p.bit_length() == 2048
        assert GROUP_MODP_1024.p.bit_length() == 1024

    def test_shared_secret_agreement(self):
        a = GROUP_TEST_512.generate_keypair()
        b = GROUP_TEST_512.generate_keypair()
        assert a.combine(b.public) == b.combine(a.public)

    def test_degenerate_public_rejected(self):
        kp = GROUP_TEST_512.generate_keypair()
        for bad in (0, 1, GROUP_TEST_512.p - 1, GROUP_TEST_512.p):
            with pytest.raises(DHError):
                kp.combine(bad)

    def test_public_bytes_roundtrip(self):
        kp = GROUP_TEST_512.generate_keypair()
        assert GROUP_TEST_512.public_from_bytes(kp.public_bytes) == kp.public

    def test_wrong_length_public_rejected(self):
        with pytest.raises(DHError):
            GROUP_TEST_512.public_from_bytes(b"\x02" * 10)


class TestPRF:
    def test_rfc5246_style_expansion_deterministic(self):
        a = prf(b"secret", b"label", b"seed", 48)
        b = prf(b"secret", b"label", b"seed", 48)
        assert a == b and len(a) == 48

    def test_label_separation(self):
        assert prf(b"s", b"l1", b"seed", 32) != prf(b"s", b"l2", b"seed", 32)

    def test_p_sha256_known_vector(self):
        # Published P_SHA256 test vector (from the TLS community test set).
        out = p_sha256(
            bytes.fromhex("9bbe436ba940f017b17652849a71db35"),
            b"test label" + bytes.fromhex("a0ba9f936cda311827a6f796ffd5198c"),
            100,
        )
        assert out.hex().startswith("e3f229ba727be17b8d122620557cd453")

    @given(st.integers(min_value=1, max_value=200))
    def test_expansion_length(self, n):
        assert len(p_sha256(b"k", b"seed", n)) == n

    def test_prefix_property(self):
        long = p_sha256(b"k", b"seed", 64)
        short = p_sha256(b"k", b"seed", 32)
        assert long[:32] == short


class TestShaCtr:
    def test_involution(self):
        cipher = ShaCtrCipher(bytes(16))
        data = b"some data" * 100
        assert cipher.xor(b"n1", cipher.xor(b"n1", data)) == data

    def test_nonce_separation(self):
        cipher = ShaCtrCipher(bytes(16))
        assert cipher.xor(b"n1", b"hello") != cipher.xor(b"n2", b"hello")

    def test_empty_data(self):
        assert ShaCtrCipher(bytes(16)).xor(b"n", b"") == b""

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            ShaCtrCipher(b"short")

    @given(st.binary(max_size=200))
    @settings(max_examples=30)
    def test_roundtrip_any_length(self, data):
        cipher = ShaCtrCipher(b"k" * 32)
        assert cipher.xor(b"nonce", cipher.xor(b"nonce", data)) == data
