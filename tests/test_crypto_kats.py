"""Known-answer tests against published vectors (NIST / RFC)."""

import hashlib
import hmac

from repro.crypto.aes import AES
from repro.crypto.modes import cbc_decrypt, cbc_encrypt


class TestAesDecryptKATs:
    """FIPS-197 Appendix C inverse-cipher checks."""

    def test_aes128_decrypt(self):
        cipher = AES(bytes(range(16)))
        ciphertext = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.decrypt_block(ciphertext).hex() == "00112233445566778899aabbccddeeff"

    def test_aes192_decrypt(self):
        cipher = AES(bytes(range(24)))
        ciphertext = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert cipher.decrypt_block(ciphertext).hex() == "00112233445566778899aabbccddeeff"

    def test_aes256_decrypt(self):
        cipher = AES(bytes(range(32)))
        ciphertext = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert cipher.decrypt_block(ciphertext).hex() == "00112233445566778899aabbccddeeff"


class TestCbcKATs:
    """NIST SP 800-38A F.2.1 (CBC-AES128) vectors."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    PLAINTEXT = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )
    CIPHERTEXT = bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7"
    )

    def test_encrypt_vector(self):
        cipher = AES(self.KEY)
        assert cbc_encrypt(cipher, self.IV, self.PLAINTEXT) == self.CIPHERTEXT

    def test_decrypt_vector(self):
        cipher = AES(self.KEY)
        assert cbc_decrypt(cipher, self.IV, self.CIPHERTEXT) == self.PLAINTEXT


class TestHmacKATs:
    """RFC 4231 HMAC-SHA256 test cases 1 and 2 (our record MACs use the
    stdlib, but the vectors pin the dependency's behaviour)."""

    def test_case_1(self):
        mac = hmac.new(b"\x0b" * 20, b"Hi There", hashlib.sha256).hexdigest()
        assert mac == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_case_2(self):
        mac = hmac.new(b"Jefe", b"what do ya want for nothing?", hashlib.sha256)
        assert mac.hexdigest() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )
