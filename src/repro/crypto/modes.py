"""Block cipher mode of operation: CBC with PKCS#7 padding."""

from __future__ import annotations

from repro.crypto.aes import AES


class PaddingError(Exception):
    """Raised when CBC padding is malformed on decryption."""


def pkcs7_pad(data: bytes, block_size: int = 16) -> bytes:
    """Apply PKCS#7 padding (always adds at least one byte)."""
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = 16) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size:
        raise PaddingError("padded data length is not a multiple of block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise PaddingError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-pad_len]


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (must already be block-aligned)."""
    if len(iv) != cipher.block_size:
        raise ValueError("IV must be one block long")
    if len(plaintext) % cipher.block_size:
        raise ValueError("CBC plaintext must be block-aligned (pad first)")
    out = bytearray()
    previous = iv
    for i in range(0, len(plaintext), cipher.block_size):
        block = bytes(
            a ^ b for a, b in zip(plaintext[i : i + cipher.block_size], previous)
        )
        encrypted = cipher.encrypt_block(block)
        out += encrypted
        previous = encrypted
    return bytes(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt ``ciphertext`` (padding is NOT removed)."""
    if len(iv) != cipher.block_size:
        raise ValueError("IV must be one block long")
    if len(ciphertext) % cipher.block_size:
        raise ValueError("CBC ciphertext must be block-aligned")
    out = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), cipher.block_size):
        block = ciphertext[i : i + cipher.block_size]
        decrypted = cipher.decrypt_block(block)
        out += bytes(a ^ b for a, b in zip(decrypted, previous))
        previous = block
    return bytes(out)

