"""AES block cipher (FIPS 197), implemented from scratch.

Supports AES-128, AES-192 and AES-256 single-block encryption and
decryption.  The implementation favours clarity over speed (it is a table
driven pure-Python cipher): it is the AES of the record suites where
libcrypto's EVP does not bind (:mod:`repro.crypto.evp`) and the reference
the tests hold EVP to everywhere.
"""

from __future__ import annotations

# GF(2^8) arithmetic by logarithms: 3 generates the field's
# multiplicative group, so walking its 255 powers once gives log and
# antilog tables, and every product or inverse below is two lookups.
def _log_tables() -> tuple:
    antilog = [0] * 255
    log = [0] * 256
    power = 1
    for exponent in range(255):
        antilog[exponent] = power
        log[power] = exponent
        doubled = (power << 1) ^ (0x11B if power & 0x80 else 0)
        power ^= doubled  # power * 3 = power * 2 + power
    return log, antilog


_LOG, _ANTILOG = _log_tables()


def _build_sbox() -> tuple:
    """Compute the AES S-box and inverse S-box from first principles:
    the multiplicative inverse in GF(2^8), x^-1 = 3^(255 - log x),
    followed by the affine transform."""
    inverse = [0] + [_ANTILOG[(255 - _LOG[x]) % 255] for x in range(1, 256)]
    # The affine transform (FIPS 197 eq. 5.1): bit i of the output XORs
    # bits i, i+4, i+5, i+6, i+7 of the inverse — b and its left
    # rotations by 1..4 — and bit i of 0x63.
    sbox = [0] * 256
    inv_sbox = [0] * 256
    for x in range(256):
        b = inverse[x] * 0x101  # two copies side by side: rotation is a shift
        s = (b ^ (b >> 4) ^ (b >> 5) ^ (b >> 6) ^ (b >> 7) ^ 0x63) & 0xFF
        sbox[x] = s
        inv_sbox[s] = x
    return tuple(sbox), tuple(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()


def _mul_table(c: int) -> tuple:
    """``x * c`` in GF(2^8) for every byte ``x`` (MixColumns constants)."""
    log_c = _LOG[c]
    return (0,) + tuple(_ANTILOG[(_LOG[x] + log_c) % 255] for x in range(1, 256))


# Precomputed multiplication tables for the MixColumns constants.
_MUL2 = _mul_table(2)
_MUL3 = _mul_table(3)
_MUL9 = _mul_table(9)
_MUL11 = _mul_table(11)
_MUL13 = _mul_table(13)
_MUL14 = _mul_table(14)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


class AES:
    """AES block cipher for a fixed key.

    >>> cipher = AES(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list:
        nk = len(key) // 4
        nr = self._rounds
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Flatten into one 16-byte round key per round.
        round_keys = []
        for r in range(nr + 1):
            rk = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # State is a flat list of 16 bytes in column-major order, matching the
    # FIPS 197 layout: state[r + 4*c].

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self._round_keys
        state = [block[i] ^ rk[0][i] for i in range(16)]
        for rnd in range(1, self._rounds):
            state = self._encrypt_round(state, rk[rnd])
        # Final round: no MixColumns.
        s = [_SBOX[b] for b in state]
        s = self._shift_rows(s)
        final = rk[self._rounds]
        return bytes(s[i] ^ final[i] for i in range(16))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self._round_keys
        state = [block[i] ^ rk[self._rounds][i] for i in range(16)]
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        for rnd in range(self._rounds - 1, 0, -1):
            state = [state[i] ^ rk[rnd][i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [_INV_SBOX[b] for b in state]
        return bytes(state[i] ^ rk[0][i] for i in range(16))

    @staticmethod
    def _shift_rows(s: list) -> list:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: list) -> list:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _encrypt_round(state: list, round_key: list) -> list:
        # SubBytes + ShiftRows + MixColumns fused per column.
        s = [_SBOX[b] for b in state]
        s = AES._shift_rows(s)
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return [out[i] ^ round_key[i] for i in range(16)]

    @staticmethod
    def _inv_mix_columns(state: list) -> list:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
