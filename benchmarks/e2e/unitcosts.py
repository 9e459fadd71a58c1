"""Unit costs: direct timed calls into public crypto functions.

Each cost is the median of ``ROUNDS`` windows of at least ``WINDOW_S``
seconds of back-to-back calls, with the bench's own 1024-bit keys and
group.  Multiplied by the op counts taken at the party seams they say
how much of a handshake's self time public-key and PRF work explains
(``crypto.attributed_share``).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro.crypto.certs import verify_chain
from repro.crypto.hmaccache import hmac_sha256
from repro.crypto.opcount import OpCounter
from repro.crypto.prf import prf_key_block
from repro.crypto.rsa import generate_rsa_key
from repro.experiments.harness import TestBed
from repro.mctls.keys import rsa_hybrid_open, rsa_hybrid_seal

WINDOW_S = 0.1
ROUNDS = 3


def timed(fn: Callable[[], object], window_s: float = WINDOW_S, rounds: int = ROUNDS) -> float:
    """Median seconds per call."""
    per_call = []
    for _ in range(rounds):
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= window_s:
                break
        per_call.append(elapsed / calls)
    return statistics.median(per_call)


def measure(bed: TestBed) -> Dict[str, float]:
    identity = bed.server_identity
    key, public = identity.key, identity.key.public_key
    message = b"m" * 256
    signature = key.sign(message)
    wrapped = public.encrypt(b"k" * 48)
    group = bed.dh_group
    ours, theirs = group.generate_keypair(), group.generate_keypair()
    suite = bed.suites[0]
    shares = b"s" * 256  # about what four contexts' key shares come to
    sealed = rsa_hybrid_seal(suite, public, shares)
    secret, seed = b"s" * 48, b"r" * 64
    mac_key = b"k" * 32
    small, large = b"d" * 64, b"d" * 16384
    roots = [bed.ca.certificate]
    return {
        "crypto.rsa.sign_ms": timed(lambda: key.sign(message)) * 1e3,
        "crypto.rsa.decrypt_ms": timed(lambda: key.decrypt(wrapped)) * 1e3,
        "crypto.rsa.verify_ms": timed(lambda: public.verify(message, signature)) * 1e3,
        "crypto.rsa.encrypt_ms": timed(lambda: public.encrypt(b"k" * 48)) * 1e3,
        # One keygen is already longer than the window.
        "crypto.rsa.keygen_s": timed(lambda: generate_rsa_key(bed.key_bits), window_s=0.0),
        "crypto.dh.keygen_ms": timed(group.generate_keypair) * 1e3,
        "crypto.dh.combine_ms": timed(lambda: ours.combine(theirs.public)) * 1e3,
        "crypto.certs.verify_chain_ms": timed(lambda: verify_chain(identity.chain, roots)) * 1e3,
        "mctls.keys.hybrid_seal_ms": timed(lambda: rsa_hybrid_seal(suite, public, shares)) * 1e3,
        "mctls.keys.hybrid_open_ms": timed(lambda: rsa_hybrid_open(suite, key, sealed)) * 1e3,
        "crypto.prf.keyblock_us": timed(lambda: prf_key_block(secret, b"key expansion", seed, 128)) * 1e6,
        "crypto.hmac.64B_us": timed(lambda: hmac_sha256(mac_key, small)) * 1e6,
        "crypto.hmac.16KB_us": timed(lambda: hmac_sha256(mac_key, large)) * 1e6,
    }


def attributed_s(counters: Dict[str, OpCounter], costs: Dict[str, float]) -> float:
    """Seconds the counted handshake ops explain, all parties together.

    ``secret_comp`` lumps DH combines with RSA decryptions, so it is
    priced at their mean; DH key generation and RSA encryption are not
    counted by ``crypto.opcount`` at all and stay in the remainder.
    """
    price_s = {
        "asym_sign": costs["crypto.rsa.sign_ms"] / 1e3,
        "asym_verify": costs["crypto.rsa.verify_ms"] / 1e3,
        "secret_comp": (costs["crypto.dh.combine_ms"] + costs["crypto.rsa.decrypt_ms"]) / 2e3,
        "key_gen": costs["crypto.prf.keyblock_us"] / 1e6,
        "hash": costs["crypto.prf.keyblock_us"] / 1e6,
    }
    return sum(
        counter.get(category) * price
        for counter in counters.values()
        for category, price in price_s.items()
    )
