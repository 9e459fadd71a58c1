"""Table 3: cryptographic operations per handshake, per party.

Every primitive in :mod:`repro.crypto` reports to a thread-local
:class:`~repro.crypto.opcount.OpCounter`;
:func:`~repro.experiments.harness.profile_handshake` wraps each node's
calls in its own counter, attributing operations to the party that
performed them.
The experiment runs real handshakes for mcTLS (default mode), mcTLS
(client key distribution), mdTLS (delegated credentials) and SplitTLS,
and reports measured counts next to the paper's closed-form expressions
(N = middleboxes, K = contexts).  mdTLS has no Table 3 row in the paper,
so its ``paper`` dict stays empty — the delegation benchmark compares it
against the measured mcTLS modes instead.

Exact equality with the paper's numbers is not expected — they count at
OpenSSL API granularity, we count at primitive granularity — but the
*structure* must match: client work growing with N and K, the CKD mode
moving server work to the client, SplitTLS's middlebox doing two full
handshakes' worth of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.harness import Mode, TestBed, profile_handshake


# The paper's Table 3 formulas (rows we can evaluate for given N, K).
PAPER_FORMULAS = {
    "mcTLS": {
        "client": {
            "hash": lambda N, K: 12 + 6 * N,
            "secret_comp": lambda N, K: N + 1,
            "key_gen": lambda N, K: 4 * K + N + 1,
            "asym_verify": lambda N, K: N + 1,
            "sym_encrypt": lambda N, K: N + 2,
            "sym_decrypt": lambda N, K: 2,
        },
        "middlebox": {
            "hash": lambda N, K: 0,
            "secret_comp": lambda N, K: 2,
            "key_gen": lambda N, K: 2 * K + 2,  # k ≤ 2K, worst case
            "asym_verify": lambda N, K: 1,  # n ≤ 1
            "sym_encrypt": lambda N, K: 0,
            "sym_decrypt": lambda N, K: 2,
        },
        "server": {
            "hash": lambda N, K: 12 + 6 * N,
            "secret_comp": lambda N, K: N + 1,
            "key_gen": lambda N, K: 4 * K + N + 1,
            "asym_verify": lambda N, K: N,  # n ≤ N
            "sym_encrypt": lambda N, K: N + 2,
            "sym_decrypt": lambda N, K: 2,
        },
    },
    "mcTLS-ckd": {
        "client": {
            "hash": lambda N, K: 10 + 5 * N,
            "secret_comp": lambda N, K: N + 1,
            "key_gen": lambda N, K: 2 * K + N + 1,
            "asym_verify": lambda N, K: N + 1,
            "sym_encrypt": lambda N, K: N + 2,
            "sym_decrypt": lambda N, K: 1,
        },
        "middlebox": {
            "hash": lambda N, K: 0,
            "secret_comp": lambda N, K: 1,
            "key_gen": lambda N, K: 1,
            "asym_verify": lambda N, K: 1,  # n ≤ 1
            "sym_encrypt": lambda N, K: 0,
            "sym_decrypt": lambda N, K: 1,
        },
        "server": {
            "hash": lambda N, K: 10 + 5 * N,
            "secret_comp": lambda N, K: 1,
            "key_gen": lambda N, K: 1,
            "asym_verify": lambda N, K: 0,
            "sym_encrypt": lambda N, K: 1,
            "sym_decrypt": lambda N, K: 2,
        },
    },
    "SplitTLS": {
        "client": {
            "hash": lambda N, K: 10,
            "secret_comp": lambda N, K: 1,
            "key_gen": lambda N, K: 1,
            "asym_verify": lambda N, K: 1,
            "sym_encrypt": lambda N, K: 1,
            "sym_decrypt": lambda N, K: 1,
        },
        "middlebox": {
            "hash": lambda N, K: 20,
            "secret_comp": lambda N, K: 2,
            "key_gen": lambda N, K: 2,
            "asym_verify": lambda N, K: 1,
            "sym_encrypt": lambda N, K: 2,
            "sym_decrypt": lambda N, K: 2,
        },
        "server": {
            "hash": lambda N, K: 10,
            "secret_comp": lambda N, K: 1,
            "key_gen": lambda N, K: 1,
            "asym_verify": lambda N, K: 0,
            "sym_encrypt": lambda N, K: 1,
            "sym_decrypt": lambda N, K: 1,
        },
    },
}


@dataclass
class OpCountResult:
    mode: str
    n_contexts: int
    n_middleboxes: int
    counts: Dict[str, Dict[str, int]]  # party -> category -> measured
    paper: Dict[str, Dict[str, int]]  # party -> category -> paper formula


def measure_opcounts(
    bed: TestBed, mode: Mode, n_contexts: int = 1, n_middleboxes: int = 1
) -> OpCountResult:
    ops = profile_handshake(bed, mode, n_contexts, n_middleboxes).ops

    mode_key = {
        Mode.MCTLS: "mcTLS",
        Mode.MCTLS_CKD: "mcTLS-ckd",
        Mode.SPLIT_TLS: "SplitTLS",
    }.get(mode)
    paper: Dict[str, Dict[str, int]] = {}
    if mode_key is not None:
        N, K = n_middleboxes, n_contexts
        paper = {
            party: {cat: fn(N, K) for cat, fn in formulas.items()}
            for party, formulas in PAPER_FORMULAS[mode_key].items()
        }

    counts = {"client": ops["client"], "server": ops["server"]}
    if n_middleboxes:
        counts["middlebox"] = ops["middlebox1"]
    return OpCountResult(
        mode=mode.value,
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        counts=counts,
        paper=paper,
    )


def table3(bed: TestBed, n_contexts: int = 4, n_middleboxes: int = 1) -> List[OpCountResult]:
    return [
        measure_opcounts(bed, mode, n_contexts, n_middleboxes)
        for mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS, Mode.SPLIT_TLS)
    ]
