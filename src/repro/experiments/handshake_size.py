"""Figure 8: handshake sizes.

Counts the bytes crossing the client's access link (both directions)
from the first ClientHello until the client's handshake completes — the
certificate flights, key exchanges and (for mcTLS) middlebox flights and
key material.  Configurations follow the paper: contexts {1, 4, 8} with
no middlebox, and 4 contexts with {1, 2} middleboxes.

Expected shape (paper values with 2048-bit OpenSSL certificates): a base
mcTLS handshake ≈ 0.5 kB larger than TLS (≈2.1 vs ≈1.6 kB), growing with
both contexts (key material) and middleboxes (certificates + flights),
while SplitTLS / E2E-TLS stay flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.harness import Mode, TestBed, profile_handshake


@dataclass
class HandshakeSizeResult:
    mode: str
    n_contexts: int
    n_middleboxes: int
    bytes_total: int


def measure_handshake_size(
    bed: TestBed, mode: Mode, n_contexts: int, n_middleboxes: int
) -> HandshakeSizeResult:
    run = profile_handshake(bed, mode, n_contexts, n_middleboxes)
    return HandshakeSizeResult(
        mode=mode.value,
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        bytes_total=run.client_hop_bytes,
    )


def figure8(bed: TestBed, modes=(Mode.MCTLS, Mode.SPLIT_TLS, Mode.E2E_TLS)) -> List[HandshakeSizeResult]:
    """The five bar groups of Figure 8."""
    configurations = [
        (1, 0),
        (4, 0),
        (8, 0),
        (4, 1),
        (4, 2),
    ]
    rows: List[HandshakeSizeResult] = []
    for n_contexts, n_middleboxes in configurations:
        for mode in modes:
            rows.append(measure_handshake_size(bed, mode, n_contexts, n_middleboxes))
    return rows
