"""Figure 5: handshake throughput (connections/sec) at server and middlebox.

The paper saturates a server (or middlebox) with handshakes and reports
sustainable connections per second.  We measure the same quantity
directly: wall-clock CPU time spent inside each node's protocol code
during a handshake, attributed per node; sustainable rate = 1 / cpu-time.
Absolute rates are pure-Python-slow, but the *ratios* the paper reports
are determined by the work mix, which runs for real here:

* mcTLS server 23–35 % below SplitTLS/E2E (extra partial-key generation
  and per-middlebox encryption, growing with contexts);
* mcTLS middlebox well above SplitTLS (one mcTLS handshake's middlebox
  work vs two full TLS handshakes) but far below E2E-TLS (blind
  forwarding costs almost nothing);
* client key distribution mode reclaiming the server gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.harness import (  # ProfiledNode is re-exported
    Mode,
    ProfiledNode,
    TestBed,
    fresh_resumption,
    profile_handshake,
)


@dataclass
class ThroughputResult:
    mode: str
    n_contexts: int
    n_middleboxes: int
    client_cps: float
    server_cps: float
    middlebox_cps: Optional[float]  # first middlebox; None when absent


# A measurement samples for at least this long however few repetitions
# were asked for: see measure_handshake_throughput.
MIN_WINDOW_S = 0.1


def measure_handshake_throughput(
    bed: TestBed,
    mode: Mode,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
    repetitions: int = 3,
) -> ThroughputResult:
    """CPU-time-based sustainable handshake rate per node.

    Each node's cost is its *minimum* over at least ``repetitions`` timed
    handshakes spanning at least ``MIN_WINDOW_S``.  Host noise (a
    preemption, a collector pause, a busy neighbour) only ever adds CPU
    time, arrives in bursts of tens of milliseconds, and at
    sub-millisecond handshakes outweighs the difference between two
    protocols; the minimum over a window longer than a burst is the
    estimate it disturbs least.
    """
    best: Dict[str, float] = {}
    window_end = time.perf_counter() + MIN_WINDOW_S
    rounds = 0
    while rounds <= repetitions or time.perf_counter() < window_end:
        cpu = profile_handshake(bed, mode, n_contexts, n_middleboxes).cpu
        rounds += 1
        if rounds == 1:
            continue  # one untimed warmup round stabilises allocator/caching effects
        for party, seconds in cpu.items():
            best[party] = min(best.get(party, float("inf")), seconds)

    def rate(per_handshake: float) -> float:
        return 1.0 / per_handshake if per_handshake > 0 else float("inf")

    return ThroughputResult(
        mode=mode.value,
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        client_cps=rate(best["client"]),
        server_cps=rate(best["server"]),
        middlebox_cps=rate(best["middlebox1"]) if n_middleboxes else None,
    )


def figure5(
    bed: TestBed,
    context_counts=(1, 2, 4, 8, 16),
    repetitions: int = 3,
) -> List[ThroughputResult]:
    """Both panels: server and middlebox rates vs contexts.

    Series follow the paper: mcTLS / SplitTLS / E2E-TLS with one
    middlebox, plus mcTLS with 2 and 4 middleboxes, plus the §3.6 client
    key distribution variant.
    """
    rows: List[ThroughputResult] = []
    for n_ctx in context_counts:
        rows.append(
            measure_handshake_throughput(bed, Mode.MCTLS, n_ctx, 1, repetitions)
        )
        rows.append(
            measure_handshake_throughput(bed, Mode.MCTLS_CKD, n_ctx, 1, repetitions)
        )
        rows.append(
            measure_handshake_throughput(bed, Mode.SPLIT_TLS, n_ctx, 1, repetitions)
        )
        rows.append(
            measure_handshake_throughput(bed, Mode.E2E_TLS, n_ctx, 1, repetitions)
        )
        rows.append(
            measure_handshake_throughput(bed, Mode.MCTLS, n_ctx, 2, repetitions)
        )
        rows.append(
            measure_handshake_throughput(bed, Mode.MCTLS, n_ctx, 4, repetitions)
        )
    return rows


# -- session resumption: full vs abbreviated handshake ------------------------

PUBKEY_CATEGORIES = ("secret_comp", "asym_sign", "asym_verify")

RESUMABLE_MODES = (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS, Mode.E2E_TLS)


@dataclass
class FullVsResumedResult:
    """Per-node operation counts and CPU time for a full handshake and
    the abbreviated handshake that resumed it."""

    mode: str
    n_contexts: int
    n_middleboxes: int
    full_ops: Dict[str, Dict[str, int]]      # node name -> category -> count
    resumed_ops: Dict[str, Dict[str, int]]
    full_cpu: Dict[str, float]               # node name -> seconds
    resumed_cpu: Dict[str, float]
    full_bytes: Dict[str, int]               # node name -> handshake bytes sent
    resumed_bytes: Dict[str, int]

    def pubkey_ops(self, phase: str, node: str) -> int:
        """Public-key operations (DH/RSA secret computations, signatures,
        verifications) performed by ``node`` during ``phase``."""
        ops = self.full_ops if phase == "full" else self.resumed_ops
        return sum(ops[node].get(c, 0) for c in PUBKEY_CATEGORIES)


def measure_full_vs_resumed(
    bed: TestBed,
    mode: Mode,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
) -> FullVsResumedResult:
    """Run one full handshake, then resume it, profiling both.

    Uses a fresh session cache (the bed's configured cache is restored on
    exit), so the first handshake is guaranteed full and the second is
    guaranteed abbreviated — a failure to resume raises.
    """
    if mode not in RESUMABLE_MODES:
        raise ValueError(f"{mode} does not support session resumption")
    with fresh_resumption(bed):
        full = profile_handshake(bed, mode, n_contexts, n_middleboxes)
        if full.server.resumed:
            raise RuntimeError("first handshake unexpectedly resumed")
        resumed = profile_handshake(bed, mode, n_contexts, n_middleboxes)
        if not (resumed.client.resumed and resumed.server.resumed):
            raise RuntimeError(f"second handshake did not resume for {mode}")
    return FullVsResumedResult(
        mode=mode.value,
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        full_ops=full.ops,
        resumed_ops=resumed.ops,
        full_cpu=full.cpu,
        resumed_cpu=resumed.cpu,
        full_bytes=full.sent,
        resumed_bytes=resumed.sent,
    )
