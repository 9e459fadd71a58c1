"""Figure 3: time to first byte vs. number of contexts / middleboxes.

Setup from the paper: one middlebox (left plot) or a varying number
(right plot), every hop a 10 Mbps link with 20 ms one-way delay, all
middleboxes granted full read/write access (worst case).  The client
requests a small object as soon as the session is up; TTFB is the arrival
time of the first response byte at the client.

The paper's observations this experiment must reproduce:

* NoEncrypt ≈ 2 total-RTTs; all encrypted protocols ≈ 4 total-RTTs;
* with Nagle enabled, mcTLS jumps by +1 RTT at context counts where a
  handshake flight crosses an MSS boundary (10 and 14 in the paper's
  build; the crossover points depend on message sizes);
* disabling Nagle (TCP_NODELAY) restores mcTLS to the common curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.experiments.harness import (
    Mode,
    TestBed,
    build_cell,
    drive_handshake,
    fresh_resumption,
    series_label,
    simulate_exchange,
)
from repro.netsim.profiles import controlled

REQUEST_SIZE = 100
RESPONSE_SIZE = 100


@dataclass
class TTFBResult:
    mode: str
    n_contexts: int
    n_middleboxes: int
    nagle: bool
    ttfb_s: float
    total_rtt_s: float

    @property
    def rtts(self) -> float:
        """TTFB expressed in multiples of the end-to-end RTT."""
        return self.ttfb_s / self.total_rtt_s


def measure_ttfb(
    bed: TestBed,
    mode: Mode,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
    nagle: bool = True,
    bandwidth_mbps: float = 10.0,
    hop_delay_ms: float = 20.0,
) -> TTFBResult:
    """Run one TTFB measurement in a fresh simulator."""
    profile = controlled(
        hops=n_middleboxes + 1,
        bandwidth_mbps=bandwidth_mbps,
        hop_delay_ms=hop_delay_ms,
    )
    exchange = simulate_exchange(
        bed, mode, profile, b"R" * REQUEST_SIZE, b"D" * RESPONSE_SIZE, nagle, n_contexts
    )
    return TTFBResult(
        mode=series_label(mode, nagle),
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        nagle=nagle,
        ttfb_s=exchange.first_byte_s,
        total_rtt_s=profile.total_rtt_s,
    )


def measure_resumed_ttfb(
    bed: TestBed,
    mode: Mode,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
    nagle: bool = True,
    bandwidth_mbps: float = 10.0,
    hop_delay_ms: float = 20.0,
) -> TTFBResult:
    """TTFB for an *abbreviated* handshake.

    Primes a fresh session cache with one in-memory full handshake (zero
    simulated time), then measures TTFB over the simulated network; the
    network handshake therefore resumes, skipping certificates and key
    exchange.  Compare against :func:`measure_ttfb` for the same mode to
    see the RTT savings.  The bed's configured cache is restored on exit.
    """
    with fresh_resumption(bed) as cache:
        drive_handshake(*build_cell(bed, mode, n_contexts, n_middleboxes))
        result = measure_ttfb(
            bed,
            mode,
            n_contexts=n_contexts,
            n_middleboxes=n_middleboxes,
            nagle=nagle,
            bandwidth_mbps=bandwidth_mbps,
            hop_delay_ms=hop_delay_ms,
        )
        if cache.stats.hits < 1:
            raise RuntimeError(f"simulated handshake did not resume for {mode}")
    return replace(result, mode=f"{result.mode} (resumed)")


def figure3_left(
    bed: TestBed, context_counts=tuple(range(1, 17)), n_middleboxes: int = 1
) -> List[TTFBResult]:
    """TTFB vs number of contexts (mcTLS sweeps; baselines are flat)."""
    rows: List[TTFBResult] = []
    for n_ctx in context_counts:
        rows.append(measure_ttfb(bed, Mode.MCTLS, n_contexts=n_ctx, n_middleboxes=n_middleboxes))
        rows.append(
            measure_ttfb(
                bed, Mode.MCTLS, n_contexts=n_ctx, n_middleboxes=n_middleboxes, nagle=False
            )
        )
        for mode in (Mode.SPLIT_TLS, Mode.E2E_TLS, Mode.NO_ENCRYPT):
            rows.append(measure_ttfb(bed, mode, n_contexts=n_ctx, n_middleboxes=n_middleboxes))
    return rows


def figure3_right(
    bed: TestBed, middlebox_counts=tuple(range(0, 17, 2)), n_contexts: int = 1
) -> List[TTFBResult]:
    """TTFB vs number of middleboxes (each adds a 20 ms hop)."""
    rows: List[TTFBResult] = []
    for n_mbox in middlebox_counts:
        rows.append(measure_ttfb(bed, Mode.MCTLS, n_contexts=n_contexts, n_middleboxes=n_mbox))
        rows.append(
            measure_ttfb(
                bed, Mode.MCTLS, n_contexts=n_contexts, n_middleboxes=n_mbox, nagle=False
            )
        )
        for mode in (Mode.SPLIT_TLS, Mode.E2E_TLS, Mode.NO_ENCRYPT):
            rows.append(measure_ttfb(bed, mode, n_contexts=n_contexts, n_middleboxes=n_mbox))
    return rows
