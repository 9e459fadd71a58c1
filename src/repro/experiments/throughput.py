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

from repro.crypto.opcount import OpCounter, counting
from repro.experiments.harness import Mode, TestBed
from repro.transport import Chain


class TimedNode:
    """Wraps a connection or relay, accumulating CPU time in its calls."""

    def __init__(self, inner):
        self._inner = inner
        self.cpu_seconds = 0.0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return attr(*args, **kwargs)
            finally:
                self.cpu_seconds += time.process_time() - start
        return timed


class ProfiledNode(TimedNode):
    """TimedNode that also attributes crypto operations to the node.

    Every call into the wrapped connection runs under this node's
    :class:`OpCounter`, so after a handshake ``node.ops`` holds exactly
    the Table-3-style operation mix that node performed.  Bytes the node
    emitted (via any ``data_to_*`` call) accumulate in ``bytes_sent``.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.ops = OpCounter()
        self.bytes_sent = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        emits = name.startswith("data_to_")
        def profiled(*args, **kwargs):
            start = time.process_time()
            with counting(self.ops):
                try:
                    result = attr(*args, **kwargs)
                finally:
                    self.cpu_seconds += time.process_time() - start
            if emits and isinstance(result, bytes):
                self.bytes_sent += len(result)
            return result
        return profiled


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
    best: Dict[str, float] = dict.fromkeys(
        ("client", "server", "middlebox"), float("inf")
    )
    window_end = time.perf_counter() + MIN_WINDOW_S
    # One untimed warmup round stabilises allocator/caching effects.
    rounds = 0
    while rounds <= repetitions or time.perf_counter() < window_end:
        warmup = rounds == 0
        rounds += 1
        topology = (
            bed.topology(n_middleboxes, n_contexts=n_contexts)
            if mode.has_contexts
            else None
        )
        client, server = bed.make_endpoints(mode, topology=topology)
        relays = bed.make_relays(mode, n_middleboxes)
        timed_client = TimedNode(client)
        timed_server = TimedNode(server)
        timed_relays = [TimedNode(r) for r in relays]
        chain = Chain(timed_client, timed_relays, timed_server)
        timed_client.start_handshake()
        chain.pump()
        if not client.handshake_complete or not server.handshake_complete:
            raise RuntimeError(f"handshake failed for {mode}")
        if warmup:
            continue
        best["client"] = min(best["client"], timed_client.cpu_seconds)
        best["server"] = min(best["server"], timed_server.cpu_seconds)
        if timed_relays:
            best["middlebox"] = min(best["middlebox"], timed_relays[0].cpu_seconds)

    def rate(per_handshake: float) -> float:
        return 1.0 / per_handshake if per_handshake > 0 else float("inf")

    return ThroughputResult(
        mode=mode.value,
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        client_cps=rate(best["client"]),
        server_cps=rate(best["server"]),
        middlebox_cps=rate(best["middlebox"]) if n_middleboxes else None,
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


def _run_profiled_handshake(bed: TestBed, mode: Mode, topology, n_middleboxes: int):
    client, server = bed.make_endpoints(mode, topology=topology)
    relays = bed.make_relays(mode, n_middleboxes)
    profiled_client = ProfiledNode(client)
    profiled_server = ProfiledNode(server)
    profiled_relays = [ProfiledNode(r) for r in relays]
    chain = Chain(profiled_client, profiled_relays, profiled_server)
    profiled_client.start_handshake()
    chain.pump()
    if not client.handshake_complete or not server.handshake_complete:
        raise RuntimeError(f"handshake failed for {mode}")
    nodes = {"client": profiled_client, "server": profiled_server}
    for i, relay in enumerate(profiled_relays):
        nodes[f"middlebox{i + 1}"] = relay
    ops = {name: node.ops.snapshot() for name, node in nodes.items()}
    cpu = {name: node.cpu_seconds for name, node in nodes.items()}
    sent = {name: node.bytes_sent for name, node in nodes.items()}
    return client, server, ops, cpu, sent


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
    saved = (bed.session_cache, bed.client_sessions)
    bed.enable_resumption()
    try:
        topology = (
            bed.topology(n_middleboxes, n_contexts=n_contexts)
            if mode.has_contexts
            else None
        )
        client, server, full_ops, full_cpu, full_bytes = _run_profiled_handshake(
            bed, mode, topology, n_middleboxes
        )
        if server.resumed:
            raise RuntimeError("first handshake unexpectedly resumed")
        client, server, resumed_ops, resumed_cpu, resumed_bytes = _run_profiled_handshake(
            bed, mode, topology, n_middleboxes
        )
        if not (client.resumed and server.resumed):
            raise RuntimeError(f"second handshake did not resume for {mode}")
    finally:
        bed.session_cache, bed.client_sessions = saved
    return FullVsResumedResult(
        mode=mode.value,
        n_contexts=n_contexts,
        n_middleboxes=n_middleboxes,
        full_ops=full_ops,
        resumed_ops=resumed_ops,
        full_cpu=full_cpu,
        resumed_cpu=resumed_cpu,
        full_bytes=full_bytes,
        resumed_bytes=resumed_bytes,
    )


def table_full_vs_resumed(
    bed: TestBed,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
) -> List[FullVsResumedResult]:
    """Full-vs-resumed comparison across every resumable mode."""
    return [
        measure_full_vs_resumed(bed, mode, n_contexts, n_middleboxes)
        for mode in RESUMABLE_MODES
    ]
