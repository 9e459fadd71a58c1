"""Ablation: transport knobs behind the paper's timing anomalies.

Two sweeps DESIGN.md calls out:

* **Nagle × delayed ACK** — the paper blames Nagle for every mcTLS
  timing artefact; delayed ACKs (not modelled in their analysis) make
  the stalls *shorter* (a 40 ms timer instead of a full RTT in the
  two-small-writes case) but can also penalise the baselines.  We sweep
  all four combinations for mcTLS TTFB.
* **handshake mode** — default (contributory) vs client key distribution
  has no RTT cost, only CPU; the TTFB sweep verifies the wire-time
  equivalence the paper implies.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import emit, format_table, quick_testbed

from repro.experiments.handshake_time import REQUEST_SIZE, RESPONSE_SIZE, measure_ttfb
from repro.experiments.harness import (
    EndpointNode,
    Exchange,
    Mode,
    RelayNode,
    SimPath,
    build_cell,
    build_links,
)
from repro.netsim import Simulator
from repro.netsim.profiles import controlled
from repro.netsim.tcp import make_tcp_pair


def _ttfb_with(bed, nagle: bool, delayed_ack: bool, n_contexts: int) -> float:
    """measure_ttfb's exchange over a path wired by hand: build_path has
    no per-socket delayed_ack."""
    sim = Simulator()
    links = build_links(sim, controlled(hops=2, bandwidth_mbps=10.0, hop_delay_ms=20.0))
    client, relays, server = build_cell(bed, Mode.MCTLS, n_contexts, 1)
    exchange = Exchange(Mode.MCTLS, b"R" * REQUEST_SIZE, b"D" * RESPONSE_SIZE)
    pairs = [
        make_tcp_pair(sim, fwd, rev, nagle=nagle, delayed_ack=delayed_ack)
        for fwd, rev in links
    ]
    client_node = EndpointNode(sim, client, pairs[0][0], True, exchange.on_client)
    relay_nodes = [RelayNode(sim, relays[0], pairs[0][1], pairs[1][0])]
    server_node = EndpointNode(sim, server, pairs[1][1], False, exchange.on_server)
    path = SimPath(sim, client_node, relay_nodes, server_node, links)
    return exchange.run(path).first_byte_s


def test_ablation_transport_knobs(benchmark, capsys):
    bed = quick_testbed()

    def run():
        rows = []
        for n_ctx in (1, 8, 12):
            for nagle in (True, False):
                for delack in (False, True):
                    ttfb = _ttfb_with(bed, nagle, delack, n_ctx)
                    rows.append(
                        [
                            str(n_ctx),
                            "on" if nagle else "off",
                            "on" if delack else "off",
                            f"{ttfb * 1000:.0f}",
                        ]
                    )
        # Handshake-mode comparison. With Nagle on, CKD's larger key
        # material (full keys instead of halves) can cross an MSS earlier
        # and eat an extra stall; with TCP_NODELAY the modes are
        # wire-time identical — CKD saves CPU, not RTTs.
        mode_rows = []
        for nagle in (True, False):
            default = measure_ttfb(bed, Mode.MCTLS, n_contexts=4, nagle=nagle)
            ckd = measure_ttfb(bed, Mode.MCTLS_CKD, n_contexts=4, nagle=nagle)
            mode_rows.append(
                [
                    "on" if nagle else "off",
                    f"{default.ttfb_s * 1000:.0f}",
                    f"{ckd.ttfb_s * 1000:.0f}",
                ]
            )
        return rows, mode_rows

    rows, mode_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_transport_knobs",
        "mcTLS TTFB (ms) under Nagle × delayed-ACK (1 middlebox)\n"
        + format_table(["contexts", "nagle", "delayed ack", "ttfb ms"], rows)
        + "\n\nHandshake mode at 4 contexts (CKD ships full keys — larger"
        "\nflights can hit Nagle stalls earlier; identical once Nagle is off):\n"
        + format_table(["nagle", "default ms", "client-key-dist ms"], mode_rows),
        capsys,
    )
