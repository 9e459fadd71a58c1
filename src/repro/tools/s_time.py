"""``s_time`` — handshake throughput measurement, mcTLS-style.

The paper's authors "modified the OpenSSL s_time benchmarking tool to
support mcTLS... less than 30 new lines of C code" (§5.4).  This is the
equivalent for our stack: run handshakes back to back for a wall-clock
budget and report connections/sec, for any protocol mode.

Two drivers:

* the default runs sequential handshakes over the in-memory simulated
  network (one chain per connection, like ``s_time`` proper);
* ``--async`` starts a real serving chain on loopback (``repro.aio``
  servers) and drives it with the concurrent load generator, reporting
  sustained connections/sec plus handshake-latency percentiles.

Usage::

    python -m repro.tools.s_time --mode mctls --contexts 4 --middleboxes 1
    python -m repro.tools.s_time --mode split --seconds 5 --key-bits 1024
    python -m repro.tools.s_time --mode mctls --async --connections 200 \\
        --concurrency 50 --resume-ratio 0.5
    python -m repro.tools.s_time --mode mctls --seconds 1 \\
        --stats-json stats.json   # instrumentation-plane counter snapshot
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from typing import Optional

from repro.core import Instruments
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed, build_cell, drive_handshake
from repro.mctls.session import KeyTransport

MODE_NAMES = {
    "mctls": Mode.MCTLS,
    "mctls-ckd": Mode.MCTLS_CKD,
    "mdtls": Mode.MDTLS,
    "split": Mode.SPLIT_TLS,
    "e2e": Mode.E2E_TLS,
    "plain": Mode.NO_ENCRYPT,
}


def _make_bed(key_bits: int, key_transport: str) -> TestBed:
    kwargs = dict(
        key_bits=key_bits,
        key_transport=(
            KeyTransport.RSA if key_transport == "rsa" else KeyTransport.DHE
        ),
    )
    if key_bits <= 512:
        kwargs["dh_group"] = GROUP_TEST_512
    return TestBed(**kwargs)


def run_s_time(
    mode: Mode,
    seconds: float = 3.0,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
    key_bits: int = 1024,
    key_transport: str = "rsa",
    instruments: Optional[Instruments] = None,
) -> dict:
    """Run handshakes for ~``seconds``; returns measurement statistics.

    ``instruments`` (optional) is attached to every protocol object of
    every iteration, so protocol-level counters (handshake messages, MAC
    failures, per-context bytes) aggregate over the whole run and appear
    under ``"instruments"`` in the returned statistics.
    """
    bed = _make_bed(key_bits, key_transport)
    count = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        client, relays, server = build_cell(bed, mode, n_contexts, n_middleboxes)
        if instruments is not None:
            for node in (client, server, *relays):
                node.instruments = instruments
        drive_handshake(client, relays, server)
        count += 1
    elapsed = time.perf_counter() - start
    stats = {
        "mode": mode.value,
        "contexts": n_contexts,
        "middleboxes": n_middleboxes,
        "key_bits": key_bits,
        "connections": count,
        "seconds": elapsed,
        "connections_per_second": count / elapsed,
    }
    if instruments is not None:
        stats["instruments"] = instruments.snapshot()
    return stats


def run_s_time_async(
    mode: Mode,
    connections: int = 100,
    concurrency: int = 50,
    rate: float = None,
    resume_ratio: float = 0.0,
    n_contexts: int = 1,
    n_middleboxes: int = 1,
    key_bits: int = 1024,
    key_transport: str = "rsa",
    instruments: Optional[Instruments] = None,
) -> dict:
    """Drive the ``repro.aio`` load generator against a real loopback
    serving chain; returns the load report plus server stats (including
    the chain-wide instrumentation snapshot when ``instruments`` is
    given)."""
    from repro.experiments.serving import run_chain_load

    bed = _make_bed(key_bits, key_transport)
    report = asyncio.run(
        run_chain_load(
            bed,
            mode,
            n_middleboxes,
            connections=connections,
            concurrency=concurrency,
            rate=rate,
            resume_ratio=resume_ratio,
            n_contexts=n_contexts,
            instruments=instruments,
        )
    )
    report["key_bits"] = key_bits
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="s_time", description="Measure full-chain handshakes per second."
    )
    parser.add_argument("--mode", choices=sorted(MODE_NAMES), default="mctls")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--contexts", type=int, default=1)
    parser.add_argument("--middleboxes", type=int, default=1)
    parser.add_argument("--key-bits", type=int, default=1024)
    parser.add_argument(
        "--key-transport", choices=["rsa", "dhe"], default="rsa",
        help="MiddleboxKeyMaterial protection (rsa = the paper's prototype)",
    )
    parser.add_argument(
        "--async", dest="use_async", action="store_true",
        help="serve over real loopback sockets (repro.aio) and drive the "
        "concurrent load generator instead of sequential in-memory chains",
    )
    parser.add_argument(
        "--connections", type=int, default=100,
        help="(--async) total sessions to run",
    )
    parser.add_argument(
        "--concurrency", type=int, default=50,
        help="(--async) sessions kept in flight",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="(--async) open-loop launch rate in connections/sec "
        "(default: closed loop)",
    )
    parser.add_argument(
        "--resume-ratio", type=float, default=0.0,
        help="(--async) fraction of sessions offered as resumptions",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help="enable the instrumentation plane and write the full report "
        "(including the counter snapshot) as JSON to PATH",
    )
    args = parser.parse_args(argv)

    instruments = Instruments() if args.stats_json else None

    if args.use_async:
        report = run_s_time_async(
            MODE_NAMES[args.mode],
            connections=args.connections,
            concurrency=args.concurrency,
            rate=args.rate,
            resume_ratio=args.resume_ratio,
            n_contexts=args.contexts,
            n_middleboxes=args.middleboxes,
            key_bits=args.key_bits,
            key_transport=args.key_transport,
            instruments=instruments,
        )
        if args.stats_json:
            with open(args.stats_json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
        load = report["load"]
        lat = load["handshake_latency_s"]
        print(
            f"{load['completed']} connections in {load['duration_s']:.2f}s; "
            f"{load['conn_per_s']:.1f} connections/sec "
            f"({report['mode']}, {report['middleboxes']} mbox, "
            f"{args.key_bits}-bit keys, concurrency {load['concurrency']}, "
            f"{load['resumed']} resumed, {load['failed']} failed); "
            f"handshake p50={lat['p50']:.4f}s p95={lat['p95']:.4f}s "
            f"p99={lat['p99']:.4f}s"
        )
        return 1 if load["failed"] else 0

    stats = run_s_time(
        MODE_NAMES[args.mode],
        seconds=args.seconds,
        n_contexts=args.contexts,
        n_middleboxes=args.middleboxes,
        key_bits=args.key_bits,
        key_transport=args.key_transport,
        instruments=instruments,
    )
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
    print(
        f"{stats['connections']} connections in {stats['seconds']:.2f}s; "
        f"{stats['connections_per_second']:.1f} connections/sec "
        f"({stats['mode']}, {stats['contexts']} ctx, "
        f"{stats['middleboxes']} mbox, {stats['key_bits']}-bit keys)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
