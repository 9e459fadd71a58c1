"""Figure 5: sustainable handshake rate, two ways.

**In-memory (pytest entry)** — the original Fig. 5 reproduction: pure
protocol-CPU handshake rates per node via ``experiments.throughput``.
The paper's *ratios* are the target:

* server: mcTLS 23–35 % below SplitTLS/E2E-TLS, the gap widening with
  contexts; client-key-distribution mode reclaims it;
* middlebox: mcTLS 45–75 % above SplitTLS (one mcTLS handshake vs two
  TLS handshakes); E2E-TLS orders of magnitude above both (blind
  forwarding).

**Real sockets (CLI entry)** — the serving-runtime capacity question:
hundreds of concurrent sessions over loopback TCP through the
``repro.aio`` runtime (client → 0–2 middlebox relays → server),
measured by the concurrent load generator.  Results accumulate in a
machine-readable trajectory (``BENCH_conn_rate.json``), PR-3 style::

    python benchmarks/bench_fig5_conn_rate.py --phase smoke   # CI
    python benchmarks/bench_fig5_conn_rate.py --phase full    # the real run

Acceptance (full phase): every (mode × middlebox-count) cell completes
a >= 200-concurrent-session run with zero failures.  (The async-vs-
threaded comparison retired with the thread-per-connection servers; its
last measured ratios are kept under ``retired`` in the trajectory.)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _common import BENCH_KEY_BITS, BENCH_REPS, cpu_testbed, emit, format_table

from repro.crypto.numtheory import MODEXP_BACKEND
from repro.experiments.harness import Mode, TestBed
from repro.experiments.throughput import figure5

SCHEMA = "mctls-conn-rate/1"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_conn_rate.json"

# The serving-load matrix of the tentpole: the three §5 protocol
# comparisons across 0/1/2 middlebox hops.
LOAD_MODES = (Mode.MCTLS, Mode.SPLIT_TLS, Mode.E2E_TLS)
LOAD_MIDDLEBOXES = (0, 1, 2)


def cell_key(mode: Mode, middleboxes: int, extra: str = "") -> str:
    key = f"{mode.value}|{middleboxes}mb|async"
    return f"{key}|{extra}" if extra else key


def _entry(report_row: dict, phase: str, key_bits: int) -> dict:
    load = report_row["load"]
    entry = {
        "phase": phase,
        "mode": report_row["mode"],
        "middleboxes": report_row["middleboxes"],
        "contexts": report_row["contexts"],
        "key_bits": key_bits,
        "runtime": load["runtime"],
        "concurrency": load["concurrency"],
        "requested": load["requested"],
        "completed": load["completed"],
        "failed": load["failed"],
        "resumed": load["resumed"],
        "records": load["records"],
        "duration_s": load["duration_s"],
        "conn_per_s": load["conn_per_s"],
        "handshake_latency_s": load["handshake_latency_s"],
        "python": platform.python_version(),
        "modexp_backend": MODEXP_BACKEND,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if "server" in report_row:
        entry["server_stats"] = report_row["server"]
    return entry


def run_phase(
    phase: str,
    bed: TestBed,
    concurrency: int,
    connections: int,
    resume_ratio: float,
    output: Path,
) -> dict:
    from repro.experiments.serving import run_chain_load

    report = load_report(output)
    entries = report["entries"]
    print(
        f"# conn-rate bench — phase={phase}, key_bits={bed.key_bits}, "
        f"concurrency={concurrency}, connections={connections}/cell"
    )

    # 1. The serving matrix on the async runtime.
    for mode in LOAD_MODES:
        for middleboxes in LOAD_MIDDLEBOXES:
            row = asyncio.run(
                run_chain_load(
                    bed,
                    mode,
                    middleboxes,
                    connections=connections,
                    concurrency=concurrency,
                )
            )
            entry = _entry(row, phase, bed.key_bits)
            entries[f"{phase}@{cell_key(mode, middleboxes)}"] = entry
            lat = entry["handshake_latency_s"]
            print(
                f"  {mode.value:9s} {middleboxes}mb async    "
                f"{entry['conn_per_s']:>8.1f} conn/s  "
                f"p50={lat['p50']:.3f}s p95={lat['p95']:.3f}s p99={lat['p99']:.3f}s  "
                f"failed={entry['failed']}"
            )

    # 2. A resumption cell: the --resume-ratio knob exercised end to end.
    row = asyncio.run(
        run_chain_load(
            bed,
            Mode.MCTLS,
            1,
            connections=connections,
            concurrency=concurrency,
            resume_ratio=resume_ratio,
        )
    )
    entry = _entry(row, phase, bed.key_bits)
    entry["resume_ratio"] = resume_ratio
    entries[f"{phase}@{cell_key(Mode.MCTLS, 1, extra=f'resume{resume_ratio}')}"] = entry
    print(
        f"  {Mode.MCTLS.value:9s} 1mb async    "
        f"{entry['conn_per_s']:>8.1f} conn/s  resumed={entry['resumed']} "
        f"of {entry['completed']} (ratio {resume_ratio})"
    )

    report["acceptance"] = compute_acceptance(report, concurrency)
    report["updated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"# wrote {output}")
    if report["acceptance"]["pass"] is not None:
        print(
            f"# acceptance: {'PASS' if report['acceptance']['pass'] else 'FAIL'} "
            f"({json.dumps(report['acceptance']['checks'])})"
        )
    return report


def load_report(path: Path) -> dict:
    if path.exists():
        report = json.loads(path.read_text())
        if report.get("schema") == SCHEMA:
            return report
    return {"schema": SCHEMA, "entries": {}}


def compute_acceptance(report: dict, concurrency: int) -> dict:
    """Full-phase gate: every matrix cell completed its >=200-concurrent
    run with zero failures."""
    entries = report["entries"]
    if not any(k.startswith("full@") for k in entries):
        return {"pass": None, "reason": "full phase not run", "checks": {}}
    checks = {}
    matrix_ok = True
    for mode in LOAD_MODES:
        for middleboxes in LOAD_MIDDLEBOXES:
            cell = entries.get(f"full@{cell_key(mode, middleboxes)}")
            ok = (
                cell is not None
                and cell["failed"] == 0
                and cell["completed"] == cell["requested"]
                and cell["concurrency"] >= 200
            )
            matrix_ok &= ok
            checks[f"matrix:{mode.value}|{middleboxes}mb"] = ok
    return {
        "pass": bool(matrix_ok),
        "min_concurrency": 200,
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("smoke", "full"), default="full")
    parser.add_argument("--key-bits", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--connections", type=int, default=None)
    parser.add_argument("--resume-ratio", type=float, default=0.8)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.phase == "smoke":
        # Small keys, few sessions: proves every cell of the serving
        # matrix runs end-to-end over real sockets.  Never touches the
        # repo-root trajectory unless pointed at it.
        from repro.crypto.dh import GROUP_TEST_512

        key_bits = args.key_bits or 512
        bed = TestBed(key_bits=key_bits, dh_group=GROUP_TEST_512)
        output = args.output or (
            REPO_ROOT / "benchmarks" / "results" / "bench_conn_rate_smoke.json"
        )
        report = run_phase(
            "smoke",
            bed,
            concurrency=args.concurrency or 8,
            connections=args.connections or 24,
            resume_ratio=args.resume_ratio,
            output=output,
        )
        smoke = {
            k: v for k, v in report["entries"].items() if k.startswith("smoke@")
        }
        bad = [k for k, v in smoke.items() if v["failed"] or not v["completed"]]
        if bad:
            print(f"smoke FAIL: {bad}", file=sys.stderr)
            return 1
        print(f"smoke OK: {len(smoke)} cells, all sessions completed")
        return 0

    key_bits = args.key_bits or BENCH_KEY_BITS
    bed = cpu_testbed() if key_bits == BENCH_KEY_BITS else TestBed(key_bits=key_bits)
    concurrency = args.concurrency or 200
    connections = args.connections or max(2 * concurrency, 400)
    run_phase(
        "full",
        bed,
        concurrency=concurrency,
        connections=connections,
        resume_ratio=args.resume_ratio,
        output=args.output or DEFAULT_OUTPUT,
    )
    return 0


# -- pytest entry: the original in-memory Fig. 5 reproduction ---------------


def test_fig5_connection_rates(benchmark, capsys):
    bed = cpu_testbed()
    rows = benchmark.pedantic(
        lambda: figure5(bed, context_counts=(1, 2, 4, 8, 16), repetitions=BENCH_REPS),
        rounds=1,
        iterations=1,
    )
    table_rows = []
    for r in rows:
        mbox = f"{r.middlebox_cps:.0f}" if r.middlebox_cps else "-"
        table_rows.append(
            [
                r.mode,
                str(r.n_contexts),
                str(r.n_middleboxes),
                f"{r.server_cps:.0f}",
                mbox,
                f"{r.client_cps:.0f}",
            ]
        )
    # Ratio summary at 1 and 16 contexts (the paper's 23%→35% span).
    def rate(mode, ctx, field):
        for r in rows:
            if r.mode == mode and r.n_contexts == ctx and r.n_middleboxes == 1:
                return getattr(r, field)
        return float("nan")

    summary_lines = []
    for ctx in (1, 16):
        mctls = rate("mcTLS", ctx, "server_cps")
        split = rate("SplitTLS", ctx, "server_cps")
        summary_lines.append(
            f"server: mcTLS vs SplitTLS at {ctx} ctx: "
            f"{100 * (1 - mctls / split):.0f}% fewer conns/s (paper: 23-35%)"
        )
    mctls_mb = rate("mcTLS", 1, "middlebox_cps")
    split_mb = rate("SplitTLS", 1, "middlebox_cps")
    summary_lines.append(
        f"middlebox: mcTLS vs SplitTLS at 1 ctx: "
        f"{100 * (mctls_mb / split_mb - 1):.0f}% more conns/s (paper: 45-75%)"
    )
    emit(
        "fig5_connection_rates",
        f"Handshakes per second by node (Python stack, {MODEXP_BACKEND} big-int "
        "arithmetic; ratios are the target)\n"
        + format_table(
            ["series", "contexts", "mboxes", "server/s", "mbox/s", "client/s"],
            table_rows,
        )
        + "\n\n"
        + "\n".join(summary_lines),
        capsys,
    )


if __name__ == "__main__":
    raise SystemExit(main())
