"""Industrial low-latency scenario: per-hop record latency + framing overhead.

Madtls's deployment shape (tiny periodic records through in-path
industrial middleboxes, each hop spending a hard latency budget) asked
two questions of this codebase:

1. **How many wire bytes does a protected record cost?**  Measured by
   running a real handshake per framing and differencing wire bytes
   against payload bytes.  This is deterministic — geometry, not timing —
   so it is the *gated* half: at <= 64 B payloads the compact framing
   (4 B header, 8 B truncated MACs, per-field MACs included) must beat
   the default framing (6 B header, three 32 B MACs) on overhead bytes
   per record.
2. **What latency does each in-path hop add?**  Measured over real
   loopback sockets by ``repro.experiments.serving.measure_per_hop_latency``
   for all six protocol stacks (plus compact-framing rows for the two
   mcTLS stacks).  Wall-clock on a shared 1-core CI host is noise-bound,
   so latency is *reported, never gated*.

Results land in ``BENCH_industrial_latency.json`` (machine-readable,
keyed by phase) plus the usual text table under ``benchmarks/results/``.

* ``--phase smoke`` — tiny record counts, harness correctness + the
  overhead gate (CI).
* ``--phase full``  — more records, 2 hops, steadier percentiles.
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

from _common import emit, format_table, quick_testbed

from repro.experiments.harness import Mode
from repro.experiments.serving import measure_per_hop_latency
from repro.mctls.contexts import (
    ContextDefinition,
    FieldDef,
    FieldSchema,
    SessionTopology,
)
from repro.transport import Chain

SCHEMA = "mctls-industrial-latency/1"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_industrial_latency.json"

# Payload sizes of the overhead gate: the "<= 64 B records" regime where
# Madtls-style traffic lives (sensor values, setpoints, acks).
OVERHEAD_SIZES = (16, 32, 64)

# The six stacks of the serving comparison.
ALL_MODES = (
    Mode.MCTLS,
    Mode.MCTLS_CKD,
    Mode.MDTLS,
    Mode.SPLIT_TLS,
    Mode.E2E_TLS,
    Mode.NO_ENCRYPT,
)

# Compact framing is an mcTLS record-layer feature; the delegation stack
# and the baselines have no framing negotiation.
COMPACT_MODES = (Mode.MCTLS, Mode.MCTLS_CKD)


def _field_schema() -> FieldSchema:
    return FieldSchema(
        context_id=1,
        fields=(FieldDef("hdr", 0, 8), FieldDef("body", 8, 64)),
        write_grants={"hdr": (1,)},
    )


# -- overhead (deterministic, gated) ----------------------------------------


def measure_overhead(framing: str) -> dict:
    """Wire overhead bytes per protected record under one framing.

    Runs a real client <-> server handshake (so the framing is actually
    *negotiated*, not assumed), then differences wire bytes against
    payload bytes for each probe size.  Field schemas ride along under
    the compact framing, so its numbers include the per-field MACs.
    """
    bed = quick_testbed()
    topology = SessionTopology(
        middleboxes=(),
        contexts=(ContextDefinition(1, "telemetry", {}),),
    )
    client = bed.make_client(
        Mode.MCTLS,
        topology,
        framing=framing,
        field_schemas=() if framing == "mctls-default" else (_field_schema(),),
    )
    server = bed.make_server(Mode.MCTLS)
    chain = Chain(client, [], server)
    client.start_handshake()
    chain.pump()
    assert client.handshake_complete and server.handshake_complete
    assert client.negotiated_framing.name == framing

    overhead = {}
    for size in OVERHEAD_SIZES:
        payload = bytes(range(size % 256 or 1)) * (size // max(1, size % 256 or 1) + 1)
        payload = payload[:size]
        client.send_application_data(payload, context_id=1)
        wire = client.data_to_send()
        server.receive_data(wire)  # keep both sides' sequence numbers aligned
        overhead[str(size)] = len(wire) - size
    return {
        "framing": framing,
        "overhead_bytes": overhead,
    }


def run_overhead_gate() -> tuple:
    """Measure both framings and gate compact < default at every size."""
    default = measure_overhead("mctls-default")
    compact = measure_overhead("mctls-compact")
    rows = []
    failures = []
    for size in OVERHEAD_SIZES:
        d = default["overhead_bytes"][str(size)]
        c = compact["overhead_bytes"][str(size)]
        ratio = c / d
        rows.append([size, d, c, f"{ratio:.3f}", "PASS" if ratio < 1.0 else "FAIL"])
        if ratio >= 1.0:
            failures.append(
                f"compact overhead {c}B >= default {d}B at {size}B payload"
            )
    section = {
        "default": default,
        "compact": compact,
        "ratio": {
            str(size): round(
                compact["overhead_bytes"][str(size)]
                / default["overhead_bytes"][str(size)],
                4,
            )
            for size in OVERHEAD_SIZES
        },
        "gate": "compact/default overhead ratio < 1.0 at <= 64B payloads",
        "passed": not failures,
    }
    table = format_table(
        ["payload_B", "default_overhead_B", "compact_overhead_B", "ratio", "gate"],
        rows,
    )
    return section, table, failures


# -- latency (measured, reported ungated) -----------------------------------


async def run_latency(phase: str) -> list:
    """Per-hop added latency for every stack; compact rows for mcTLS."""
    bed = quick_testbed()
    if phase == "full":
        records, period_s, max_hops = 200, 0.005, 2
    else:
        records, period_s, max_hops = 25, 0.002, 1
    runs = []
    jobs = [(mode, "mctls-default", ()) for mode in ALL_MODES]
    jobs += [(mode, "mctls-compact", (_field_schema(),)) for mode in COMPACT_MODES]
    for mode, framing, schemas in jobs:
        report = await measure_per_hop_latency(
            bed,
            mode,
            max_hops=max_hops,
            records=records,
            record_size=32,
            period_s=period_s,
            framing=framing,
            field_schemas=schemas,
        )
        runs.append(report)
    return runs


def latency_table(runs: list) -> str:
    rows = []
    for report in runs:
        added = report["added_latency_per_hop_s"]
        last = added[max(added)] if added else {}
        zero_hop = report["per_hop"][0]["record_latency_s"]
        rows.append(
            [
                report["mode"],
                report["framing"] or "-",
                f"{zero_hop['p99'] * 1e6:.0f}",
                f"{last.get('p50', float('nan')) * 1e6:.0f}",
                f"{last.get('p99', float('nan')) * 1e6:.0f}",
            ]
        )
    return format_table(
        ["mode", "framing", "0hop_p99_us", "added/hop_p50_us", "added/hop_p99_us"],
        rows,
    )


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    overhead_section, overhead_table, failures = run_overhead_gate()
    latency_runs = asyncio.run(run_latency(args.phase))

    result = {
        "schema": SCHEMA,
        "phase": args.phase,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "overhead": overhead_section,
        "latency": {
            "note": (
                "wall-clock over loopback sockets; reported, not gated "
                "(1-core CI hosts make latency non-deterministic)"
            ),
            "runs": latency_runs,
        },
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    text = (
        "Per-record wire overhead (gated):\n"
        + overhead_table
        + "\n\nPer-hop added record latency (reported, ungated):\n"
        + latency_table(latency_runs)
    )
    if args.output.resolve() == DEFAULT_OUTPUT:
        emit("industrial_latency", text)
    else:
        # A side run keeps the tracked table as it is: its text goes
        # beside its JSON.
        table = args.output.with_suffix(".txt")
        table.write_text(text + "\n")
        print(text)
        print(f"wrote {table}")
    print(f"wrote {args.output}")

    if failures:
        print("OVERHEAD GATE FAILED:", "; ".join(failures))
        return 1
    print("overhead gate passed: compact < default at every <= 64B payload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
