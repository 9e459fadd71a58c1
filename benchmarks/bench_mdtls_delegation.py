"""Delegation economics: mdTLS warrants vs mcTLS key distribution.

The mdTLS variant replaces per-middlebox context-key distribution with
signed warrants: endpoints state *who may hold what* once, and the
server seals one DelegatedKeyMaterial blob per middlebox.  The question
this benchmark answers is what that buys per added middlebox, measured
on real handshakes (per-party op counters, same harness as Table 3):

* **Endpoint key-distribution ops** — shared-secret computations plus
  symmetric sealing operations performed by the two endpoints
  (``secret_comp`` + ``sym_encrypt``).  Under the forward-secret DHE
  key transport each added middlebox costs mcTLS DEFAULT 4 endpoint ops
  (both endpoints: pairwise DH combine + seal), CLIENT_KEY_DIST 2 (the
  client alone), and mdTLS 1 (one server-side seal to the warranted
  certificate key; the client only signs its warrant).
* **Signature economics** — the flip side: warrants move the per-mbox
  cost into ``asym_sign``/``asym_verify`` (each party checks both
  endpoints' warrants), which is why mdTLS is a *delegation* design,
  not a free lunch.
* **Handshake latency** — wall-clock full-handshake time per mode at
  0-3 middleboxes, best of ``MCTLS_BENCH_REPS``.

Results accumulate in ``BENCH_mdtls_delegation.json`` (schema
``mctls-mdtls-delegation/1``).  Acceptance: the measured marginal
endpoint key-distribution cost per added middlebox must order
mdTLS < CLIENT_KEY_DIST < DEFAULT.

    python benchmarks/bench_mdtls_delegation.py            # 1024-bit run
    python benchmarks/bench_mdtls_delegation.py --quick    # 512-bit smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _common import BENCH_KEY_BITS, BENCH_REPS, emit, format_table

from repro.crypto.numtheory import MODEXP_BACKEND
from repro.experiments.harness import Mode, TestBed, build_cell, drive_handshake
from repro.experiments.opcounts import measure_opcounts
from repro.mctls.session import KeyTransport

SCHEMA = "mctls-mdtls-delegation/1"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_mdtls_delegation.json"

MODES = (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS)
MIDDLEBOXES = (0, 1, 2, 3)
N_CONTEXTS = 2

# "Key distribution" = computing a secret with a party and sealing key
# material to it.  Signature work is reported separately — moving cost
# from this bucket into signatures is exactly the delegation trade.
KD_CATEGORIES = ("secret_comp", "sym_encrypt")
SHOW = ("asym_sign", "asym_verify", "key_gen", "secret_comp", "sym_encrypt")


def make_bed(quick: bool = False) -> TestBed:
    """DHE-transport testbed: mdTLS always runs DHE, so the mcTLS modes
    are measured under the forward-secret key transport too — the
    apples-to-apples comparison (the RSA transport of the paper's
    prototype halves DEFAULT's marginal by skipping pairwise DH)."""
    if quick:
        from repro.crypto.dh import GROUP_TEST_512

        return TestBed(
            key_bits=512, dh_group=GROUP_TEST_512, key_transport=KeyTransport.DHE
        )
    return TestBed(key_bits=BENCH_KEY_BITS, key_transport=KeyTransport.DHE)


def endpoint_kd(counts: dict) -> int:
    return sum(
        counts[party].get(cat, 0)
        for party in ("client", "server")
        for cat in KD_CATEGORIES
    )


def time_handshake(bed: TestBed, mode: Mode, n_middleboxes: int, reps: int) -> float:
    """Best-of-``reps`` wall-clock full handshake (construction and key
    generation excluded — the clock starts at ClientHello)."""
    best = float("inf")
    for _ in range(reps):
        cell = build_cell(bed, mode, N_CONTEXTS, n_middleboxes)
        start = time.perf_counter()
        drive_handshake(*cell)
        best = min(best, time.perf_counter() - start)
    return best


def run(bed: TestBed, reps: int = BENCH_REPS) -> dict:
    entries: dict = {}
    for mode in MODES:
        for n in MIDDLEBOXES:
            result = measure_opcounts(
                bed, mode, n_contexts=N_CONTEXTS, n_middleboxes=n
            )
            entries[f"{mode.value}|{n}mb"] = {
                "mode": mode.value,
                "middleboxes": n,
                "contexts": N_CONTEXTS,
                "counts": result.counts,
                "endpoint_kd": endpoint_kd(result.counts),
                "handshake_s": round(time_handshake(bed, mode, n, reps), 6),
            }

    marginals: dict = {}
    for mode in MODES:
        kd = [entries[f"{mode.value}|{n}mb"]["endpoint_kd"] for n in MIDDLEBOXES]
        deltas = [b - a for a, b in zip(kd, kd[1:])]
        marginals[mode.value] = {
            "endpoint_kd_by_mbox": kd,
            "deltas": deltas,
            # Worst observed marginal — the number the acceptance orders.
            "per_mbox": max(deltas),
        }

    md = marginals[Mode.MDTLS.value]["per_mbox"]
    ckd = marginals[Mode.MCTLS_CKD.value]["per_mbox"]
    default = marginals[Mode.MCTLS.value]["per_mbox"]
    report = {
        "schema": SCHEMA,
        "key_bits": bed.key_bits,
        "key_transport": "DHE",
        "n_contexts": N_CONTEXTS,
        "entries": entries,
        "marginal_endpoint_kd": marginals,
        "acceptance": {
            "criterion": "marginal endpoint key-distribution ops per added "
            "middlebox: mdTLS < mcTLS-ckd < mcTLS",
            "per_mbox": {"mdTLS": md, "mcTLS-ckd": ckd, "mcTLS": default},
            "pass": bool(md < ckd < default),
        },
        "reps": reps,
        "python": platform.python_version(),
        "modexp_backend": MODEXP_BACKEND,
        "updated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return report


def render(report: dict) -> str:
    entries = report["entries"]
    op_rows = []
    for mode in MODES:
        for n in MIDDLEBOXES:
            entry = entries[f"{mode.value}|{n}mb"]
            for party in ("client", "middlebox", "server"):
                if party not in entry["counts"]:
                    continue
                counts = entry["counts"][party]
                op_rows.append(
                    [mode.value, n, party]
                    + [counts.get(cat, 0) for cat in SHOW]
                )
    summary_rows = []
    for mode in MODES:
        for n in MIDDLEBOXES:
            entry = entries[f"{mode.value}|{n}mb"]
            marginal = report["marginal_endpoint_kd"][mode.value]
            delta = marginal["deltas"][n - 1] if n else "-"
            summary_rows.append(
                [
                    mode.value,
                    n,
                    entry["endpoint_kd"],
                    delta,
                    f"{entry['handshake_s'] * 1e3:.1f}",
                ]
            )
    acceptance = report["acceptance"]
    verdict = "PASS" if acceptance["pass"] else "FAIL"
    text = (
        f"Per-party crypto ops per full handshake "
        f"(K={report['n_contexts']} contexts, DHE key transport, "
        f"{report['key_bits']}-bit keys)\n"
        + format_table(["mode", "mbox", "party"] + list(SHOW), op_rows)
        + "\n\nEndpoint key-distribution ops (secret_comp + sym_encrypt, "
        "client+server) and handshake latency\n"
        + format_table(
            ["mode", "mbox", "endpoint_kd", "per-added-mbox", "handshake_ms"],
            summary_rows,
        )
        + f"\n\nacceptance ({acceptance['criterion']}): "
        + " < ".join(
            f"{name}={acceptance['per_mbox'][name]}"
            for name in ("mdTLS", "mcTLS-ckd", "mcTLS")
        )
        + f" -> {verdict}"
    )
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="512-bit keys / test DH group (CI smoke; op counts are "
        "key-size independent, latency is not)",
    )
    parser.add_argument("--reps", type=int, default=BENCH_REPS)
    args = parser.parse_args(argv)

    report = run(make_bed(quick=args.quick), reps=args.reps)
    text = render(report)
    if args.output.resolve() == DEFAULT_OUTPUT:
        emit("mdtls_delegation", text)
    else:
        # A side run keeps the tracked table as it is: its text goes
        # beside its JSON.
        table = args.output.with_suffix(".txt")
        table.parent.mkdir(parents=True, exist_ok=True)
        table.write_text(text + "\n")
        print(text)
        print(f"# wrote {table}")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"# wrote {args.output}")
    return 0 if report["acceptance"]["pass"] else 1


def test_mdtls_delegation_opcounts(benchmark, capsys):
    report = benchmark.pedantic(
        lambda: run(make_bed(quick=True), reps=1), rounds=1, iterations=1
    )
    emit("mdtls_delegation", render(report), capsys)
    assert report["acceptance"]["pass"], report["acceptance"]
    # The delegation claim, spelled out: every added middlebox costs the
    # endpoints one sealing op under warrants, two under client key
    # distribution, four under default mcTLS.
    per_mbox = report["acceptance"]["per_mbox"]
    assert per_mbox == {"mdTLS": 1, "mcTLS-ckd": 2, "mcTLS": 4}


if __name__ == "__main__":
    raise SystemExit(main())
