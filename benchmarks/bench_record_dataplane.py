"""Record data-plane throughput driver with a machine-readable trajectory.

Every experiment in the reproduction funnels real bytes through the
record layers, so this driver measures the *data plane* itself: records
per second and MB/s per (protocol, suite, role) for

* TLS endpoint encode / decode,
* mcTLS endpoint encode / decode / full encode+decode loop,
* the middlebox record processor (opaque pass-through, READ verify,
  WRITE rebuild).

Unlike the table benches, results go to a machine-readable JSON at the
repo root (``BENCH_record_dataplane.json``) keyed by *phase* so runs can
be compared across PRs:

* ``--phase before`` — record a baseline (run on the pre-optimization
  tree);
* ``--phase after`` — record the current tree and compute speedups
  against the stored ``before`` entries;
* ``--phase smoke`` — tiny byte counts, correctness of the harness only
  (used by CI; writes wherever ``--output`` points, never the repo
  root trajectory by default).

Decode-side roles feed the receiver the whole wire stream at once — the
bulk-transfer receive pattern of Fig. 7 — so receive-buffer behaviour is
part of what is measured, exactly like the real middlebox relay loop.

The default workload uses small (256 B) records: records/sec is a
*per-record-overhead* metric, and small records — HTTP headers,
interactive traffic, the small objects of Fig. 7 — are where that
overhead dominates.  The per-byte keystream cost is pinned by wire
compatibility (golden vectors), so MTU-size runs (``--payload-bytes
1400``) measure the crypto floor instead; every JSON entry embeds its
own ``payload_len``/``records`` and speedups are only computed between
entries with identical workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.crypto.evp import CIPHER_BACKEND
from repro.crypto.fastcipher import KEYSTREAM_BACKEND
from repro.mctls import keys as mk
from repro.mctls.contexts import Permission
from repro.mctls.record import (
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    split_records,
)
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
    CipherSuite,
)
from repro.tls.record import APPLICATION_DATA, RecordLayer

SCHEMA = "mctls-record-dataplane/1"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_record_dataplane.json"
THRESHOLD = 2.0

# The acceptance criteria of the zero-copy/key-cached data-plane PR:
# the mcTLS SHA-CTR endpoint encode+decode loop and the middlebox
# read/write paths must clear THRESHOLD x the stored baseline.
ACCEPTANCE_KEYS = (
    "mctls|shactr|endpoint-encode-decode",
    "mctls|shactr|middlebox-read",
    "mctls|shactr|middlebox-write",
)

SUITES = {
    "shactr": SUITE_DHE_RSA_SHACTR_SHA256,
    "aes128-cbc": SUITE_DHE_RSA_AES128_CBC_SHA256,
}

SECRET, RC, RS = b"S" * 48, b"c" * 32, b"s" * 32


# -- fixtures ----------------------------------------------------------------


def _tls_pair(suite: CipherSuite):
    enc_key, mac_key = bytes(suite.key_length), b"m" * 32
    writer = RecordLayer()
    writer.write_state.activate(suite, suite.new_cipher(enc_key), mac_key)
    reader = RecordLayer()
    reader.read_state.activate(suite, suite.new_cipher(enc_key), mac_key)
    return writer, reader


def _mctls_layer(suite: CipherSuite, is_client: bool) -> McTLSRecordLayer:
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(suite)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(SECRET, RC, RS))
    layer.install_context_keys(1, mk.ckd_context_keys(SECRET, RC, RS, 1))
    layer.activate_write()
    layer.activate_read()
    return layer


def _processor(suite: CipherSuite, permission: Permission) -> MiddleboxRecordProcessor:
    proc = MiddleboxRecordProcessor(suite, mk.C2S)
    keys = mk.ckd_context_keys(SECRET, RC, RS, 1)
    proc.install(1, permission, keys if permission.can_read else None)
    proc.activate()
    return proc


def _wire_stream(suite: CipherSuite, payload: bytes, records: int) -> bytes:
    client = _mctls_layer(suite, True)
    return b"".join(
        client.encode(APPLICATION_DATA, payload, 1) for _ in range(records)
    )


# -- roles -------------------------------------------------------------------


def _run_tls_encode(suite, payload, records):
    writer, _ = _tls_pair(suite)
    start = time.perf_counter()
    for _ in range(records):
        writer.encode(APPLICATION_DATA, payload)
    return time.perf_counter() - start


def _run_tls_decode(suite, payload, records):
    writer, reader = _tls_pair(suite)
    wire = b"".join(writer.encode(APPLICATION_DATA, payload) for _ in range(records))
    start = time.perf_counter()
    reader.feed(wire)
    seen = sum(1 for _ in reader.read_all())
    elapsed = time.perf_counter() - start
    assert seen == records, f"decoded {seen}/{records} TLS records"
    return elapsed


def _run_mctls_encode(suite, payload, records):
    client = _mctls_layer(suite, True)
    start = time.perf_counter()
    for _ in range(records):
        client.encode(APPLICATION_DATA, payload, 1)
    return time.perf_counter() - start


def _run_mctls_decode(suite, payload, records):
    wire = _wire_stream(suite, payload, records)
    server = _mctls_layer(suite, False)
    start = time.perf_counter()
    server.feed(wire)
    seen = sum(1 for _ in server.read_all())
    elapsed = time.perf_counter() - start
    assert seen == records, f"decoded {seen}/{records} mcTLS records"
    return elapsed


def _run_mctls_encode_decode(suite, payload, records):
    client = _mctls_layer(suite, True)
    server = _mctls_layer(suite, False)
    start = time.perf_counter()
    wire = b"".join(
        client.encode(APPLICATION_DATA, payload, 1) for _ in range(records)
    )
    server.feed(wire)
    seen = sum(1 for _ in server.read_all())
    elapsed = time.perf_counter() - start
    assert seen == records, f"roundtripped {seen}/{records} mcTLS records"
    return elapsed


def _run_middlebox(suite, payload, records, permission, rebuild):
    wire = _wire_stream(suite, payload, records)
    proc = _processor(suite, permission)
    buf = bytearray(wire)
    out = bytearray()
    start = time.perf_counter()
    for content_type, ctx_id, fragment, raw in split_records(buf):
        opened = proc.open_record(content_type, ctx_id, fragment)
        if rebuild and opened.payload is not None:
            out += proc.rebuild_record(opened, opened.payload)
        else:
            out += raw
    elapsed = time.perf_counter() - start
    assert len(out) >= records * len(payload), "middlebox dropped records"
    return elapsed


ROLES = {
    ("tls", "endpoint-encode"): _run_tls_encode,
    ("tls", "endpoint-decode"): _run_tls_decode,
    ("mctls", "endpoint-encode"): _run_mctls_encode,
    ("mctls", "endpoint-decode"): _run_mctls_decode,
    ("mctls", "endpoint-encode-decode"): _run_mctls_encode_decode,
    ("mctls", "middlebox-passthrough"): lambda s, p, r: _run_middlebox(
        s, p, r, Permission.NONE, False
    ),
    ("mctls", "middlebox-read"): lambda s, p, r: _run_middlebox(
        s, p, r, Permission.READ, False
    ),
    ("mctls", "middlebox-write"): lambda s, p, r: _run_middlebox(
        s, p, r, Permission.WRITE, True
    ),
}

def scenario_list(payload_len: int, records: int, aes_records: int, aes_payload: int):
    """Every (protocol, suite, role) cell with its workload scale.

    AES-128-CBC cells run a reduced workload, sized for pure-Python AES
    (orders of magnitude slower; ``cipher_backend`` says which ran) —
    entries embed their own scale, and comparisons are only ever made
    between entries with identical keys.
    """
    cells = []
    for (protocol, role) in ROLES:
        for suite_name in ("shactr", "aes128-cbc"):
            if suite_name == "aes128-cbc":
                cells.append((protocol, suite_name, role, aes_payload, aes_records))
            else:
                cells.append((protocol, suite_name, role, payload_len, records))
    return cells


# -- measurement -------------------------------------------------------------


def measure(protocol, suite_name, role, payload_len, records, repeats):
    runner = ROLES[(protocol, role)]
    suite = SUITES[suite_name]
    payload = b"\x5a" * payload_len
    best = min(runner(suite, payload, records) for _ in range(repeats))
    return {
        "phase": None,  # filled by caller
        "protocol": protocol,
        "suite": suite_name,
        "keystream_backend": KEYSTREAM_BACKEND,
        "cipher_backend": CIPHER_BACKEND,
        "role": role,
        "payload_len": payload_len,
        "records": records,
        "repeats": repeats,
        "seconds": round(best, 6),
        "records_per_sec": round(records / best, 1),
        "mb_per_sec": round(records * payload_len / best / 1e6, 3),
    }


def entry_key(entry) -> str:
    return f"{entry['protocol']}|{entry['suite']}|{entry['role']}"


def compute_speedups(entries: dict) -> dict:
    """after/before records-per-sec ratio for every cell with both phases."""
    speedups = {}
    for key in sorted({k.split("@", 1)[1] for k in entries}):
        before = entries.get(f"before@{key}")
        after = entries.get(f"after@{key}")
        if not before or not after:
            continue
        comparable = (
            before["payload_len"] == after["payload_len"]
            and before["records"] == after["records"]
        )
        speedups[key] = {
            "before_records_per_sec": before["records_per_sec"],
            "after_records_per_sec": after["records_per_sec"],
            "speedup": round(
                after["records_per_sec"] / before["records_per_sec"], 3
            ),
            "comparable_workload": comparable,
        }
    return speedups


def compute_acceptance(speedups: dict) -> dict:
    checked = {
        key: speedups[key]["speedup"] for key in ACCEPTANCE_KEYS if key in speedups
    }
    return {
        "threshold": THRESHOLD,
        "required_keys": list(ACCEPTANCE_KEYS),
        "speedups": checked,
        "pass": bool(checked)
        and len(checked) == len(ACCEPTANCE_KEYS)
        and all(v >= THRESHOLD for v in checked.values()),
    }


# -- persistence -------------------------------------------------------------


def load_report(path: Path) -> dict:
    if path.exists():
        report = json.loads(path.read_text())
        if report.get("schema") == SCHEMA:
            return report
    return {"schema": SCHEMA, "entries": {}, "speedups": {}, "acceptance": {}}


def run(phase, payload_len, records, aes_records, aes_payload, repeats, output):
    report = load_report(output)
    cells = scenario_list(payload_len, records, aes_records, aes_payload)
    print(f"# record data-plane bench — phase={phase}, {len(cells)} cells")
    for protocol, suite_name, role, plen, count in cells:
        entry = measure(protocol, suite_name, role, plen, count, repeats)
        entry["phase"] = phase
        entry["python"] = platform.python_version()
        entry["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        report["entries"][f"{phase}@{entry_key(entry)}"] = entry
        print(
            f"  {protocol:5s} {suite_name:10s} {role:24s} "
            f"{entry['records_per_sec']:>10.1f} rec/s  "
            f"{entry['mb_per_sec']:>8.3f} MB/s"
        )
    report["speedups"] = compute_speedups(report["entries"])
    report["acceptance"] = compute_acceptance(report["speedups"])
    report["updated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"# wrote {output}")
    if report["speedups"]:
        print("# speedups (after vs before, records/sec):")
        for key, s in sorted(report["speedups"].items()):
            print(f"  {key:40s} {s['speedup']:.2f}x")
    if report["acceptance"].get("speedups"):
        verdict = "PASS" if report["acceptance"]["pass"] else "FAIL"
        print(f"# acceptance (>= {THRESHOLD}x on {len(ACCEPTANCE_KEYS)} keys): {verdict}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--phase",
        choices=("before", "after", "smoke"),
        default="after",
    )
    parser.add_argument(
        "--payload-bytes",
        type=int,
        default=int(os.environ.get("MCTLS_BENCH_DATAPLANE_PAYLOAD", "256")),
    )
    parser.add_argument(
        "--records",
        type=int,
        default=int(os.environ.get("MCTLS_BENCH_DATAPLANE_RECORDS", "800")),
    )
    parser.add_argument("--aes-records", type=int, default=None)
    parser.add_argument("--aes-payload-bytes", type=int, default=256)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.phase == "smoke":
        # Tiny workload: correctness of the harness, not timing.  Never
        # touches the repo-root trajectory unless asked explicitly.
        output = args.output or (REPO_ROOT / "benchmarks" / "results" / "bench_smoke.json")
        records = min(args.records, 8)
        payload = min(args.payload_bytes, 256)
        report = run("smoke", payload, records, 2, 64, 1, output)
        expected = len(scenario_list(0, 0, 0, 0))
        produced = sum(1 for k in report["entries"] if k.startswith("smoke@"))
        if produced != expected:
            print(f"smoke FAIL: {produced}/{expected} cells produced", file=sys.stderr)
            return 1
        print(f"smoke OK: {produced}/{expected} cells produced")
        return 0

    output = args.output or DEFAULT_OUTPUT
    aes_records = args.aes_records or max(4, args.records // 50)
    run(
        args.phase,
        args.payload_bytes,
        args.records,
        aes_records,
        args.aes_payload_bytes,
        args.repeat,
        output,
    )
    return 0


# -- pytest entry (matches the house bench style; not in tier-1 testpaths) --


def test_record_dataplane_smoke(capsys):
    from _common import RESULTS_DIR, emit

    out = RESULTS_DIR / "bench_smoke.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    code = main(["--phase", "smoke", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    rows = [
        f"{e['protocol']:5s} {e['suite']:10s} {e['role']:24s} "
        f"{e['records_per_sec']:.0f} rec/s"
        for k, e in sorted(report["entries"].items())
        if k.startswith("smoke@")
    ]
    emit(
        "record_dataplane_smoke",
        "Record data-plane smoke run (tiny workload, harness correctness)\n"
        + "\n".join(rows),
        capsys,
    )


if __name__ == "__main__":
    raise SystemExit(main())
