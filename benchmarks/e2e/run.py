"""Socket-level benchmark of the mcTLS chain.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints one JSON object as the last
line of stdout: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` it runs all five workloads (each untraced, then
traced, each in a fresh process), prints every metric by name and unit,
and writes ``benchmarks/e2e/results/``.  ``--smoke`` shrinks that to one
second per workload without the traced round and checks the schema;
``--repeat N`` runs the set N times and reports how well the sets agree.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import asyncio
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

# Knobs that switch code paths inside the program must not leak in, and
# the program is this checkout's src/, never an installed copy.  Both are
# settled before anything of it is imported (it reads them at import).
_leaked = sorted(k for k in os.environ if k.startswith(("REPRO_", "MCTLS_BENCH_")))
if _leaked:
    sys.exit(f"refusing to run with {', '.join(_leaked)} set")
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.harness import DEFAULT_KEY_BITS  # noqa: E402
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256  # noqa: E402

import schema  # noqa: E402
import tracing  # noqa: E402
from loadgen import (  # noqa: E402
    HostSpeed,
    Recorder,
    clock,
    iqr_share,
    on_reference_host,
    pct,
    quiet_half,
    quiet_samples,
    slice_stats,
    tick_every_second,
)
from workloads import WORKLOADS, Seams  # noqa: E402

BOOT_S = time.perf_counter() - _PROCESS_START  # interpreter up -> program imported
SETUPS_PER_RUN = 4
WARMUP_S = 1.0
UNTRACED_SHARE = 0.4  # of a traced run's window: prices the proxies, gives the tails


def rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def fingerprint() -> dict:
    def version(module: str) -> str:
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "not a git checkout"
    except OSError:
        commit = "git absent"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": version("numpy"),
        "cryptography": version("cryptography"),
        "key_bits": DEFAULT_KEY_BITS,
        "suite": SUITE_DHE_RSA_SHACTR_SHA256.name,
        "loop": type(asyncio.new_event_loop()).__name__,
        "topology": "loopback, one process",
    }


# -- one workload in this process -----------------------------------------------


async def measure(workload, seconds: float):
    rec = Recorder()
    start = clock()
    deadline = start + seconds
    ticker = asyncio.ensure_future(tick_every_second(rec, start, deadline))
    await workload.load(rec, deadline)
    await ticker
    return rec


@contextlib.asynccontextmanager
async def host_speed_sampled():
    """Interleave the calibration kernels with whatever runs inside."""
    speed = HostSpeed()
    stop = asyncio.Event()
    sampler = asyncio.ensure_future(speed.sample_until(stop))
    try:
        yield speed
    finally:
        stop.set()
        await sampler
        speed.close()


UNITS = {name: unit for name, unit, *_ in schema.END_TO_END + schema.PER_LAYER}


def on_reference(metrics: dict, slowdown: float) -> dict:
    return {n: on_reference_host(v, UNITS[n], slowdown) for n, v in metrics.items()}


def end_to_end(rec, speed: HostSpeed) -> dict:
    """From the quiet half of the slices, each on the reference host."""
    bounds = [wall for wall, _cpu in rec.ticks]
    factors = [speed.factor(start, end) for start, end in zip(bounds, bounds[1:])]
    kept = [factors[i] for i in quiet_half(factors)]
    print(f"host slowdown per slice {min(factors):.2f}-{max(factors):.2f}, "
          f"kept {len(kept)} of {len(factors)} at <= {max(kept):.2f}", file=sys.stderr)
    slices = slice_stats(rec, factors)
    return {
        "ops_per_s": statistics.median(slices["ops_per_s"]),
        "op_p50_ms": pct(quiet_samples(rec.latencies(), bounds, factors), 50) * 1e3,
        "ttfb_p50_ms": pct(quiet_samples(rec.ttfbs(), bounds, factors), 50) * 1e3,
        "goodput_mb_per_s": statistics.median(slices["goodput_mb_per_s"]),
        "cpu_ms_per_op": statistics.median(slices["cpu_ms_per_op"]),
    }


async def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setups = []
    setup_speed = HostSpeed()
    workload = None
    for _ in range(SETUPS_PER_RUN):
        if workload is not None:
            await workload.teardown()
        start = clock()
        workload = WORKLOADS[name](seed, Seams())
        await workload.setup()
        setups.append(clock() - start)
        setup_speed.sample(rounds=5)
    setup_speed.close()
    try:
        await workload.load(Recorder(), clock() + WARMUP_S)
        async with host_speed_sampled() as speed:
            rec = await measure(workload, seconds)
        rss = rss_mb()  # before the sums below make their lists
        failures = workload.checks(rec)
    finally:
        await workload.teardown()
    metrics = end_to_end(rec, speed)
    metrics["rss_mb"] = rss
    metrics["setup_s"] = (BOOT_S + statistics.median(setups)) / setup_speed.factor()
    return finish(rec, failures, metrics)


async def run_traced(name: str, seed: int, seconds: float) -> dict:
    seams = tracing.TracedSeams()
    workload = WORKLOADS[name](seed, seams)
    await workload.setup()
    try:
        await workload.load(Recorder(), clock() + WARMUP_S)
        async with host_speed_sampled() as speed:
            plain = await measure(workload, seconds * UNTRACED_SHARE)
            rec = await tracing.traced_window(
                workload, seams, measure, seconds * (1 - UNTRACED_SHARE)
            )
        failures = workload.checks(rec)
        metrics = on_reference(tracing.per_layer(workload, seams, rec, plain), speed.factor())
        metrics["host.slowdown"] = speed.factor()
    finally:
        await workload.teardown()
    RESULTS.mkdir(exist_ok=True)
    seams.write(RESULTS / f"trace-{name}.json", name, seed)
    return finish(rec, failures, metrics)


def finish(rec, failures, metrics: dict) -> dict:
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for reason, count in rec.errors.items():
        print(f"FAILED OPS: {count} x {reason}", file=sys.stderr)
    return {
        "correct": not failures and rec.failed == 0,
        "attempted": max(1, rec.attempted),
        "failed": rec.failed + len(failures),
        "metrics": metrics,
    }


def with_units(values: dict, trace: bool) -> dict:
    names = [m[0] for m in (schema.PER_LAYER if trace else schema.END_TO_END)]
    missing = set(names) - set(values)
    if missing:
        raise SystemExit(f"metrics not produced: {sorted(missing)}")
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


def run_one(args) -> int:
    run = run_traced if args.trace else run_untraced
    result = asyncio.run(run(args.workload, args.seed, args.seconds))
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in a fresh process -------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} (trace {trace}) printed no result, exit {proc.returncode}")
    return json.loads(lines[-1])


def run_set(seed: int, seconds: float, traced: bool) -> dict:
    results = {}
    for workload in schema.WORKLOADS:
        entry = {"end_to_end": spawn(workload, seed, seconds, 0)}
        if traced:
            entry["per_layer"] = spawn(workload, seed, seconds, 1)
        results[workload] = entry
        for kind, result in entry.items():
            state = "ok" if result["correct"] else "INCORRECT"
            print(f"\n== {workload} [{kind}] {state}: "
                  f"{result['failed']} failed of {result['attempted']} attempted")
            for name, cell in result["metrics"].items():
                print(f"  {name:45s} {cell['value']:>16.6g} {cell['unit']}")
    return results


def validate(results: dict) -> list:
    """Every named metric present, finite and carrying its unit; and
    BENCHMARK.json saying what schema.py says."""
    problems = []
    for workload, entry in results.items():
        for kind, spec in (("end_to_end", schema.END_TO_END), ("per_layer", schema.PER_LAYER)):
            if kind not in entry:
                continue
            result = entry[kind]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/{kind}: wrong result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}/{kind}: failed_share > 0")
            for name, unit, *_ in spec:
                cell = result["metrics"].get(name)
                if cell is None:
                    problems.append(f"{workload}/{name}: missing")
                elif cell.get("unit") != unit:
                    problems.append(f"{workload}/{name}: unit {cell.get('unit')!r} != {unit!r}")
                elif not isinstance(cell.get("value"), (int, float)) or not math.isfinite(cell["value"]):
                    problems.append(f"{workload}/{name}: value {cell.get('value')!r} not finite")
    if json.loads((ROOT / "BENCHMARK.json").read_text()) != schema.contract():
        problems.append("BENCHMARK.json differs from `python3 benchmarks/e2e/schema.py`")
    return problems


def noise(sets: list) -> dict:
    """Run-to-run spread of every gated metric x workload over the sets:
    quartile distance as a share of the median (what the driver takes
    over ten runs), next to the metric's bound."""
    out = {}
    for workload in sets[0]:
        for name, _unit, _better, bound in schema.END_TO_END:
            values = [s[workload]["end_to_end"]["metrics"][name]["value"] for s in sets]
            out[f"{workload}/{name}"] = {
                "values": values,
                "median": statistics.median(values),
                "spread": iqr_share(values),
                "bound": bound,
            }
    return out


def run_all(args) -> int:
    seconds = 1.0 if args.smoke else args.seconds
    # Set i uses seed + i, so the spread includes what another seed does
    # to the inputs, as it will when the driver judges a later change.
    sets = [
        run_set(args.seed + i, seconds, traced=not args.smoke) for i in range(args.repeat)
    ]
    problems = validate(sets[-1])
    document = {
        "claim": None,
        "seed": args.seed,
        "run_seconds": seconds,
        "fingerprint": fingerprint(),
        "bounds": {n: {"better": b, "bound": bound} for n, _u, b, bound in schema.END_TO_END},
        "sets": sets,
    }
    if len(sets) > 1:
        document["noise"] = noise(sets)
        wide = {k: v for k, v in document["noise"].items() if v["spread"] > v["bound"]}
        print(f"\n{len(sets)} sets: {len(document['noise']) - len(wide)} of "
              f"{len(document['noise'])} metric x workload cells spread within their bound")
        for key, cell in wide.items():
            print(f"  wider: {key} spread {cell['spread']:.1%} > bound {cell['bound']:.0%}")
    RESULTS.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else RESULTS / ("smoke.json" if args.smoke else "latest.json")
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(schema.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="result file of the all-workloads form")
    args = parser.parse_args()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
