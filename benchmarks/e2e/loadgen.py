"""Measurement plumbing shared by the five workloads.

A workload reports each finished operation to a :class:`Recorder`; a
ticker samples wall and CPU clocks once a second.  Rates are then taken
per one-second slice and summarised by their **median**, latencies by
percentiles over pooled samples.  A whole-window mean moves with every
stall of this shared 2-core host; the median slice does not.

An operation that straddles a slice boundary is pro-rated by overlap, so
slow operations (a page load is a third of a second) do not quantise the
per-slice counts.

The host also changes speed for seconds and for minutes at a time, by
up to 2.8x.  :class:`HostSpeed` measures that next to the workload, each
slice is corrected by what it read inside that slice, and only the
quieter half of the slices is kept (:func:`quiet_half`).
"""

from __future__ import annotations

import asyncio
import bisect
import math
import socket
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.aio import percentile

clock = time.perf_counter


@dataclass
class Recorder:
    """Everything one measured window produced."""

    # start, end, latency_s, ttfb_s, app_bytes per finished operation, flat:
    # as a list of tuples 50 000 echoes were 10 MB of this file's in rss_mb.
    _ops: array = field(default_factory=lambda: array("d"))
    # (wall, cpu) at every slice boundary, first entry = window start.
    ticks: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    # Workload-specific pools of (when, value) samples and counters
    # (object latencies, per-connection first bytes, resumed ops ...).
    extra: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def op(self, start: float, end: float, latency: float, ttfb: float, nbytes: int) -> None:
        self._ops.extend((start, end, latency, ttfb, nbytes))

    @property
    def ops(self) -> List[Tuple[float, float, float, float, float]]:
        """(start, end, latency_s, ttfb_s, app_bytes) per finished operation."""
        columns = iter(self._ops)
        return list(zip(columns, columns, columns, columns, columns))

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def sample(self, pool: str, value: float) -> None:
        self.extra.setdefault(pool, []).append((clock(), value))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def tick(self) -> None:
        self.ticks.append((clock(), time.process_time()))

    def latencies(self) -> List[Tuple[float, float]]:
        """(when it ended, latency) per operation."""
        return [(op[1], op[2]) for op in self.ops]

    def ttfbs(self) -> List[Tuple[float, float]]:
        """Times to first byte: the workload's own pool when it keeps one
        (page_load has several connections per operation), else per op."""
        return self.extra.get("ttfb_s") or [(op[1], op[3]) for op in self.ops]


async def tick_every_second(recorder: Recorder, start: float, deadline: float) -> None:
    """Stamp a slice boundary each full second from ``start`` to
    ``deadline`` (actual times are kept, so a late wake-up under load
    lengthens that slice instead of corrupting it)."""
    recorder.tick()
    boundary = start + 1.0
    while boundary <= deadline + 1e-6:
        await asyncio.sleep(max(0.0, boundary - clock()))
        recorder.tick()
        boundary += 1.0


def values(samples: Iterable[Tuple[float, float]]) -> List[float]:
    return [value for _when, value in samples]


def pct(values: List[float], p: float) -> float:
    return percentile(sorted(values), p)


def iqr_share(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def quiet_half(factors: Sequence[float]) -> List[int]:
    """Indices of the half of the slices in which the host was quietest.

    The choice is made by the calibration kernels, never by how fast the
    workload itself ran, so it does not flatter the program.  A slice the
    host slowed 2x is only partly repaired by dividing by 2 (the program
    reacts more strongly to a busy neighbour than the kernels do); the
    less there is to repair, the less that error matters.
    """
    order = sorted(range(len(factors)), key=factors.__getitem__)
    return sorted(order[: (len(order) + 1) // 2])


def slice_stats(
    recorder: Recorder, factors: Optional[Sequence[float]] = None
) -> Dict[str, List[float]]:
    """Per-slice ops/s, app MB/s and CPU ms per op.

    With ``factors`` — the host's slowdown in each slice — every slice is
    expressed on the reference host and only the quiet half is returned.
    """
    ticks = recorder.ticks
    bounds = [wall for wall, _cpu in ticks]
    n = len(ticks) - 1
    ops = [0.0] * n
    nbytes = [0.0] * n
    for start, end, _lat, _ttfb, size in recorder.ops:
        span = end - start
        i = max(0, bisect.bisect_right(bounds, start) - 1)
        while i < n and bounds[i] < end:
            overlap = min(end, bounds[i + 1]) - max(start, bounds[i])
            if overlap > 0:
                share = overlap / span
                ops[i] += share
                nbytes[i] += share * size
            i += 1
    rate, goodput, cpu = [], [], []
    for i in range(n) if factors is None else quiet_half(factors):
        factor = 1.0 if factors is None else factors[i]
        wall = (bounds[i + 1] - bounds[i]) / factor
        rate.append(ops[i] / wall)
        goodput.append(nbytes[i] / wall / 1e6)
        if ops[i] > 0:
            cpu.append((ticks[i + 1][1] - ticks[i][1]) * 1e3 / factor / ops[i])
    return {"ops_per_s": rate, "goodput_mb_per_s": goodput, "cpu_ms_per_op": cpu}


def quiet_samples(
    samples: Iterable[Tuple[float, float]], bounds: Sequence[float], factors: Sequence[float]
) -> List[float]:
    """The durations that ended in a quiet slice, on the reference host."""
    keep = set(quiet_half(factors))
    out = []
    for when, value in samples:
        i = min(max(0, bisect.bisect_right(bounds, when) - 1), len(factors) - 1)
        if i in keep:
            out.append(value / factors[i])
    return out


class HostSpeed:
    """How slow the host is right now, against a fixed reference.

    This benchmark runs on shared cores, and the host changes speed
    under it: identical one-second slices of one run of `small_records`
    read 1041-2967 records/s, whole runs came out 1.6x slow, and a
    quarter of an hour apart two ten-run medians of the *same code*
    differed by 16-33 % on every timing, more than any bound the
    contract allows.  The slowdown is the host's (CPU seconds per
    operation rise with the wall time) and it is not uniform: in one
    run big-int arithmetic moved 1.9x, bytecode dispatch 2.1x,
    syscalls 1.8x, while the workload moved 2.4x.

    So every run interleaves three small fixed kernels with the
    measurement, ten times a second, that use nothing of the program:
    one modular exponentiation (what a handshake is made of), a
    bytecode loop (interpreter dispatch) and socketpair ping-pong (the
    syscall path of the runtime).  ``factor()`` is the geometric mean of
    (median kernel time / reference time) over a stretch of the run;
    timings of that stretch are divided by it and rates multiplied,
    which expresses them on the reference host — this VM when it is
    undisturbed.  End-to-end metrics take one factor per one-second
    slice, the per-layer metrics of a traced run one for the window.
    Fitting a weight per kernel and workload explained no more of the
    slice-to-slice variance than the plain geometric mean does.
    """

    REFERENCE_S = {"modexp": 0.78e-3, "bytecode": 0.39e-3, "pingpong": 0.32e-3}
    PERIOD_S = 0.1
    _MODULUS = (1 << 1023) + 1155
    _BASE = 0xDEADBEEF << 900
    _EXPONENT = (1 << 255) + 12345

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {name: [] for name in self.REFERENCE_S}
        self.stamps: List[float] = []  # when each round of kernels ran
        self._near, self._far = socket.socketpair()

    def _modexp(self) -> None:
        pow(self._BASE, self._EXPONENT, self._MODULUS)

    def _bytecode(self) -> None:
        total = 0
        for i in range(12000):
            total += i & 3

    def _pingpong(self) -> None:
        near, far = self._near, self._far
        for _ in range(300):
            near.send(b"x" * 64)
            far.recv(128)

    def sample(self, rounds: int = 1) -> None:
        for _ in range(rounds):
            self.stamps.append(clock())
            for name in self.REFERENCE_S:
                kernel = getattr(self, "_" + name)
                start = clock()
                kernel()
                self.samples[name].append(clock() - start)

    async def sample_until(self, stop: asyncio.Event) -> None:
        while not stop.is_set():
            await asyncio.sleep(self.PERIOD_S)
            self.sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """> 1 when the host is slower than the reference; from the rounds
        run in [start, end), or from all of them if none was."""
        rounds = [i for i, when in enumerate(self.stamps) if start <= when < end]
        rounds = rounds or range(len(self.stamps))
        ratios = [
            statistics.median(times[i] for i in rounds) / self.REFERENCE_S[name]
            for name, times in self.samples.items()
        ]
        return math.exp(statistics.fmean(math.log(r) for r in ratios))

    def close(self) -> None:
        self._near.close()
        self._far.close()


def on_reference_host(value: float, unit: str, factor: float) -> float:
    """``value`` as the reference host would have measured it: durations
    shrink by the slowdown factor, rates grow, the rest is untouched."""
    if unit in ("s", "ms", "us"):
        return value / factor
    if unit in ("1/s", "MB/s"):
        return value * factor
    return value
