"""Concurrent load generator for the serving runtime (§5.2's workload).

One generator, :func:`run_load`, drives client sessions against a serving
chain over real sockets.  A session is *dial → handshake → ``records``
echoes → close*; what varies is how sessions arrive and how a session's
echoes are spaced:

* **closed loop** (default) — ``concurrency`` sessions are kept in
  flight at all times; a new session starts the moment one finishes.
  This measures sustainable capacity (the paper's Fig. 5 question).
* **open loop** — ``rate`` connections/sec are *launched* on a fixed
  schedule regardless of completions (still bounded by ``concurrency``
  as a safety cap, so an overloaded server queues rather than spawning
  unbounded work).  This measures behaviour at a target offered load.
* **periodic records** — ``records=N, period_s=P`` on long-lived sessions
  (``connections == concurrency``) is Madtls's industrial traffic shape:
  tiny sensor/actuator reports on a fixed cycle, where the p99 of the
  per-record round trip against the cycle deadline is the figure of merit.

``resume_ratio`` marks that fraction of sessions as resumption
candidates: the factory receives ``resume=True`` and should build the
client against a shared ``ClientSessionStore`` so abbreviated handshakes
actually happen (the first such session necessarily does a full
handshake and seeds the store).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aio.connection import AsyncConnection
from repro.aio.connection import connect as aio_connect

__all__ = ["LoadResult", "percentile", "run_load"]

# How long one write, or the wait for one echo, may take.
IO_TIMEOUT_S = 60.0


def percentile(sorted_values: List[float], p: float) -> float:
    """Percentile of an ascending list.

    Small samples (n < 100) use the nearest-rank definition: linear
    interpolation between order statistics systematically under-reports
    tail percentiles when the tail is sparse — with 20 samples the
    interpolated p99 lands a fraction of the way from the largest value
    back toward the second largest, hiding the very outlier a p99 is
    supposed to surface.  From n >= 100 the tail holds enough samples
    for interpolation to refine rather than dilute the estimate.
    """
    if not sorted_values:
        return float("nan")
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    if n < 100:
        # Nearest rank: the smallest value with >= p% of samples at or
        # below it.
        rank = math.ceil((p / 100.0) * n)
        return sorted_values[min(max(rank, 1), n) - 1]
    rank = (p / 100.0) * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def _percentiles(samples: List[float]) -> Dict[str, float]:
    values = sorted(samples)
    return {f"p{p}": percentile(values, p) for p in (50, 95, 99)}


@dataclass
class LoadResult:
    """Aggregated outcome of one load run.

    ``requested`` / ``completed`` / ``failed`` / ``resumed`` count
    *sessions* (``completed + failed == requested``; a session completes
    when every one of its records came back), ``records`` counts echoes.
    """

    runtime: str  # always "async"; BENCH_conn_rate.json entries carry it
    requested: int
    completed: int = 0
    failed: int = 0
    resumed: int = 0
    records: int = 0
    concurrency: int = 0
    rate: Optional[float] = None
    duration_s: float = 0.0
    handshake_latencies: List[float] = field(default_factory=list)
    record_latencies: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def conn_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    def latency_percentiles(self) -> Dict[str, float]:
        """p50 / p95 / p99 of the handshake latencies."""
        return _percentiles(self.handshake_latencies)

    def to_dict(self) -> Dict[str, object]:
        return {
            "runtime": self.runtime,
            "requested": self.requested,
            "completed": self.completed,
            "failed": self.failed,
            "resumed": self.resumed,
            "records": self.records,
            "concurrency": self.concurrency,
            "rate": self.rate,
            "duration_s": round(self.duration_s, 4),
            "conn_per_s": round(self.conn_per_s, 2),
            "handshake_latency_s": {
                k: round(v, 5)
                for k, v in _percentiles(self.handshake_latencies).items()
            },
            "record_latency_s": {
                k: round(v, 6) for k, v in _percentiles(self.record_latencies).items()
            },
            "errors": dict(self.errors),
        }

    def _count_error(self, name: str) -> None:
        self.errors[name] = self.errors.get(name, 0) + 1


def _spread(ratio: float) -> Callable[[], bool]:
    """Successive calls return True for ``ratio`` of them, evenly spread
    (not a random draw: load runs should be reproducible)."""
    acc = 0.0

    def take() -> bool:
        nonlocal acc
        acc += ratio
        if acc >= 1.0 - 1e-9:
            acc -= 1.0
            return True
        return False

    return take


async def run_load(
    addr: Tuple[str, int],
    client_factory: Callable[..., object],
    connections: int = 100,
    concurrency: int = 50,
    rate: Optional[float] = None,
    resume_ratio: float = 0.0,
    payload: bytes = b"ping",
    records: int = 1,
    period_s: Optional[float] = None,
    context_id: Optional[int] = None,
    handshake_timeout: float = 60.0,
) -> LoadResult:
    """Drive ``connections`` sessions against ``addr``.

    ``client_factory(resume: bool)`` must return a fresh sans-I/O client
    connection.

    Each session handshakes, echoes ``records`` records and closes.  A
    record is ``payload`` with its first byte replaced by a counter that
    differs between neighbouring records and sessions, so a stale or
    crossed echo fails the mismatch check; an empty ``payload`` sends
    none.  One record is in flight per session (send → await echo, a
    request/confirm control loop).  With ``period_s`` the records launch
    on a wall-clock schedule from the end of the handshake — an echo that
    runs long shows up in the tail latencies instead of stretching the
    run; ``None`` sends them back to back.
    """
    result = LoadResult(
        runtime="async", requested=connections, concurrency=concurrency, rate=rate
    )
    sem = asyncio.Semaphore(concurrency)
    loop = asyncio.get_running_loop()
    take = _spread(resume_ratio)
    plan = [take() for _ in range(connections)]
    echoes = records if payload else 0
    start = loop.time()

    async def one(index: int, resume: bool) -> None:
        if rate is not None:
            # Open loop: hold this session until its scheduled launch.
            delay = start + index / rate - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
        async with sem:
            conn: Optional[AsyncConnection] = None
            try:
                conn = await aio_connect(
                    addr, client_factory(resume=resume), default_timeout=IO_TIMEOUT_S
                )
                t0 = loop.time()
                await conn.handshake(handshake_timeout)
                session_start = loop.time()
                result.handshake_latencies.append(session_start - t0)
                if conn.connection.resumed:
                    result.resumed += 1
                for i in range(echoes):
                    if period_s is not None:
                        delay = session_start + i * period_s - loop.time()
                        if delay > 0:
                            await asyncio.sleep(delay)
                    record = bytes([(index + i) & 0xFF]) + payload[1:]
                    t0 = loop.time()
                    await conn.send(record, context_id=context_id)
                    reply = await conn.recv_app_data(IO_TIMEOUT_S)
                    if reply.data != record:
                        raise ValueError("echo mismatch")
                    result.record_latencies.append(loop.time() - t0)
                    result.records += 1
                result.completed += 1
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                result.failed += 1
                result._count_error(type(exc).__name__)
            finally:
                if conn is not None:
                    await conn.close()

    await asyncio.gather(*(one(i, resume) for i, resume in enumerate(plan)))
    result.duration_s = loop.time() - start
    return result
