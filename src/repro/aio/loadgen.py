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
  as a safety cap, so an overloaded server queues rather than forking
  unbounded work).  This measures behaviour at a target offered load.
* **periodic records** — ``records=N, period_s=P`` on long-lived sessions
  (``connections == concurrency``) is Madtls's industrial traffic shape:
  tiny sensor/actuator reports on a fixed cycle, where the p99 of the
  per-record round trip against the cycle deadline is the figure of merit.

``resume_ratio`` marks that fraction of sessions as resumption
candidates: the factory receives ``resume=True`` and should build the
client against a shared ``ClientSessionStore`` so abbreviated handshakes
actually happen (the first such session necessarily does a full
handshake and seeds the store).  ``ticket_ratio`` further splits the
resumption candidates: that fraction resume via stateless session
tickets (factory called with ``ticket=True``), the rest via the
server-side session cache — the knob that compares O(1)-server-memory
resumption against the stateful kind.

``processes=k`` forks the generator through :func:`repro.mp.fork.fork`
— a single Python client process saturates one core on handshake crypto
long before a sharded server does, so measuring a multi-worker server
needs a multi-process client.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aio.connection import AsyncConnection
from repro.aio.connection import connect as aio_connect
from repro.mp.fork import expect, fork, join

__all__ = ["LoadResult", "percentile", "run_load"]


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

    runtime: str  # "async" | "mp"
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

    def _count_error(self, name: str, count: int = 1) -> None:
        self.errors[name] = self.errors.get(name, 0) + count


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


def _plan_sessions(
    connections: int, resume_ratio: float, ticket_ratio: float
) -> List[Tuple[bool, bool]]:
    """Per-session ``(resume, ticket)`` plan.  ``ticket_ratio`` applies
    *within* the resumption candidates: 0.0 means all candidates use the
    session cache, 1.0 means all use tickets, 0.5 alternates."""
    resume, ticket = _spread(resume_ratio), _spread(ticket_ratio)
    return [(r, r and ticket()) for r in (resume() for _ in range(connections))]


async def run_load(
    addr: Tuple[str, int],
    client_factory: Callable[..., object],
    connections: int = 100,
    concurrency: int = 50,
    rate: Optional[float] = None,
    resume_ratio: float = 0.0,
    ticket_ratio: float = 0.0,
    payload: bytes = b"ping",
    records: int = 1,
    period_s: Optional[float] = None,
    context_id: Optional[int] = None,
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
    processes: Optional[int] = None,
) -> LoadResult:
    """Drive ``connections`` sessions against ``addr``.

    ``client_factory(resume: bool)`` must return a fresh sans-I/O client
    connection; when ``ticket_ratio`` > 0 it is called with an additional
    ``ticket`` keyword selecting stateless-ticket resumption for that
    fraction of the resumption candidates.

    Each session handshakes, echoes ``records`` records and closes.  A
    record is ``payload`` with its first byte replaced by a counter that
    differs between neighbouring records and sessions, so a stale or
    crossed echo fails the mismatch check; an empty ``payload`` sends
    none.  One record is in flight per session (send → await echo, a
    request/confirm control loop).  With ``period_s`` the records launch
    on a wall-clock schedule from the end of the handshake — an echo that
    runs long shows up in the tail latencies instead of stretching the
    run; ``None`` sends them back to back.

    ``processes=k`` forks ``k`` generators, each running its share of
    ``connections`` (``concurrency`` and ``rate`` split evenly) on its
    own event loop with its own copies of whatever the factory closure
    captured — so resumption stores are per-process, exactly like
    independent client machines — and merges their results
    (``runtime == "mp"``; needs the ``fork`` start method: closures are
    inherited, not pickled).  Every fork happens before the first
    ``await``, on the loop thread itself, so that thread is never
    mid-callback when a child is cut off, and the parent waits for the
    shards' results in the default executor, so the caller's loop keeps
    turning while the children run — the relays of a chain live on it.
    A shard that fails counts its ``RuntimeError`` (naming the shard and
    its cause) in ``errors``; if every shard fails, that is raised.
    """
    if processes is not None:
        # Nothing but the parameters is bound yet: every child gets the
        # caller's keyword set, its share of the first three aside.
        return await _run_forked(**locals())
    result = LoadResult(
        runtime="async", requested=connections, concurrency=concurrency, rate=rate
    )
    sem = asyncio.Semaphore(concurrency)
    loop = asyncio.get_running_loop()
    plan = _plan_sessions(connections, resume_ratio, ticket_ratio)
    use_ticket_kwarg = ticket_ratio > 0
    echoes = records if payload else 0
    start = loop.time()

    async def one(index: int, resume: bool, ticket: bool) -> None:
        if rate is not None:
            # Open loop: hold this session until its scheduled launch.
            delay = start + index / rate - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
        async with sem:
            conn: Optional[AsyncConnection] = None
            try:
                if use_ticket_kwarg:
                    client = client_factory(resume=resume, ticket=ticket)
                else:
                    client = client_factory(resume=resume)
                conn = await aio_connect(addr, client, default_timeout=io_timeout)
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
                    reply = await conn.recv_app_data(io_timeout)
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

    await asyncio.gather(
        *(one(i, resume, ticket) for i, (resume, ticket) in enumerate(plan))
    )
    result.duration_s = loop.time() - start
    return result


async def _run_forked(
    addr, client_factory, processes, connections, concurrency, rate, **session
) -> LoadResult:
    """``run_load(processes=k)``: fork, wait for each shard's result in
    the default executor, merge."""
    if processes < 1:
        raise ValueError("processes must be >= 1")
    shards = [
        connections // processes + (1 if i < connections % processes else 0)
        for i in range(processes)
    ]
    shards = [n for n in shards if n > 0]
    loads = [
        dict(
            session,
            connections=n,
            concurrency=max(1, concurrency // len(shards)),
            rate=(rate / len(shards)) if rate is not None else None,
        )
        for n in shards
    ]

    def shard(index, pipe) -> None:
        result = asyncio.run(run_load(addr, client_factory, **loads[index]))
        pipe.send(("result", result))

    children = fork(len(loads), shard, "load shard")
    loop = asyncio.get_running_loop()
    results: List[LoadResult] = []
    errors: List[str] = []
    for child in children:
        try:
            results.append(await loop.run_in_executor(None, expect, child, "result"))
        except RuntimeError as exc:
            errors.append(str(exc))
        await loop.run_in_executor(None, join, child)
    if not results:
        raise RuntimeError(
            "all load-generator processes failed: " + "; ".join(errors)
        )
    merged = _merge_results(results)
    for err in errors:
        merged._count_error(err)
    return merged


def _merge_results(results: List[LoadResult]) -> LoadResult:
    """Fold per-process results into one: counters add, latency samples
    concatenate, duration is the slowest process (they ran in parallel)."""
    rates = [r.rate for r in results if r.rate is not None]
    merged = LoadResult(
        runtime="mp",
        requested=sum(r.requested for r in results),
        concurrency=sum(r.concurrency for r in results),
        rate=sum(rates) if rates else None,
        duration_s=max(r.duration_s for r in results),
    )
    for r in results:
        merged.completed += r.completed
        merged.failed += r.failed
        merged.resumed += r.resumed
        merged.records += r.records
        merged.handshake_latencies.extend(r.handshake_latencies)
        merged.record_latencies.extend(r.record_latencies)
        for name, count in r.errors.items():
            merged._count_error(name, count)
    return merged
