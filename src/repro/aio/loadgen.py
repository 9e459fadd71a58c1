"""Concurrent load generator for the serving runtime (§5.2's workload).

Drives many client sessions against a serving chain over real sockets
and reports what a capacity evaluation needs: sustained connections/sec
and handshake-latency percentiles.

Two arrival models:

* **closed loop** (default) — ``concurrency`` sessions are kept in
  flight at all times; a new session starts the moment one finishes.
  This measures sustainable capacity (the paper's Fig. 5 question).
* **open loop** — ``rate`` connections/sec are *launched* on a fixed
  schedule regardless of completions (still bounded by ``concurrency``
  as a safety cap, so an overloaded server queues rather than forking
  unbounded work).  This measures behaviour at a target offered load.

``resume_ratio`` marks that fraction of sessions as resumption
candidates: the factory receives ``resume=True`` and should build the
client against a shared ``ClientSessionStore`` so abbreviated handshakes
actually happen (the first such session necessarily does a full
handshake and seeds the store).  ``ticket_ratio`` further splits the
resumption candidates: that fraction resume via stateless session
tickets (factory called with ``ticket=True``), the rest via the
server-side session cache — the knob that compares O(1)-server-memory
resumption against the stateful kind.

:func:`run_load_mp` forks the generator across processes — a single
Python client process saturates one core on handshake crypto long before
a sharded server does, so measuring a multi-worker server needs a
multi-process client.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aio.connection import AsyncConnection
from repro.aio.connection import connect as aio_connect

__all__ = [
    "LoadResult",
    "PeriodicResult",
    "merge_load_results",
    "percentile",
    "run_load",
    "run_load_mp",
    "run_periodic",
]


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


@dataclass
class LoadResult:
    """Aggregated outcome of one load run."""

    runtime: str  # "async" | "mp"
    requested: int
    completed: int = 0
    failed: int = 0
    resumed: int = 0
    concurrency: int = 0
    rate: Optional[float] = None
    duration_s: float = 0.0
    handshake_latencies: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def conn_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    def latency_percentiles(self) -> Dict[str, float]:
        values = sorted(self.handshake_latencies)
        return {
            "p50": percentile(values, 50),
            "p95": percentile(values, 95),
            "p99": percentile(values, 99),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "runtime": self.runtime,
            "requested": self.requested,
            "completed": self.completed,
            "failed": self.failed,
            "resumed": self.resumed,
            "concurrency": self.concurrency,
            "rate": self.rate,
            "duration_s": round(self.duration_s, 4),
            "conn_per_s": round(self.conn_per_s, 2),
            "handshake_latency_s": {
                k: round(v, 5) for k, v in self.latency_percentiles().items()
            },
            "errors": dict(self.errors),
        }

    def _record_error(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


@dataclass
class PeriodicResult:
    """Outcome of one periodic small-record run (the industrial workload).

    Unlike :class:`LoadResult`, the interesting latencies here are *per
    record*, not per handshake: an industrial controller cares whether
    every 10 ms sensor report clears the chain inside its deadline, so
    the p99 of record round-trip latency is the headline number.
    """

    runtime: str
    requested: int  # records requested per session, summed
    record_size: int
    period_s: float
    sessions: int = 0
    completed: int = 0
    failed: int = 0
    duration_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    def latency_percentiles(self) -> Dict[str, float]:
        values = sorted(self.latencies)
        return {
            "p50": percentile(values, 50),
            "p95": percentile(values, 95),
            "p99": percentile(values, 99),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "runtime": self.runtime,
            "requested": self.requested,
            "record_size": self.record_size,
            "period_s": self.period_s,
            "sessions": self.sessions,
            "completed": self.completed,
            "failed": self.failed,
            "duration_s": round(self.duration_s, 4),
            "record_latency_s": {
                k: round(v, 6) for k, v in self.latency_percentiles().items()
            },
            "errors": dict(self.errors),
        }

    def _record_error(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


async def run_periodic(
    addr: Tuple[str, int],
    client_factory: Callable[..., object],
    records: int = 100,
    record_size: int = 32,
    period_s: float = 0.01,
    sessions: int = 1,
    context_id: Optional[int] = None,
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
) -> PeriodicResult:
    """Drive small periodic records over long-lived sessions (Madtls's
    industrial traffic shape: tiny sensor/actuator reports on a fixed
    cycle, each with a latency deadline).

    Each of ``sessions`` connections handshakes once, then sends a
    ``record_size``-byte record every ``period_s`` seconds on an open
    loop — launches stay on the wall-clock schedule even when an echo
    runs long, so queueing shows up in the tail latencies instead of
    stretching the run.  One record is in flight per session at a time
    (send → await echo), matching a request/confirm control loop.
    """
    if records < 1:
        raise ValueError("records must be >= 1")
    if record_size < 1:
        raise ValueError("record_size must be >= 1")
    result = PeriodicResult(
        runtime="async",
        requested=records * sessions,
        record_size=record_size,
        period_s=period_s,
        sessions=sessions,
    )
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def one_session(session_index: int) -> None:
        conn: Optional[AsyncConnection] = None
        try:
            conn = await aio_connect(
                addr, client_factory(resume=False), default_timeout=io_timeout
            )
            await conn.handshake(handshake_timeout)
            session_start = loop.time()
            for i in range(records):
                delay = session_start + i * period_s - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                payload = bytes([(session_index + i) & 0xFF]) * record_size
                t0 = loop.time()
                await conn.send(payload, context_id=context_id)
                reply = await conn.recv_app_data(io_timeout)
                if reply.data != payload:
                    raise ValueError("echo mismatch")
                result.latencies.append(loop.time() - t0)
                result.completed += 1
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            result._record_error(exc)
        finally:
            if conn is not None:
                await conn.close()

    await asyncio.gather(*(one_session(i) for i in range(sessions)))
    result.duration_s = loop.time() - start
    return result


def _plan_resume_flags(connections: int, resume_ratio: float) -> List[bool]:
    """Evenly spread ``resume_ratio`` of True across the run (not a
    random draw: load runs should be reproducible)."""
    if resume_ratio <= 0:
        return [False] * connections
    flags = []
    acc = 0.0
    for _ in range(connections):
        acc += resume_ratio
        if acc >= 1.0 - 1e-9:
            acc -= 1.0
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _plan_session_flags(
    connections: int, resume_ratio: float, ticket_ratio: float
) -> List[Tuple[bool, bool]]:
    """Per-session ``(resume, ticket)`` plan, both spreads deterministic.

    ``ticket_ratio`` applies *within* the resumption candidates: 0.0
    means all candidates use the session cache, 1.0 means all use
    tickets, 0.5 alternates.
    """
    resume_flags = _plan_resume_flags(connections, resume_ratio)
    plan: List[Tuple[bool, bool]] = []
    acc = 0.0
    for resume in resume_flags:
        ticket = False
        if resume and ticket_ratio > 0:
            acc += ticket_ratio
            if acc >= 1.0 - 1e-9:
                acc -= 1.0
                ticket = True
        plan.append((resume, ticket))
    return plan


def merge_load_results(
    results: List["LoadResult"], runtime: str = "mp"
) -> "LoadResult":
    """Fold per-process results into one: counters add, latency samples
    concatenate, duration is the slowest process (they ran in parallel)."""
    merged = LoadResult(
        runtime=runtime,
        requested=sum(r.requested for r in results),
        concurrency=sum(r.concurrency for r in results),
        rate=None,
    )
    rates = [r.rate for r in results if r.rate is not None]
    if rates:
        merged.rate = sum(rates)
    for r in results:
        merged.completed += r.completed
        merged.failed += r.failed
        merged.resumed += r.resumed
        merged.handshake_latencies.extend(r.handshake_latencies)
        for name, count in r.errors.items():
            merged.errors[name] = merged.errors.get(name, 0) + count
        merged.duration_s = max(merged.duration_s, r.duration_s)
    return merged


async def run_load(
    addr: Tuple[str, int],
    client_factory: Callable[..., object],
    connections: int = 100,
    concurrency: int = 50,
    rate: Optional[float] = None,
    resume_ratio: float = 0.0,
    ticket_ratio: float = 0.0,
    payload: bytes = b"ping",
    context_id: Optional[int] = None,
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
) -> LoadResult:
    """Drive ``connections`` sessions against ``addr``.

    ``client_factory(resume: bool)`` must return a fresh sans-I/O client
    connection.  Each session handshakes, optionally echoes ``payload``
    once (skipped when ``payload`` is empty), and closes.  When
    ``ticket_ratio`` > 0 the factory is called with an additional
    ``ticket`` keyword selecting stateless-ticket resumption for that
    fraction of the resumption candidates.
    """
    result = LoadResult(
        runtime="async",
        requested=connections,
        concurrency=concurrency,
        rate=rate,
    )
    sem = asyncio.Semaphore(concurrency)
    loop = asyncio.get_running_loop()
    plan = _plan_session_flags(connections, resume_ratio, ticket_ratio)
    use_ticket_kwarg = ticket_ratio > 0
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
                conn = await aio_connect(
                    addr,
                    client,
                    default_timeout=io_timeout,
                )
                t0 = loop.time()
                await conn.handshake(handshake_timeout)
                result.handshake_latencies.append(loop.time() - t0)
                if conn.connection.resumed:
                    result.resumed += 1
                if payload:
                    await conn.send(payload, context_id=context_id)
                    reply = await conn.recv_app_data(io_timeout)
                    if reply.data != payload:
                        raise ValueError("echo mismatch")
                result.completed += 1
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                result._record_error(exc)
            finally:
                if conn is not None:
                    await conn.close()

    await asyncio.gather(
        *(one(i, resume, ticket) for i, (resume, ticket) in enumerate(plan))
    )
    result.duration_s = loop.time() - start
    return result


def _mp_load_child(pipe, addr, client_factory, kwargs) -> None:
    """Forked child: run one async load shard and ship the result back."""
    try:
        res = asyncio.run(run_load(addr, client_factory, **kwargs))
        pipe.send(("ok", res))
    except Exception as exc:  # pragma: no cover - defensive
        pipe.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        pipe.close()


async def run_load_mp(
    addr: Tuple[str, int],
    client_factory: Callable[..., object],
    connections: int = 100,
    concurrency: int = 50,
    processes: int = 2,
    rate: Optional[float] = None,
    resume_ratio: float = 0.0,
    ticket_ratio: float = 0.0,
    payload: bytes = b"ping",
    context_id: Optional[int] = None,
    handshake_timeout: float = 60.0,
    io_timeout: float = 60.0,
) -> LoadResult:
    """Fork ``processes`` client generators and merge their results.

    Each child runs :func:`run_load` over its shard of ``connections``
    with its own event loop and its own copies of whatever the factory
    closure captured — so resumption stores are per-process, exactly
    like independent client machines.  Requires the ``fork`` start
    method (closures are inherited, not pickled).

    A coroutine so the caller's loop keeps turning while the children
    run — the relays of a sharded chain live on it.  Every fork happens
    before the first ``await``, on the loop thread itself, so that
    thread is never mid-callback when a child is cut off.
    """
    if processes < 1:
        raise ValueError("processes must be >= 1")
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError("run_load_mp requires the fork start method")
    ctx = multiprocessing.get_context("fork")
    shards = [
        connections // processes + (1 if i < connections % processes else 0)
        for i in range(processes)
    ]
    shards = [n for n in shards if n > 0]
    per_conc = max(1, concurrency // max(1, len(shards)))
    children = []
    for n in shards:
        kwargs = dict(
            connections=n,
            concurrency=per_conc,
            rate=(rate / len(shards)) if rate is not None else None,
            resume_ratio=resume_ratio,
            ticket_ratio=ticket_ratio,
            payload=payload,
            context_id=context_id,
            handshake_timeout=handshake_timeout,
            io_timeout=io_timeout,
        )
        parent_pipe, child_pipe = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_mp_load_child,
            args=(child_pipe, addr, client_factory, kwargs),
            daemon=True,
        )
        proc.start()
        child_pipe.close()
        children.append((proc, parent_pipe))

    loop = asyncio.get_running_loop()
    results: List[LoadResult] = []
    errors: List[str] = []
    for proc, pipe in children:
        try:
            tag, payload_msg = await loop.run_in_executor(None, pipe.recv)
        except EOFError:
            tag, payload_msg = "err", "client process died without a result"
        if tag == "ok":
            results.append(payload_msg)
        else:
            errors.append(payload_msg)
        await loop.run_in_executor(None, proc.join)
        pipe.close()
    if not results:
        raise RuntimeError(
            "all load-generator processes failed: " + "; ".join(errors)
        )
    merged = merge_load_results(results, runtime="mp")
    for err in errors:
        merged.errors[err] = merged.errors.get(err, 0) + 1
    return merged
