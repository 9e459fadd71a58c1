"""Seam tracing: timing proxies around the objects the benchmark hands
to the runtime, and the per-layer metrics computed from their spans.

Nothing under ``src/`` is touched.  The traced objects are

* the client ``Connection`` the load generator dials with,
* the server ``Connection`` the endpoint's connection factory returns,
* each ``RelayProcessor`` a relay factory returns,
* the HTTP client/server sessions and the two middlebox apps, through
  subclasses whose public hooks call ``super()`` inside a span.

All of them are driven synchronously from one event loop, so one span
stack gives parents and self times: a span's self time is its duration
minus its children's.  Each party proxy also activates its own
``crypto.opcount`` counter, so counts are taken at the same boundary as
the times.  Whatever CPU the process used outside every span — event
loop, streams, syscalls, ``AsyncConnection`` glue, the load generator —
is booked to ``aio.runtime``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.crypto.fastcipher import KEYSTREAM_POOL
from repro.crypto.opcount import OpCounter, counting
from repro.http import HttpServerSession
from repro.middleboxes import CompressionProxy, IntrusionDetectionSystem

import schema
import unitcosts
from loadgen import Recorder, clock, iqr_share, pct, slice_stats, values
from workloads import CheckingHttpClient, Seams, Workload

CONNECTION_METHODS = (
    "start_handshake",
    "receive_data",
    "data_to_send",
    "data_to_send_views",
    "send_application_data",
    "close",
)
RELAY_METHODS = (
    "receive_from_client",
    "receive_from_server",
    "data_to_client",
    "data_to_server",
    "data_to_client_views",
    "data_to_server_views",
)
APP_HOOKS = tuple(
    f"{kind}_{piece}"
    for kind in ("transform", "observe")
    for piece in ("request_headers", "request_body", "response_headers", "response_body")
)
MAX_SPANS_WRITTEN = 200_000


class Tracer:
    """In-memory span store with a stack for parents and self times."""

    def __init__(self) -> None:
        # (name, connection id, parent index, start, end), index = span id
        self.spans: List[tuple] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # [span id, connection id, time in children]

    def call(self, name: str, conn: Optional[str], fn: Callable, *args, **kwargs):
        stack = self._stack
        parent = -1
        if stack:
            parent = stack[-1][0]
            if conn is None:
                conn = stack[-1][1]
        span_id = len(self.spans)
        frame = [span_id, conn, 0.0]
        self.spans.append(None)
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self.self_time[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            self.spans[span_id] = (name, conn, parent, start, end)


class PartyProxy:
    """Stands in for a sans-I/O connection or relay; every call the
    runtime makes is a span named after the party and the phase, with
    the party's op counter active."""

    def __init__(self, inner, tracer: Tracer, party: str, conn: str, counter: OpCounter, methods):
        self._inner = inner
        for method in methods:
            setattr(
                self,
                method,
                functools.partial(self._call, tracer, f"mctls.{party}", conn, counter, getattr(inner, method)),
            )

    def _call(self, tracer, prefix, conn, counter, fn, *args, **kwargs):
        # The call that completes the handshake still belongs to it.
        phase = ".record" if self._inner.handshake_complete else ".handshake"
        with counting(counter):
            return tracer.call(prefix + phase, conn, fn, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def traced_subclass(base: type, tracer: Tracer, span: str, methods) -> type:
    """``base`` with each of ``methods`` calling ``super()`` inside a span."""

    def wrap(method: str):
        inner = getattr(base, method)

        def traced(self, *args, **kwargs):
            return tracer.call(span, None, inner, self, *args, **kwargs)

        return traced

    return type("Traced" + base.__name__, (base,), {m: wrap(m) for m in methods})


class TracedSeams(Seams):
    """Wraps what passes while ``enabled``; hands it on untouched while
    not, so one process can price the proxies against bare objects."""

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.counters = {party: OpCounter() for party in schema.PARTIES}
        self._ids = defaultdict(int)
        self._traced = {
            "http_client": traced_subclass(CheckingHttpClient, self.tracer, "http.session", ("request", "on_data")),
            "http_server": traced_subclass(HttpServerSession, self.tracer, "http.session", ("on_data",)),
            "ids_app": traced_subclass(IntrusionDetectionSystem, self.tracer, "middleboxes.ids", APP_HOOKS),
            "compression_app": traced_subclass(CompressionProxy, self.tracer, "middleboxes.compression", APP_HOOKS),
        }
        self.window = (0.0, 0.0, 0.0, 0.0)  # wall/cpu at start, wall/cpu at end

    def _pick(self, name: str):
        return self._traced[name] if self.enabled else getattr(Seams, name)

    http_client = property(lambda self: self._pick("http_client"))
    http_server = property(lambda self: self._pick("http_server"))
    ids_app = property(lambda self: self._pick("ids_app"))
    compression_app = property(lambda self: self._pick("compression_app"))

    def _proxy(self, inner, party: str, tag: str, methods):
        if not self.enabled:
            return inner
        self._ids[tag] += 1
        return PartyProxy(
            inner, self.tracer, party, f"{tag}{self._ids[tag]}", self.counters[party], methods
        )

    def client(self, connection):
        return self._proxy(connection, "client", "c", CONNECTION_METHODS)

    def server_factory(self, factory: Callable) -> Callable:
        return lambda *args: self._proxy(factory(*args), "server", "s", CONNECTION_METHODS)

    def relay_factory(self, factory: Callable, hop: int) -> Callable:
        return lambda: self._proxy(factory(), "middlebox", f"m{hop}-", RELAY_METHODS)

    def write(self, path: Path, workload: str, seed: int) -> None:
        spans = self.tracer.spans
        origin = spans[0][3] if spans else 0.0
        document = {
            "workload": workload,
            "seed": seed,
            "spans_recorded": len(spans),
            "columns": ["id", "parent", "name", "connection", "start_us", "end_us"],
            "spans": [
                [i, parent, name, conn, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1)]
                for i, (name, conn, parent, start, end) in enumerate(spans[:MAX_SPANS_WRITTEN])
            ],
        }
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")


async def traced_window(workload: Workload, seams: TracedSeams, measure, seconds: float) -> Recorder:
    """Measure ``seconds`` with the proxies in, over fresh counters."""
    workload.handshake_wire_bytes.clear()
    workload.record_wire_bytes = workload.records = 0
    seams.enabled = True
    wall, cpu = clock(), time.process_time()
    try:
        rec = await measure(workload, seconds)
    finally:
        seams.enabled = False
    seams.window = (wall, cpu, clock(), time.process_time())
    return rec


def per_layer(workload: Workload, seams: TracedSeams, rec: Recorder, plain: Recorder) -> Dict[str, float]:
    """Every ``schema.PER_LAYER`` metric: spans and counts from the
    traced window ``rec``, generator health and tails from the untraced
    window ``plain`` (the proxies stretch the tails they would report)."""
    out = span_metrics(workload, seams, rec)
    out["trace.overhead_share"] = per_op_cpu_ms(rec) / per_op_cpu_ms(plain) - 1
    out.update(boundary_counts(workload))
    costs = unitcosts.measure(workload.bed)
    out.update(costs)
    handshake_self = sum(seams.tracer.self_time[f"mctls.{p}.handshake"] for p in schema.PARTIES)
    out["crypto.attributed_share"] = (
        unitcosts.attributed_s(seams.counters, costs) / handshake_self if handshake_self else 0.0
    )
    out.update(generator_health(workload, plain))
    return out


def per_op_cpu_ms(rec: Recorder) -> float:
    return statistics.median(slice_stats(rec)["cpu_ms_per_op"])


def span_metrics(workload: Workload, seams: TracedSeams, rec: Recorder) -> Dict[str, float]:
    self_time = seams.tracer.self_time
    wall0, cpu0, wall1, cpu1 = seams.window
    cpu = cpu1 - cpu0
    runtime = cpu - sum(self_time.values())
    conns = max(1, len(workload.handshake_wire_bytes))
    records = max(1, workload.records)
    objects = max(1, len(rec.extra.get("object_s", ())))
    out: Dict[str, float] = {}
    for party in schema.PARTIES:
        out[f"mctls.{party}.handshake_ms"] = self_time[f"mctls.{party}.handshake"] / conns * 1e3
        out[f"mctls.{party}.record_us"] = self_time[f"mctls.{party}.record"] / records * 1e6
        for category, count in seams.counters[party].snapshot().items():
            out[f"crypto.opcount.{party}.{category}"] = count / conns
    for layer in ("http.session", "middleboxes.compression", "middleboxes.ids"):
        out[f"{layer}.object_us"] = self_time[layer] / objects * 1e6
    out["aio.runtime.share"] = runtime / cpu
    out["aio.runtime.us_per_record"] = runtime / records * 1e6
    out["trace.accounted_share"] = cpu / (wall1 - wall0)
    out["framing.wire_bytes_per_record"] = workload.record_wire_bytes / records
    out["mctls.handshake.wire_bytes"] = statistics.mean(workload.handshake_wire_bytes or [0])
    return out


def boundary_counts(workload: Workload) -> Dict[str, float]:
    """Public snapshots, cumulative since the chain started."""
    out: Dict[str, float] = {}
    app = workload.app_stats()
    for key in ("compressed_share", "savings_ratio"):
        out[f"middleboxes.compression.{key}"] = app.get(key, 0.0)
    out["middleboxes.ids.alert_recall"] = app.get("alert_recall", 0.0)
    server = workload.chain.endpoint.snapshot()
    for key in ("accepted", "handshakes_ok", "handshakes_failed", "resumed", "errors", "timeouts"):
        out[f"aio.server.{key}"] = server[key]
    relays = [relay.stats.snapshot() for relay in workload.chain.relays]
    for key in ("errors", "bytes_in", "bytes_out"):
        out[f"aio.relay.{key}"] = sum(r[key] for r in relays)
    cache = server.get("session_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["tls.sessioncache.hit_share"] = cache.get("hits", 0) / lookups if lookups else 0.0
    pool = KEYSTREAM_POOL.stats()
    out["crypto.fastcipher.pool_hit_share"] = pool["hit"] / max(1, pool["hit"] + pool["miss"])
    return out


def generator_health(workload: Workload, rec: Recorder) -> Dict[str, float]:
    latencies, ttfbs = values(rec.latencies()), values(rec.ttfbs())
    object_s = values(rec.extra.get("object_s", ())) or [0.0]
    late = sum(1 for latency in latencies if latency > workload.deadline_s) + rec.failed
    (wall0, cpu0), (wall1, cpu1) = rec.ticks[0], rec.ticks[-1]
    return {
        "loadgen.op_p90_ms": pct(latencies, 90) * 1e3,
        "loadgen.op_p99_ms": pct(latencies, 99) * 1e3,
        "loadgen.ttfb_p90_ms": pct(ttfbs, 90) * 1e3,
        "loadgen.object_p50_ms": pct(object_s, 50) * 1e3,
        "loadgen.object_p99_ms": pct(object_s, 99) * 1e3,
        "loadgen.resumed_share": rec.counts.get("resumed", 0) / max(1, len(rec.ops)),
        "loadgen.deadline_miss_share": late / max(1, rec.attempted),
        "loadgen.idle_share": 1 - (cpu1 - cpu0) / (wall1 - wall0),
        "loadgen.slice_iqr_share": iqr_share(slice_stats(rec)["ops_per_s"]),
        "loadgen.samples": len(rec.ops),
    }
