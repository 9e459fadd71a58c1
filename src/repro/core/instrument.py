"""Zero-cost-when-disabled instrumentation for the protocol stacks.

Every connection and middlebox carries an ``instruments`` attribute that
defaults to ``None``.  Hook sites in the hot paths are guarded by a
single ``is not None`` check, so the disabled cost is one attribute load
and one comparison.  The record data-plane benchmark
(``benchmarks/bench_record_dataplane.py``) runs with instrumentation
disabled; no benchmark or test yet compares it against an enabled or a
hook-free run, so the disabled cost is argued here, not gated.

When enabled, an :class:`Instruments` registry collects named counters
and histograms.  The registry is thread-safe; metric names are dotted
strings.

Hook points wired through the stacks (all optional — absent counters
simply read as missing keys in the snapshot):

==============================  =============================================
name                            incremented when
==============================  =============================================
``records.in``                  a record is decoded off the wire
``records.out``                 an application record is encoded for the wire
``records.legally_modified``    a record arrives writer-modified (mcTLS)
``handshake.messages_in``       a handshake message is processed
``handshake.messages_out``      a handshake message is sent
``handshake.complete``          a handshake finishes (phase transition)
``handshake.resumed``           ... via the abbreviated flow
``handshake.failed``            a connection dies before completing
``errors.fatal``                any fatal protocol error (superset of failed)
``alerts.in``                   an alert record arrives
``session.closed``              the peer ends the session
``mac.fail.<slot>``             MAC verification fails for ``endpoints`` /
                                ``writers`` / ``readers``
``context.<id>.bytes_in/out``   application bytes per context
``relay.records``               a protected record transits a middlebox
``relay.modified``              ... and was rewritten by the transformer
``keystream.pool.hit``          a record's keystream came from the bounded
                                pool (:data:`repro.crypto.fastcipher.KEYSTREAM_POOL`)
``keystream.pool.miss``         ... had to be derived (and was admitted
                                if pool-sized)
``keystream.pool.evict``        admission pushed out the oldest entry
                                (FIFO, bounded by ``max_entries``)
==============================  =============================================

The ``keystream.pool.*`` counters are published in deltas by
``KeystreamPool.publish_to`` — a relay folds them in once per
``receive_from_*`` call, however many records that call carried.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.events import (
    AlertReceived,
    ApplicationData,
    HandshakeComplete,
    SessionClosed,
)

__all__ = ["Counter", "Histogram", "Instruments", "ServerStats", "record_event"]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Streaming summary of an observed value (count/sum/min/max).

    Deliberately tiny — enough for latency and size distributions in a
    JSON report without keeping every sample.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class Instruments:
    """A named counter/histogram registry shared by many connections.

    Attach one to any object exposing an ``instruments`` attribute (all
    connections and the mcTLS middlebox); servers attach theirs to every
    per-connection protocol object they create.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.value += n

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.observe(value)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            snap: Dict[str, object] = {
                name: c.value for name, c in sorted(self._counters.items())
            }
            for name, h in sorted(self._histograms.items()):
                snap[name] = h.summary()
            return snap

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


def record_event(instruments: Instruments, event: object) -> None:
    """Account one emitted event.  Called from the stacks' single event
    seam (``_emit``) — and only when instrumentation is enabled, so the
    isinstance dispatch below is never on the disabled fast path."""
    if isinstance(event, ApplicationData):
        instruments.inc("records.in")
        instruments.inc(f"context.{event.context_id}.bytes_in", len(event.data))
        if getattr(event, "legally_modified", False):
            instruments.inc("records.legally_modified")
    elif isinstance(event, HandshakeComplete):
        instruments.inc("handshake.complete")
        if event.resumed:
            instruments.inc("handshake.resumed")
    elif isinstance(event, AlertReceived):
        instruments.inc("alerts.in")
    elif isinstance(event, SessionClosed):
        instruments.inc("session.closed")


@dataclass
class ServerStats:
    """Counters a serving deployment actually graphs.

    The ``repro.aio`` servers mutate the fields directly, on their
    event-loop thread.  ``instruments`` optionally carries the
    protocol-level registry the server hands to its per-connection
    protocol objects; :meth:`snapshot` folds it in.
    """

    accepted: int = 0
    active: int = 0
    handshakes_ok: int = 0
    handshakes_failed: int = 0
    resumed: int = 0
    timeouts: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    instruments: Optional[Instruments] = None

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {
            "accepted": self.accepted,
            "active": self.active,
            "handshakes_ok": self.handshakes_ok,
            "handshakes_failed": self.handshakes_failed,
            "resumed": self.resumed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }
        if self.instruments is not None:
            snap["instruments"] = self.instruments.snapshot()
        return snap
