"""The discrete-event engine.

A plain priority-queue scheduler.  Ties are broken by insertion order, so
runs are fully deterministic.  Time is in seconds (float).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional


class Event:
    """A scheduled callback; cancellable."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulator:
    """Event loop: ``schedule`` callbacks, then ``run``."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Event] = []
        self._seq = 0
        self._events_processed = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        event = Event(self.now + delay, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events until the queue empties (or ``until`` is reached).

        Returns the simulation time afterwards.
        """
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self.now = until
                return self.now
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._events_processed += 1
            if self._events_processed > max_events:
                raise RuntimeError("simulation exceeded event budget (livelock?)")
            self.now = event.time
            event.fn()
        return self.now
