"""``repro.aio`` — the socket runtime.

The one place a socket is dialed or accepted: ``connect`` / ``attach``
/ ``AsyncConnection`` and ``AsyncEndpointServer`` / ``AsyncRelayServer``
as asyncio protocol objects driven by transport callbacks (one shared
receive buffer per loop, one deadline timer per wait or session), plus
a load generator (``repro.mp`` shards the endpoint server across
processes).  Protocol logic stays in the sans-I/O cores; this package
is scheduling, backpressure, timeouts, stats and shutdown.
"""

from repro.aio.connection import AsyncConnection, SessionEnded, attach, connect
from repro.aio.loadgen import (
    LoadResult,
    PeriodicResult,
    merge_load_results,
    percentile,
    run_load,
    run_load_mp,
    run_periodic,
)
from repro.aio.server import AsyncEndpointServer, AsyncRelayServer, ServerStats

__all__ = [
    "AsyncConnection",
    "AsyncEndpointServer",
    "AsyncRelayServer",
    "LoadResult",
    "PeriodicResult",
    "ServerStats",
    "SessionEnded",
    "attach",
    "connect",
    "merge_load_results",
    "percentile",
    "run_load",
    "run_load_mp",
    "run_periodic",
]
