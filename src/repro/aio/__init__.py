"""``repro.aio`` — the socket runtime.

The one place a socket is dialed or accepted: ``connect`` / ``attach``
/ ``AsyncConnection`` and ``AsyncEndpointServer`` / ``AsyncRelayServer``
as asyncio protocol objects driven by transport callbacks (one shared
receive buffer per loop, one deadline timer per wait or session), plus
the one load generator, ``run_load``.  Everything runs in one process on
one event loop.  Protocol logic stays in the sans-I/O cores; this
package is scheduling, backpressure, timeouts, stats and shutdown.
"""

from repro.aio.connection import AsyncConnection, SessionEnded, attach, connect
from repro.aio.loadgen import LoadResult, percentile, run_load
from repro.aio.server import AsyncEndpointServer, AsyncRelayServer, ServerStats

__all__ = [
    "AsyncConnection",
    "AsyncEndpointServer",
    "AsyncRelayServer",
    "LoadResult",
    "ServerStats",
    "SessionEnded",
    "attach",
    "connect",
    "percentile",
    "run_load",
]
