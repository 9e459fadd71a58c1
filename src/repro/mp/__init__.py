"""Forked processes: the one fork helper and the sharded endpoint server.

:mod:`repro.mp.fork` is the only place a process is forked: N children
each run ``main(index, pipe)`` and answer over one duplex pipe with
``("ready", pid)``, a result or ``("error", "Type: message")``.  The
load generator's client shards (``repro.aio.run_load(processes=k)``) and
:class:`ClusterEndpointServer`'s workers both start through it.  The
cluster puts N workers behind one ``SO_REUSEPORT`` port, each running
the asyncio endpoint server over the unchanged sans-I/O protocol seam;
fork-inherited ticket keys make cross-worker session resumption
stateless (see :mod:`repro.mp.cluster`).
"""

from repro.mp.cluster import ClusterEndpointServer, aggregate_snapshots
from repro.mp.fork import Child, expect, fork, join

__all__ = [
    "Child",
    "ClusterEndpointServer",
    "aggregate_snapshots",
    "expect",
    "fork",
    "join",
]
