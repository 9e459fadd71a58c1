"""The multi-process sharded runtime: startup failure, crash isolation,
graceful drain, stats aggregation, and cross-worker stateless resumption.

Everything here runs real forked workers accepting on one loopback port,
driven by ``repro.aio`` TLS clients from the parent.  Waits are
condition-based with deadlines (never bare sleeps), and ports are always
ephemeral (bind to port 0).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.aio import connect
from repro.experiments.serving import run_chain_load
from repro.mp import ClusterEndpointServer, aggregate_snapshots
from repro.tls import TicketKeyManager, TLSClient, TLSServer

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded runtime requires the fork start method",
)

LOOPBACK = "127.0.0.1"
ADDITIVE_KEYS = (
    "accepted",
    "handshakes_ok",
    "handshakes_failed",
    "resumed",
    "errors",
    "timeouts",
    "bytes_in",
    "bytes_out",
)


@pytest.fixture(scope="module")
def bed() -> TestBed:
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


class _Store(dict):
    def put(self, key, value):
        self[key] = value


async def _echo(conn):
    while True:
        event = await conn.recv_app_data()
        await conn.send(event.data, context_id=event.context_id)


def _cluster(bed, manager=None, workers=2, **kwargs):
    def factory(session_cache=None):
        return TLSServer(
            bed.server_tls_config(),
            session_cache=session_cache,
            ticket_manager=manager,
        )

    return ClusterEndpointServer(
        (LOOPBACK, 0), factory, _echo, workers=workers, **kwargs
    ).start()


def _one_session(bed, port, store=None, payload=b"ping"):
    """One full client session against the cluster; returns resumed."""
    client = TLSClient(bed.client_tls_config(), ticket_store=store)

    async def session():
        sess = await connect((LOOPBACK, port), client)
        try:
            await sess.handshake()
            await sess.send(payload)
            assert (await sess.recv_app_data()).data == payload
        finally:
            await sess.close()

    asyncio.run(session())
    return client.resumed


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_start_reports_distinct_workers(bed):
    cluster = _cluster(bed, workers=2)
    try:
        pids = cluster.worker_pids
        assert len(pids) == 2 and len(set(pids)) == 2
        assert all(pid != os.getpid() for pid in pids)
        assert cluster.alive_workers() == pids
    finally:
        cluster.stop()
    assert cluster.alive_workers() == []


def test_aggregate_equals_per_worker_sums(bed):
    cluster = _cluster(bed, workers=2)
    try:
        for _ in range(8):
            _one_session(bed, cluster.port)
    finally:
        final = cluster.stop()
    assert final["accepted"] == 8
    assert final["handshakes_ok"] == 8
    per_worker = final["workers"]
    assert len(per_worker) == 2
    for key in ADDITIVE_KEYS:
        assert final[key] == sum(w.get(key, 0) for w in per_worker), key
    # The pure function agrees with what stop() reported.
    recomputed = aggregate_snapshots(per_worker)
    for key in ADDITIVE_KEYS:
        assert recomputed.get(key, 0) == final[key]


def test_worker_crash_is_isolated(bed):
    """SIGKILL one worker (it may hold half-open connections); the
    survivor keeps serving every subsequent connection and shutdown
    still reports coherent stats."""
    cluster = _cluster(bed, workers=2)
    try:
        victim = cluster.worker_pids[0]
        # Leave a connection mid-handshake pointed at the pool so the
        # kill lands on a worker that may be parsing a partial hello.
        probe = socket.create_connection((LOOPBACK, cluster.port))
        probe.sendall(b"\x16\x03\x03\x00\x40")  # record header, no body
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(lambda: cluster.alive_workers() != cluster.worker_pids)
        assert len(cluster.alive_workers()) == 1
        probe.close()
        for _ in range(6):
            _one_session(bed, cluster.port, payload=b"survivor")
        snap = cluster.snapshot()
        assert snap["alive_workers"] == 1
        assert snap["handshakes_ok"] >= 6
    finally:
        final = cluster.stop()
    assert final["alive_workers"] == 0


def test_sigterm_drains_in_flight_sessions(bed):
    """SIGTERM closes the listener but lets the in-flight session finish
    its echo before the worker exits — the rolling-restart contract."""
    cluster = _cluster(bed, workers=1)
    stopped_cleanly = False
    try:
        [pid] = cluster.worker_pids
        client = TLSClient(bed.client_tls_config())

        # Listener must close: new connections get refused (or accepted
        # by a dying backlog and immediately reset).
        def refused():
            try:
                with socket.create_connection((LOOPBACK, cluster.port), timeout=0.2):
                    return False
            except OSError:
                return True

        async def session():
            sess = await connect((LOOPBACK, cluster.port), client)
            await sess.handshake()

            os.kill(pid, signal.SIGTERM)
            # Blocking poll: the worker is another process, and this
            # loop's only session is idle meanwhile.
            assert _wait_until(refused)

            # ...but the established session still round-trips.
            await sess.send(b"drain-me")
            assert (await sess.recv_app_data()).data == b"drain-me"
            await sess.close()

        asyncio.run(session())

        proc = next(rec.process for rec in cluster._records if rec.pid == pid)
        proc.join(timeout=10.0)
        assert not proc.is_alive()
        stopped_cleanly = True
    finally:
        final = cluster.stop()
    assert stopped_cleanly
    assert final["handshakes_ok"] == 1
    assert final["errors"] == 0


def test_ticket_resumption_crosses_worker_boundary(bed):
    """A ticket sealed by one worker resumes at the *other*: seed one
    full handshake, then reconnect until a worker that isn't the seeder
    reports a resumed session.  Fork-inherited keys are the only shared
    state — there is no cross-process session cache."""
    manager = TicketKeyManager()
    cluster = _cluster(bed, manager=manager, workers=2)
    store = _Store()
    try:
        assert _one_session(bed, cluster.port, store=store) is False
        assert store, "seeding handshake must deliver a ticket"
        seeder = next(
            w["pid"]
            for w in cluster.snapshot()["workers"]
            if w.get("accepted", 0) > 0
        )

        def other_worker_resumed():
            resumed = _one_session(bed, cluster.port, store=store)
            assert resumed, "every follow-up must resume via the ticket"
            return any(
                w["pid"] != seeder and w.get("resumed", 0) > 0
                for w in cluster.snapshot()["workers"]
            )

        # Kernel hashing spreads reconnects across workers; 40 attempts
        # make a same-worker-every-time streak a ~2^-40 event.
        crossed = False
        for _ in range(40):
            if other_worker_resumed():
                crossed = True
                break
        assert crossed, "ticket never resumed on a non-seeding worker"
    finally:
        cluster.stop()


def test_worker_failing_before_ready_names_itself_and_its_cause(bed):
    """A worker whose session cache cannot be built never reports
    ready: ``start()`` raises a ``RuntimeError`` naming the worker and
    the exception it died of, and no worker outlives the failed start."""

    def broken_cache():
        raise ValueError("no session cache here")

    cluster = ClusterEndpointServer(
        (LOOPBACK, 0),
        lambda session_cache=None: TLSServer(bed.server_tls_config()),
        _echo,
        workers=2,
        session_cache_factory=broken_cache,
    )
    with pytest.raises(
        RuntimeError, match=r"worker 0 failed: ValueError: no session cache here"
    ):
        cluster.start()
    assert len(cluster.worker_pids) == 2
    assert cluster.alive_workers() == []


def test_rolling_stop_returns_final_stats_once(bed):
    cluster = _cluster(bed, workers=2)
    _one_session(bed, cluster.port)
    first = cluster.stop()
    assert first["accepted"] == 1
    # Idempotent: a second stop reports the same final ledger.
    second = cluster.stop()
    assert second["accepted"] == 1
    assert cluster.alive_workers() == []


def test_sharded_chain_serves_through_a_relay(bed):
    """The whole sharded path at once: forked client processes dial an
    ``AsyncRelayServer`` on the parent's event loop, which forwards to a
    2-worker cluster.  Each client process runs its 4 sessions one at a
    time, so its second resumption candidate finds the ticket its first
    one was given — through the middlebox, on whichever worker."""
    report = asyncio.run(
        run_chain_load(
            bed,
            Mode.MCTLS,
            n_middleboxes=1,
            workers=2,
            connections=8,
            concurrency=2,
            processes=2,
            resume_ratio=0.5,
            ticket_ratio=1.0,
        )
    )
    load = report["load"]
    assert load["runtime"] == "mp"
    assert (load["completed"], load["failed"]) == (8, 0)
    assert load["resumed"] == 2
    [relay] = report["relays"]
    assert relay["accepted"] == 8 and relay["errors"] == 0
    server = report["server"]
    assert server["worker_count"] == 2 and server["alive_workers"] == 0
    assert server["handshakes_ok"] == 8 and server["resumed"] == 2
