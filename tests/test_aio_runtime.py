"""The asyncio serving runtime: concurrency, timeouts, limits, shutdown,
fault isolation, and stats accounting over real loopback sockets."""

import asyncio
import socket

import pytest

from repro.aio import (
    AsyncEndpointServer,
    AsyncRelayServer,
    SessionEnded,
    connect,
    percentile,
    run_load,
)
from repro.crypto.dh import GROUP_TEST_512
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.tls import TLSClient, TLSServer
from repro.tls.connection import TLSConfig
from repro.tls.sessioncache import ClientSessionStore, SessionCache

LOOPBACK = "127.0.0.1"


@pytest.fixture()
def topology(mbox_identity):
    return SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=[
            ContextDefinition(1, "request", {1: Permission.READ}),
            ContextDefinition(2, "response", {1: Permission.READ}),
        ],
    )


async def echo_handler(conn):
    while True:
        event = await conn.recv_app_data()
        await conn.send(event.data, context_id=event.context_id)


def run(coro):
    """Run a coroutine and assert no asyncio task outlives it.

    The leak check runs only when the scenario itself succeeded, so a
    real test failure is never masked by the tasks it left behind.
    """

    async def wrapped():
        result = await coro
        leaked = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        assert not leaked, f"leaked asyncio tasks: {leaked}"
        return result

    return asyncio.run(wrapped())


class TestAsyncEndpoint:
    def test_tls_echo_and_stats(self, ca, server_identity, client_config):
        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
            )
            await server.start()
            conn = await connect((LOOPBACK, server.port), TLSClient(client_config))
            await conn.handshake()
            await conn.send(b"ping")
            reply = await conn.recv_app_data()
            assert reply.data == b"ping"
            await conn.close()
            await server.stop()
            snap = server.snapshot()
            assert snap["accepted"] == 1
            assert snap["handshakes_ok"] == 1
            assert snap["handshakes_failed"] == 0
            assert snap["active"] == 0
            # The server received at least the client's handshake flight
            # plus one application record, and sent its own.
            assert snap["bytes_in"] > 0 and snap["bytes_out"] > 0
            assert conn.bytes_in == snap["bytes_out"]
            assert conn.bytes_out == snap["bytes_in"]

        run(scenario())

    def test_concurrent_clients_stats_match_traffic(
        self, ca, server_identity, client_config
    ):
        N = 8

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
            )
            await server.start()

            async def one(i):
                conn = await connect(
                    (LOOPBACK, server.port), TLSClient(client_config)
                )
                await conn.handshake()
                await conn.send(f"client-{i}".encode())
                reply = await conn.recv_app_data()
                await conn.close()
                return reply.data

            replies = await asyncio.gather(*(one(i) for i in range(N)))
            await server.stop()
            assert sorted(replies) == sorted(
                f"client-{i}".encode() for i in range(N)
            )
            snap = server.snapshot()
            assert snap["accepted"] == N
            assert snap["handshakes_ok"] == N
            assert snap["active"] == 0

        run(scenario())

    def test_max_connections_backpressure(self, ca, server_identity, client_config):
        """With a 1-connection limit, a second client queues in the
        backlog until the first session finishes — it is never refused,
        and the server never holds two sessions at once."""
        peak = []

        async def holding_handler(conn):
            event = await conn.recv_app_data()
            await asyncio.sleep(0.05)
            await conn.send(event.data, context_id=event.context_id)

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                holding_handler,
                max_connections=1,
            )
            await server.start()

            async def one(i):
                conn = await connect(
                    (LOOPBACK, server.port), TLSClient(client_config)
                )
                await conn.handshake()
                peak.append(server.stats.active)
                await conn.send(b"x")
                await conn.recv_app_data()
                await conn.close()

            await asyncio.gather(one(0), one(1), one(2))
            await server.stop()
            assert server.stats.accepted == 3
            assert max(peak) == 1

        run(scenario())

    def test_handshake_timeout_enforced(self, ca, server_identity):
        """A client that connects and never speaks is cut off by the
        handshake deadline and counted as a failed handshake."""

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
                handshake_timeout=0.2,
            )
            await server.start()
            reader, writer = await asyncio.open_connection(LOOPBACK, server.port)
            # Say nothing; the server must drop us (possibly after an
            # alert record — only the EOF matters here).
            await reader.read()
            writer.close()
            await writer.wait_closed()
            # stop() awaits every handler task, so after it returns the
            # stats ledger is final — no polling needed.
            await server.stop()
            assert server.stats.handshakes_failed == 1
            assert server.stats.handshakes_ok == 0

        run(scenario())

    def test_garbage_peer_does_not_poison_accept_loop(
        self, ca, server_identity, client_config
    ):
        """A peer streaming garbage (and one injecting a flipped
        handshake byte) fails alone; the next well-behaved client is
        served by the same listener."""

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
                handshake_timeout=1.0,
            )
            await server.start()

            # Garbage peer: raw junk bytes instead of a ClientHello.
            reader, writer = await asyncio.open_connection(LOOPBACK, server.port)
            writer.write(b"\x99" * 4096)
            await writer.drain()
            await reader.read()  # server gives up on us
            writer.close()
            await writer.wait_closed()

            # Fault-injected peer: a real ClientHello with one byte
            # flipped mid-flight — fails parse/verify, isolated.
            client = TLSClient(client_config)
            client.start_handshake()
            flight = bytearray(client.data_to_send())
            flight[len(flight) // 2] ^= 0x40
            reader, writer = await asyncio.open_connection(LOOPBACK, server.port)
            writer.write(bytes(flight))
            await writer.drain()
            await reader.read()
            writer.close()
            await writer.wait_closed()

            # The accept loop must still serve a clean client.
            conn = await connect((LOOPBACK, server.port), TLSClient(client_config))
            await conn.handshake()
            await conn.send(b"still alive")
            assert (await conn.recv_app_data()).data == b"still alive"
            await conn.close()
            await server.stop()
            assert server.stats.handshakes_ok == 1
            assert server.stats.handshakes_failed == 2

        run(scenario())

    def test_graceful_shutdown_finishes_inflight_sessions(
        self, ca, server_identity, client_config
    ):
        """stop(graceful=True) lets a mid-session client finish its
        exchange; stop(graceful=False) cancels a hung one."""

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
            )
            await server.start()
            conn = await connect((LOOPBACK, server.port), TLSClient(client_config))
            await conn.handshake()

            # Start the shutdown, then speak only once the server has
            # committed to stopping (its first act is setting the flag) —
            # event-sequenced, no timed sleeps to race against.
            stop_task = asyncio.create_task(server.stop(graceful=True))
            while not server._stopping:
                await asyncio.sleep(0)
            await conn.send(b"late but served")
            reply = await conn.recv_app_data()
            await conn.close()
            await stop_task
            assert reply.data == b"late but served"
            assert server.stats.handshakes_ok == 1
            assert server.stats.errors == 0

            # Forced shutdown: a second server with an idle client dies
            # immediately instead of waiting out the idle timeout.
            server2 = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
                idle_timeout=30.0,
            )
            await server2.start()
            conn2 = await connect((LOOPBACK, server2.port), TLSClient(client_config))
            await conn2.handshake()
            await asyncio.wait_for(server2.stop(graceful=False), timeout=5.0)
            await conn2.close()

        run(scenario())

    def test_session_cache_threaded_through_server(
        self, ca, server_identity, client_config
    ):
        """A cache handed to the server is shared by every
        per-connection protocol object; clients with a session store
        resume against it and the stats ledger shows the hit."""

        async def scenario():
            cache = SessionCache(capacity=8)
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda session_cache: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512),
                    session_cache=session_cache,
                ),
                echo_handler,
                session_cache=cache,
            )
            await server.start()
            store = ClientSessionStore(capacity=8)

            async def one_session():
                conn = await connect(
                    (LOOPBACK, server.port),
                    TLSClient(client_config, session_store=store),
                )
                await conn.handshake()
                resumed = conn.connection.resumed
                await conn.send(b"hi")
                await conn.recv_app_data()
                await conn.close()
                return resumed

            assert await one_session() is False  # full handshake, seeds cache
            assert await one_session() is True  # abbreviated handshake
            await server.stop()
            snap = server.snapshot()
            assert snap["resumed"] == 1
            assert snap["handshakes_ok"] == 2
            assert snap["session_cache"]["hits"] == 1
            assert len(cache) >= 1

        run(scenario())


class TestAsyncRelay:
    def test_mctls_through_async_relay(
        self, ca, server_identity, mbox_identity, topology, client_config
    ):
        observed = []

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: McTLSServer(
                    TLSConfig(
                        identity=server_identity,
                        trusted_roots=[ca.certificate],
                        dh_group=GROUP_TEST_512,
                    )
                ),
                echo_handler,
            )
            await server.start()
            relay = AsyncRelayServer(
                (LOOPBACK, 0),
                upstream_addr=(LOOPBACK, server.port),
                relay_factory=lambda: McTLSMiddlebox(
                    mbox_identity.name,
                    TLSConfig(
                        identity=mbox_identity,
                        trusted_roots=[ca.certificate],
                        dh_group=GROUP_TEST_512,
                    ),
                    observer=lambda d, ctx, data: observed.append((ctx, data)),
                ),
            )
            await relay.start()

            async def one(i):
                conn = await connect(
                    (LOOPBACK, relay.port),
                    McTLSClient(client_config, topology=topology),
                )
                await conn.handshake()
                await conn.send(f"c{i}".encode(), context_id=1)
                reply = await conn.recv_app_data()
                assert reply.context_id == 1
                await conn.close()
                return reply.data

            replies = await asyncio.gather(*(one(i) for i in range(4)))
            await relay.stop()
            await server.stop()
            assert sorted(replies) == sorted(f"c{i}".encode() for i in range(4))
            for i in range(4):
                assert (1, f"c{i}".encode()) in observed
            assert relay.stats.accepted == 4
            assert relay.stats.active == 0
            assert relay.stats.bytes_in > 0 and relay.stats.bytes_out > 0

        run(scenario())

    def test_concurrent_sessions_through_one_relay(
        self, ca, server_identity, mbox_identity, topology, client_config
    ):
        """One relay *instance* per accepted connection, and every
        concurrent session gets its own payload back, not a
        neighbour's (the request rides context 1, the reply context 2)."""
        made = []

        def make_relay():
            made.append(
                McTLSMiddlebox(
                    mbox_identity.name,
                    TLSConfig(
                        identity=mbox_identity,
                        trusted_roots=[ca.certificate],
                        dh_group=GROUP_TEST_512,
                    ),
                )
            )
            return made[-1]

        async def upper_handler(conn):
            event = await conn.recv_app_data()
            await conn.send(event.data.upper(), context_id=2)

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: McTLSServer(
                    TLSConfig(
                        identity=server_identity,
                        trusted_roots=[ca.certificate],
                        dh_group=GROUP_TEST_512,
                    )
                ),
                upper_handler,
            )
            await server.start()
            relay = AsyncRelayServer(
                (LOOPBACK, 0),
                upstream_addr=(LOOPBACK, server.port),
                relay_factory=make_relay,
            )
            await relay.start()

            async def one(tag):
                conn = await connect(
                    (LOOPBACK, relay.port),
                    McTLSClient(client_config, topology=topology),
                )
                await conn.handshake()
                await conn.send(tag.encode(), context_id=1)
                reply = await conn.recv_app_data()
                await conn.close()
                return reply.context_id, reply.data

            replies = await asyncio.gather(*(one(f"client-{i}") for i in range(3)))
            await relay.stop()
            await server.stop()
            assert replies == [(2, f"CLIENT-{i}".encode()) for i in range(3)]
            assert len(made) == 3  # the factory ran once per connection

        run(scenario())

    def test_faulty_client_does_not_poison_relay(
        self, ca, server_identity, mbox_identity, topology, client_config
    ):
        """Garbage through the relay kills that relay session (the
        middlebox raises on it) but the relay keeps accepting."""

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: McTLSServer(
                    TLSConfig(
                        identity=server_identity,
                        trusted_roots=[ca.certificate],
                        dh_group=GROUP_TEST_512,
                    )
                ),
                echo_handler,
            )
            await server.start()
            relay = AsyncRelayServer(
                (LOOPBACK, 0),
                upstream_addr=(LOOPBACK, server.port),
                relay_factory=lambda: McTLSMiddlebox(
                    mbox_identity.name,
                    TLSConfig(
                        identity=mbox_identity,
                        trusted_roots=[ca.certificate],
                        dh_group=GROUP_TEST_512,
                    ),
                ),
                idle_timeout=1.0,
            )
            await relay.start()

            reader, writer = await asyncio.open_connection(LOOPBACK, relay.port)
            writer.write(b"\xff" * 1024)  # not a TLS record stream
            await writer.drain()
            await reader.read()
            writer.close()
            await writer.wait_closed()

            conn = await connect(
                (LOOPBACK, relay.port),
                McTLSClient(client_config, topology=topology),
            )
            await conn.handshake()
            await conn.send(b"ok", context_id=1)
            assert (await conn.recv_app_data()).data == b"ok"
            await conn.close()
            await relay.stop()
            await server.stop()
            assert relay.stats.errors >= 1
            assert relay.stats.accepted == 2

        run(scenario())


class TestLoadGenerator:
    def test_closed_loop_load_with_resumption(self, ca, server_identity, client_config):
        async def scenario():
            cache = SessionCache(capacity=32)
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda session_cache: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512),
                    session_cache=session_cache,
                ),
                echo_handler,
                session_cache=cache,
            )
            await server.start()
            store = ClientSessionStore(capacity=32)

            def factory(resume=False):
                return TLSClient(
                    client_config, session_store=store if resume else None
                )

            # Seed the store, then drive a mixed full/resumed run.
            seed = await run_load(
                (LOOPBACK, server.port), factory, connections=1,
                concurrency=1, resume_ratio=1.0,
            )
            assert seed.completed == 1
            result = await run_load(
                (LOOPBACK, server.port),
                factory,
                connections=12,
                concurrency=4,
                resume_ratio=0.5,
            )
            await server.stop()
            assert result.completed == 12
            assert result.failed == 0
            assert result.resumed == 6  # every flagged session resumed
            assert server.stats.resumed == 6  # the seed run was full
            assert len(result.handshake_latencies) == 12
            pct = result.latency_percentiles()
            assert pct["p50"] <= pct["p95"] <= pct["p99"]
            assert result.conn_per_s > 0

        run(scenario())

    def test_open_loop_rate_paces_launches(self, ca, server_identity, client_config):
        """At a 25/s offered rate, 5 sessions must take >= 4/25 s."""

        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
            )
            await server.start()
            result = await run_load(
                (LOOPBACK, server.port),
                lambda resume: TLSClient(client_config),
                connections=5,
                concurrency=5,
                rate=25.0,
            )
            await server.stop()
            assert result.completed == 5
            assert result.duration_s >= 4 / 25.0

        run(scenario())

    def test_percentile_nearest_rank_on_small_samples(self):
        """n < 100 uses nearest-rank: a reported percentile is an actual
        sample, so a sparse tail can't be interpolated away — the p99 of
        25 latencies is the worst latency observed, not a blend of the
        two largest (the old bug under-reported exactly the tail the
        industrial scenario gates on)."""
        values = [float(i) for i in range(1, 26)]  # n=25
        assert percentile(values, 99) == 25.0  # the max sample, not 24.76
        assert percentile(values, 95) == 24.0  # ceil(23.75) -> rank 24
        assert percentile(values, 50) == 13.0  # ceil(12.5) -> rank 13
        assert percentile(values, 0) == 1.0  # rank clamps to 1
        assert percentile(values, 100) == 25.0
        assert percentile([7.0], 99) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_percentile_interpolates_on_large_samples(self):
        values = [float(i) for i in range(100)]  # n=100: interpolation path
        assert percentile(values, 50) == pytest.approx(49.5)
        assert percentile(values, 99) == pytest.approx(98.01)
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 99.0

    def test_percentile_seeded_regression_pins_both_paths(self):
        import math
        import random

        rng = random.Random(2015)
        small = sorted(rng.random() for _ in range(25))
        big = sorted(rng.random() for _ in range(400))
        for p in (50, 95, 99):
            # Nearest-rank: always an actual sample, never below it.
            rank = min(max(math.ceil(p / 100.0 * len(small)), 1), len(small))
            assert percentile(small, p) == small[rank - 1]
            assert percentile(small, p) in small
        assert percentile(small, 99) == small[-1]
        # Interpolation: linear between the two bracketing samples.
        rank = 0.99 * (len(big) - 1)
        low, frac = int(rank), 0.99 * (len(big) - 1) - int(rank)
        expected = big[low] * (1 - frac) + big[low + 1] * frac
        assert percentile(big, 99) == pytest.approx(expected)
        assert big[0] <= percentile(big, 50) <= big[-1]
        assert percentile([], 99) != percentile([], 99)  # NaN on empty


class TestServingChains:
    """End-to-end through repro.experiments.serving (what the bench runs)."""

    @pytest.mark.parametrize("mode_name,middleboxes", [
        ("mcTLS", 1),
        ("SplitTLS", 1),
        ("E2E-TLS", 2),
    ])
    def test_modes_over_loopback(self, mode_name, middleboxes):
        from repro.experiments.harness import Mode, TestBed
        from repro.experiments.serving import run_async_load

        bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512)
        report = run(
            run_async_load(
                bed,
                Mode(mode_name),
                middleboxes,
                connections=6,
                concurrency=3,
            )
        )
        assert report["load"]["completed"] == 6
        assert report["load"]["failed"] == 0
        assert report["server"]["handshakes_ok"] == 6

    @pytest.mark.parametrize("framing", ["mctls-default", "mctls-compact"])
    def test_industrial_periodic_load(self, framing):
        """The industrial scenario over a real loopback chain: a periodic
        small-record session through one middlebox, under both framings."""
        from repro.experiments.harness import Mode, TestBed
        from repro.experiments.serving import run_industrial_load
        from repro.mctls.contexts import FieldDef, FieldSchema

        schemas = ()
        if framing == "mctls-compact":
            schemas = (
                FieldSchema(
                    context_id=1,
                    fields=(FieldDef("hdr", 0, 8), FieldDef("body", 8, 64)),
                    write_grants={"hdr": (1,)},
                ),
            )
        bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512)
        report = run(
            run_industrial_load(
                bed,
                Mode("mcTLS"),
                n_middleboxes=1,
                records=10,
                record_size=32,
                period_s=0.002,
                framing=framing,
                field_schemas=schemas,
            )
        )
        assert report["framing"] == framing
        assert report["load"]["completed"] == 10
        assert report["load"]["failed"] == 0
        lat = report["load"]["record_latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
