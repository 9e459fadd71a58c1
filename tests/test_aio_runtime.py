"""The asyncio serving runtime: concurrency, timeouts, limits, shutdown,
fault isolation, and stats accounting over real loopback sockets."""

import asyncio
import gc
import hashlib
import socket
import warnings

import pytest

import repro.aio.server as server_module
from repro.aio import (
    AsyncEndpointServer,
    AsyncRelayServer,
    SessionEnded,
    attach,
    connect,
    percentile,
    run_load,
)
from repro.aio.connection import RECV_SIZE
from repro.baselines.noencrypt import PlainConnection
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.experiments.serving import (
    client_connection_factory,
    relay_factory,
    server_connection_factory,
    start_chain,
)
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
from repro.tls.record import ALERT, MAX_PLAINTEXT
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
        from repro.experiments.serving import run_chain_load

        bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512)
        report = run(
            run_chain_load(
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
        from repro.experiments.serving import run_chain_load
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
            run_chain_load(
                bed,
                Mode("mcTLS"),
                n_middleboxes=1,
                connections=1,
                concurrency=1,
                records=10,
                payload=bytes(32),
                period_s=0.002,
                framing=framing,
                field_schemas=schemas,
            )
        )
        assert report["framing"] == framing
        assert report["load"]["records"] == 10
        assert report["load"]["failed"] == 0
        lat = report["load"]["record_latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]


# -- the protocol-callback runtime: failure flush, deadlines, flow control ------


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


async def raw_handshake(client, port):
    """Drive the sans-I/O ``client`` over plain streams, as a peer that
    is not this runtime would; returns ``(reader, writer)`` once the
    handshake is complete."""
    reader, writer = await asyncio.open_connection(LOOPBACK, port)
    client.start_handshake()
    while not client.handshake_complete:
        writer.write(client.data_to_send())
        await writer.drain()
        client.receive_data(await asyncio.wait_for(reader.read(65536), 10.0))
    writer.write(client.data_to_send())
    return reader, writer


class _CapturedSessions:
    """Lets a test look at the live relay sessions' transports."""

    def __init__(self, monkeypatch):
        sessions = self.sessions = []

        class Capturing(server_module._RelaySession):
            def __init__(self, *args):
                super().__init__(*args)
                sessions.append(self)

        monkeypatch.setattr(server_module, "_RelaySession", Capturing)


def _count_yields(monkeypatch):
    """Counts the socket runtime's scheduling points (``asyncio.sleep(0)``)."""
    calls = []
    real_sleep = asyncio.sleep

    async def counting(delay, *args, **kwargs):
        if delay == 0:
            calls.append(delay)
        return await real_sleep(delay, *args, **kwargs)

    monkeypatch.setattr(asyncio, "sleep", counting)
    return calls


async def stream_forever(conn):
    await conn.recv_app_data()
    while True:
        await conn.send(bytes(65536))


async def stalled_reader(bed, port):
    """Asks ``port`` for a stream, takes one record, then stops reading."""
    conn = await connect((LOOPBACK, port), client_connection_factory(bed, Mode.NO_ENCRYPT)())
    await conn.handshake()
    await conn.send(b"go")
    await conn.recv_app_data()
    return conn


async def until(predicate, timeout):
    """Poll ``predicate`` every 10 ms; ``asyncio.TimeoutError`` after ``timeout``."""

    async def poll():
        while not predicate():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


class TestRelayFailureFlush:
    """A relay core that raises still gets what it holds onto a socket."""

    def test_split_tls_relay_alerts_the_peer_it_fails(self, bed):
        async def scenario():
            chain = await start_chain(bed, Mode.SPLIT_TLS, 1)
            client = client_connection_factory(bed, Mode.SPLIT_TLS)()
            reader, writer = await raw_handshake(client, chain.port)
            client.send_application_data(b"to be corrupted")
            record = bytearray(client.data_to_send())
            record[-1] ^= 0x01  # breaks the record MAC at the proxy
            writer.write(bytes(record))
            answer = await asyncio.wait_for(reader.read(-1), 10.0)
            writer.close()
            await writer.wait_closed()
            await chain.stop()
            # The proxy's client-side TLS queued a fatal alert while it
            # raised; the session ended with that record on the wire.
            assert answer and answer[0] == ALERT
            events = client.receive_data(answer)
            assert client.closed
            assert any(getattr(e, "level", None) == 2 for e in events)
            assert chain.relays[0].stats.errors == 1

        run(scenario())

    def test_mctls_relay_forwards_what_validated_before_the_failure(
        self, bed
    ):
        seen = []

        async def recording_handler(conn):
            while True:
                seen.append((await conn.recv_app_data()).data)

        async def scenario():
            chain = await start_chain(
                bed, Mode.MCTLS, 1, handler=recording_handler
            )
            # A READ middlebox verifies the readers' MAC, the record's last.
            topology = bed.topology(1, n_contexts=1, permission=Permission.READ)
            client = client_connection_factory(bed, Mode.MCTLS, topology=topology)()
            reader, writer = await raw_handshake(client, chain.port)
            client.send_application_data(b"good", context_id=1)
            good = client.data_to_send()
            client.send_application_data(b"tampered", context_id=1)
            bad = bytearray(client.data_to_send())
            bad[-1] ^= 0x01
            writer.write(good + bytes(bad))  # one write, one relay read
            await asyncio.wait_for(reader.read(-1), 10.0)  # relay hangs up
            writer.close()
            await writer.wait_closed()
            await chain.stop()
            assert seen == [b"good"]
            assert chain.relays[0].stats.errors == 1

        run(scenario())


class TestDeadlines:
    """One timer per phase: activity postpones the idle deadline, never
    the handshake deadline."""

    IDLE = 0.5

    def test_slow_drip_is_cut_at_the_handshake_deadline(
        self, ca, server_identity, client_config
    ):
        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0),
                lambda: TLSServer(
                    TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
                ),
                echo_handler,
                handshake_timeout=0.3,
            )
            await server.start()
            client = TLSClient(client_config)
            client.start_handshake()
            hello = client.data_to_send()
            assert len(hello) > 40  # dripping it all would take > 2 s
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(LOOPBACK, server.port)
            start = loop.time()

            async def drip():
                for i in range(len(hello)):
                    writer.write(hello[i : i + 1])
                    await asyncio.sleep(0.05)

            dripper = asyncio.create_task(drip())
            try:
                try:
                    await asyncio.wait_for(reader.read(-1), 5.0)  # server hangs up
                except ConnectionResetError:
                    # Closed with drip bytes still unread: Linux sends an RST.
                    pass
                elapsed = loop.time() - start
            finally:
                dripper.cancel()
                await asyncio.gather(dripper, return_exceptions=True)
                writer.close()
                await asyncio.gather(writer.wait_closed(), return_exceptions=True)
                await server.stop()
            # Each byte arrived well inside 0.3 s of the last; a per-read
            # deadline would have let the drip run its full 2 s and more.
            assert 0.25 <= elapsed < 1.5
            assert server.stats.handshakes_failed == 1
            assert server.stats.handshakes_ok == 0

        run(scenario())

    def test_relay_idle_timeout_is_postponed_by_activity_then_fires(self, bed):
        async def scenario():
            server = AsyncEndpointServer(
                (LOOPBACK, 0), server_connection_factory(bed, Mode.MCTLS), echo_handler
            )
            await server.start()
            relay = AsyncRelayServer(
                (LOOPBACK, 0),
                upstream_addr=(LOOPBACK, server.port),
                relay_factory=relay_factory(bed, Mode.MCTLS, 0, 1),
                idle_timeout=0.3,
            )
            await relay.start()
            client = client_connection_factory(
                bed, Mode.MCTLS, topology=bed.topology(1, n_contexts=1)
            )()
            conn = await connect((LOOPBACK, relay.port), client)
            await conn.handshake()
            loop = asyncio.get_running_loop()
            start = loop.time()
            for i in range(5):  # 0.6 s of traffic: twice the idle timeout
                await conn.send(b"ping", context_id=1)
                assert (await conn.recv_app_data()).data == b"ping"
                await asyncio.sleep(0.12)
            assert loop.time() - start > 0.3
            assert relay.stats.timeouts == 0
            with pytest.raises(ConnectionError):  # idle: the relay hangs up
                await conn.recv_app_data(timeout=5.0)
            idle_for = loop.time() - start
            await conn.close()
            await relay.stop()
            await server.stop()
            assert idle_for < 0.6 + 0.3 + 1.0
            assert relay.stats.timeouts == 1
            assert relay.stats.errors == 0

        run(scenario())

    def test_peer_that_stops_reading_frees_the_endpoint_slot(self, bed):
        """A write-paused ``send`` waits under the idle deadline, and the
        close after it aborts what the stalled peer never took."""
        served = []

        async def handler(conn):
            served.append(conn)
            await stream_forever(conn)

        async def scenario():
            chain = await start_chain(
                bed, Mode.NO_ENCRYPT, 0, idle_timeout=self.IDLE, handler=handler
            )
            server = chain.endpoint
            conn = await stalled_reader(bed, chain.port)
            try:
                await until(lambda: server.stats.active == 0, 3 * self.IDLE)
                assert served[0].transport.get_extra_info("socket").fileno() == -1
            finally:
                served[0].transport.abort()  # a no-op unless the slot was held
                conn.transport.abort()
                await chain.stop()
            assert server.stats.timeouts == 1

        run(scenario())

    def test_peer_that_stops_reading_frees_the_relay_slot(self, bed, monkeypatch):
        """The relay's idle timer ends the session, and the close aborts
        the socket whose peer stopped reading."""
        captured = _CapturedSessions(monkeypatch)

        async def scenario():
            chain = await start_chain(
                bed, Mode.NO_ENCRYPT, 1, idle_timeout=self.IDLE, handler=stream_forever
            )
            relay = chain.relays[0]
            conn = await stalled_reader(bed, chain.port)
            (session,) = captured.sessions
            try:
                await until(lambda: relay.stats.active == 0, 3 * self.IDLE)
                for side in (session.up, session.down):
                    assert side.transport.get_extra_info("socket").fileno() == -1
            finally:
                session.abort()  # a no-op unless the slot was held
                conn.transport.abort()
                await chain.stop()
            assert relay.stats.timeouts == 1

        run(scenario())

    def test_byte_bound_counts_what_arrived_with_nobody_waiting(self):
        class Sink(PlainConnection):
            def receive_data(self, data):
                return []  # consumes anything, never progresses

        async def scenario():
            left, right = socket.socketpair()
            left.setblocking(False)
            conn = await attach(right, Sink())
            try:
                junk = b"\xaa" * (300 * 1024)
                await asyncio.get_running_loop().sock_sendall(left, junk)
                while conn.bytes_in < len(junk):  # no pump is running
                    await asyncio.sleep(0.01)
                with pytest.raises(ConnectionError, match="without progress"):
                    await conn.pump_until(
                        lambda: False, timeout=5.0, max_bytes=256 * 1024
                    )
            finally:
                conn.transport.close()
                left.close()

        run(scenario())


class TestFlowControl:
    """Back-pressure, half-close and forced shutdown through both the
    relay's and the endpoint's protocol objects."""

    CHUNK = 65536

    def test_stalled_reader_bounds_every_write_buffer_and_resumes(
        self, bed, monkeypatch
    ):
        captured = _CapturedSessions(monkeypatch)
        chunks = 768  # 48 MiB: more than loopback's socket buffers hold
        served = []

        async def stream_handler(conn):
            served.append(conn)
            await conn.recv_app_data()
            for i in range(chunks):
                await conn.send(bytes([i % 251]) * self.CHUNK)
                conn.sent = i + 1

        async def scenario():
            chain = await start_chain(
                bed, Mode.NO_ENCRYPT, 1, handler=stream_handler
            )
            relay = chain.relays[0]
            client = client_connection_factory(bed, Mode.NO_ENCRYPT)()
            conn = await connect((LOOPBACK, chain.port), client)
            await conn.handshake()
            await conn.send(b"go")
            first = await conn.recv_app_data()
            # Stop reading; wait until nothing moves anywhere any more.
            last, still = -1, 0
            while still < 5:
                await asyncio.sleep(0.05)
                still = still + 1 if relay.stats.bytes_in == last else 0
                last = relay.stats.bytes_in
            (session,), (server_conn,) = captured.sessions, served
            high = session.down.transport.get_write_buffer_limits()[1]
            assert server_conn.sent < chunks  # the handler is held in send()
            assert server_conn.transport.get_write_buffer_size() <= high + self.CHUNK
            assert session.down.transport.get_write_buffer_size() <= high + RECV_SIZE
            assert not session.up.transport.is_reading()  # paused by `down`
            assert not conn.transport.is_reading()  # the client's own bound
            stalled_at = relay.stats.bytes_in
            # Resume: everything arrives, in order, and the relay read on.
            got, digest, want = len(first.data), hashlib.sha256(first.data), hashlib.sha256()
            for i in range(chunks):
                want.update(bytes([i % 251]) * self.CHUNK)
            while got < chunks * self.CHUNK:
                data = (await conn.recv_app_data()).data
                digest.update(data)
                got += len(data)
            assert digest.digest() == want.digest()
            assert relay.stats.bytes_in > stalled_at
            assert session.up.transport.is_reading()
            await conn.close()
            await chain.stop()
            assert relay.stats.errors == 0 and relay.stats.timeouts == 0

        run(scenario())

    def test_bulk_response_reaches_the_client_before_it_is_all_sealed(
        self, bed, monkeypatch
    ):
        """``send`` yields once per ``RECV_SIZE`` written since the
        connection last waited, so the relay and the client take each
        receive buffer while the server still seals the rest."""
        yields = _count_yields(monkeypatch)
        records = 64
        served = []

        async def stream_handler(conn):
            served.append(conn)
            conn.sent = 0
            await conn.recv_app_data()
            for i in range(records):
                await conn.send(bytes([i]) * MAX_PLAINTEXT, context_id=1)
                conn.sent += 1

        async def scenario():
            chain = await start_chain(bed, Mode.MCTLS, 1, handler=stream_handler)
            client = client_connection_factory(
                bed, Mode.MCTLS, topology=bed.topology(1, n_contexts=1)
            )()
            conn = await connect((LOOPBACK, chain.port), client)
            await conn.handshake()
            await conn.send(b"go", context_id=1)
            got = [(await conn.recv_app_data()).data]
            sent_at_first_byte = served[0].sent
            while sum(map(len, got)) < records * MAX_PLAINTEXT:
                got.append((await conn.recv_app_data()).data)
            await conn.close()
            await chain.stop()
            assert sent_at_first_byte < records // 2
            assert b"".join(got) == b"".join(
                bytes([i]) * MAX_PLAINTEXT for i in range(records)
            )
            assert yields  # the server's, a few per response

        run(scenario())

    def test_small_records_never_take_the_yield(self, bed, monkeypatch):
        yields = _count_yields(monkeypatch)

        async def scenario():
            chain = await start_chain(bed, Mode.MCTLS, 1)
            client = client_connection_factory(
                bed, Mode.MCTLS, topology=bed.topology(1, n_contexts=1)
            )()
            conn = await connect((LOOPBACK, chain.port), client)
            await conn.handshake()
            for i in range(1000):
                payload = i.to_bytes(4, "big") * 16
                await conn.send(payload, context_id=1)
                assert (await conn.recv_app_data()).data == payload
            await conn.close()
            await chain.stop()
            assert yields == []

        run(scenario())

    def test_client_half_close_still_receives_the_whole_stream(self, bed):
        records = 40

        async def stream_after_eof(conn):
            await conn.recv_app_data()
            with pytest.raises(SessionEnded):  # the client's EOF, relayed
                await conn.recv_app_data()
            for i in range(records):
                await conn.send(bytes([i]) * 4096, context_id=1)
                await asyncio.sleep(0)

        async def scenario():
            chain = await start_chain(
                bed, Mode.MCTLS, 1, handler=stream_after_eof
            )
            client = client_connection_factory(
                bed, Mode.MCTLS, topology=bed.topology(1, n_contexts=1)
            )()
            conn = await connect((LOOPBACK, chain.port), client)
            await conn.handshake()
            await conn.send(b"then I stop talking", context_id=1)
            conn.transport.write_eof()
            got = []
            with pytest.raises(SessionEnded):
                while True:
                    got.append((await conn.recv_app_data()).data)
            await conn.close()
            await chain.stop()
            assert got == [bytes([i]) * 4096 for i in range(records)]
            assert chain.relays[0].stats.errors == 0
            assert chain.endpoint.stats.errors == 0

        run(scenario())

    def test_forced_stop_closes_both_sockets_of_every_live_session(
        self, bed, monkeypatch
    ):
        captured = _CapturedSessions(monkeypatch)

        async def scenario():
            chain = await start_chain(bed, Mode.MCTLS, 1)
            make_client = client_connection_factory(
                bed, Mode.MCTLS, topology=bed.topology(1, n_contexts=1)
            )
            conns = []
            for _ in range(3):
                conn = await connect((LOOPBACK, chain.port), make_client())
                await conn.handshake()
                conns.append(conn)
            assert chain.relays[0].stats.active == 3
            await asyncio.wait_for(chain.relays[0].stop(graceful=False), 5.0)
            assert chain.relays[0].stats.active == 0
            sockets = [
                side.transport.get_extra_info("socket")
                for session in captured.sessions
                for side in (session.up, session.down)
            ]
            assert len(sockets) == 6
            assert all(sock.fileno() == -1 for sock in sockets)
            for conn in conns:
                await conn.close()
            await chain.stop()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(scenario())
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_every_socket_of_a_chain_has_nagle_off(self, bed, monkeypatch):
        """asyncio sets TCP_NODELAY only on sockets whose ``proto`` says
        TCP; an accepted one says 0, and Nagle plus delayed ACK then
        stall a record stream 40 ms at a time (``bulk_transfer`` read
        0.6x until the servers set it themselves)."""
        captured = _CapturedSessions(monkeypatch)
        served = []

        async def handler(conn):
            served.append(conn)
            await echo_handler(conn)

        def nodelay(transport):
            sock = transport.get_extra_info("socket")
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        async def scenario():
            chain = await start_chain(bed, Mode.NO_ENCRYPT, 1, handler=handler)
            conn = await connect(
                (LOOPBACK, chain.port), client_connection_factory(bed, Mode.NO_ENCRYPT)()
            )
            await conn.handshake()
            await conn.send(b"x")
            await conn.recv_app_data()
            (session,) = captured.sessions
            transports = [
                conn.transport, session.down.transport, session.up.transport,
                served[0].transport,
            ]
            flags = [nodelay(transport) for transport in transports]
            await conn.close()
            await chain.stop()
            assert all(flags), flags

        run(scenario())


# -- one stack table, one load loop ------------------------------------------


def _compact_schema():
    from repro.mctls.contexts import FieldDef, FieldSchema

    return FieldSchema(
        context_id=1,
        fields=(FieldDef("hdr", 0, 8), FieldDef("body", 8, 64)),
        write_grants={"hdr": (1,)},
    )


def _stack_traits(obj):
    """What a stack object was built from: its class and, where it has a
    config, the parts of it the bed decides (a SplitTLS relay has two)."""
    sides = [obj.client_side, obj.server_side] if hasattr(obj, "client_side") else [obj]
    return [
        (
            type(side),
            getattr(getattr(side, "config", None), "cipher_suites", None),
            getattr(getattr(side, "config", None), "trusted_roots", None),
            getattr(side, "key_transport", None),
        )
        for side in sides
    ]


class TestStackTable:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_serving_factories_build_what_the_bed_builds(self, bed, mode):
        """``serving.py``'s per-connection factories are closures over
        ``TestBed.make_client`` / ``make_server`` / ``make_relay``: same
        classes, suites, trust store and key transport as the in-memory
        ``make_endpoints`` / ``make_relays`` of the same bed."""
        topology = bed.topology(2) if mode.has_contexts else None
        client, server = bed.make_endpoints(mode, topology)
        relays = bed.make_relays(mode, 2)
        assert len(relays) == 2
        served_client = client_connection_factory(bed, mode, topology=topology)()
        served_server = server_connection_factory(bed, mode)(SessionCache())
        served_relays = [relay_factory(bed, mode, i, 2)() for i in range(2)]
        assert _stack_traits(served_client) == _stack_traits(client)
        assert _stack_traits(served_server) == _stack_traits(server)
        for served, relay in zip(served_relays, relays):
            assert served is not relay
            assert _stack_traits(served) == _stack_traits(relay)
        if mode.has_contexts:
            assert served_client.key_transport is client.key_transport is not None

    def test_compact_bed_serves_its_own_framing(self, monkeypatch):
        """The bed's framing is what its clients offer, also through
        ``serving.py`` (whose client factory used to overwrite it with
        ``mctls-default``); a per-client override still wins."""
        from repro.experiments.serving import run_chain_load

        compact = TestBed(
            key_bits=512,
            dh_group=GROUP_TEST_512,
            framing="mctls-compact",
            field_schemas=(_compact_schema(),),
        )
        clients = []
        make_client = compact.make_client

        def recording(*args, **kwargs):
            clients.append(make_client(*args, **kwargs))
            return clients[-1]

        monkeypatch.setattr(compact, "make_client", recording)
        report = run(
            run_chain_load(compact, Mode.MCTLS, 1, connections=2, concurrency=2)
        )
        assert report["framing"] == "mctls-compact"
        assert (report["load"]["completed"], report["load"]["failed"]) == (2, 0)
        assert [c.negotiated_framing.name for c in clients] == ["mctls-compact"] * 2

        del clients[:]
        report = run(
            run_chain_load(
                compact, Mode.MCTLS, 1, connections=1, concurrency=1,
                framing="mctls-default", field_schemas=(),
            )
        )
        assert report["framing"] == "mctls-default"
        assert [c.negotiated_framing.name for c in clients] == ["mctls-default"]


class TestOneLoadLoop:
    def test_session_that_dies_mid_run_is_one_failed_session(self, bed):
        """Sessions and echoes are counted apart: a session cut after its
        third echo is one failure, and its three echoes stay counted."""

        async def three_echoes(conn):
            for _ in range(3):
                event = await conn.recv_app_data()
                await conn.send(event.data, context_id=event.context_id)

        async def scenario():
            chain = await start_chain(bed, Mode.NO_ENCRYPT, handler=three_echoes)
            result = await run_load(
                (LOOPBACK, chain.port),
                client_connection_factory(bed, Mode.NO_ENCRYPT),
                connections=1,
                concurrency=1,
                records=100,
                period_s=0.001,
            )
            await chain.stop()
            return result

        result = run(scenario())
        assert (result.requested, result.completed, result.failed) == (1, 0, 1)
        assert result.records == 3
        assert len(result.record_latencies) == 3
        assert result.errors == {"SessionEnded": 1}
        assert result.to_dict()["records"] == 3

    def test_periodic_records_keep_their_schedule(self, bed):
        async def scenario():
            chain = await start_chain(bed, Mode.NO_ENCRYPT)
            result = await run_load(
                (LOOPBACK, chain.port),
                client_connection_factory(bed, Mode.NO_ENCRYPT),
                connections=2,
                concurrency=2,
                records=5,
                period_s=0.002,
            )
            await chain.stop()
            return result

        result = run(scenario())
        assert (result.completed, result.failed, result.records) == (2, 0, 10)
        assert len(result.record_latencies) == 10
        assert len(result.handshake_latencies) == 2
        assert result.duration_s >= 4 * 0.002
        lat = result.to_dict()["record_latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
