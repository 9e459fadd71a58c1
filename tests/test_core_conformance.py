"""Conformance battery: every protocol stack behind ``repro.core``.

The point of the sans-I/O refactor is that the six stacks (mcTLS,
mcTLS-CKD, mdTLS, SplitTLS, E2E-TLS, NoEncrypt) are interchangeable behind the
:class:`repro.core.Connection` / :class:`repro.core.RelayProcessor`
protocols, and that the serving runtime, ``repro.aio``, drives them
through that interface alone.  This suite runs one behavioural battery —
handshake+echo through a relay, clean close, garbage-peer survival,
fail-once on fatal input, server-initiated half-close — parametrized
over (driver x mode), with zero per-mode branches in the driver beyond
choosing a context id.  The one driver, ``aio``, runs the endpoint and
its relays on one event loop.

The runtime is driven through a synchronous facade (a private event
loop advanced by ``run_until_complete``) so the scenarios read as
straight-line code.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

import repro.aio as aio
from repro.core import Connection, DriveLoop, RelayProcessor
from repro.core.events import ApplicationData, HandshakeComplete, SessionClosed
from repro.core.instrument import Instruments
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.tls.connection import TLSError

LOOPBACK = "127.0.0.1"
MODES = list(Mode)
MCTLS_FAMILY = (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS)
GARBAGE = b"\x99" * 256


@pytest.fixture(scope="module")
def bed() -> TestBed:
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


def _context_id(mode: Mode) -> int:
    """mcTLS reserves context 0 for the endpoints' handshake channel."""
    return 1 if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else 0


# -- runtime drivers --------------------------------------------------------
#
# Each driver exposes: serve(bed, mode, n_relays, handler) -> None,
# connect() -> client facade with handshake/send/recv/close, plus
# endpoint_snapshot() and the runtime's SessionEnded type.


class _AioFacade:
    """Synchronous view of an :class:`repro.aio.AsyncConnection`."""

    def __init__(self, loop, conn):
        self._loop = loop
        self._conn = conn
        self.connection = conn.connection

    def handshake(self, timeout: float = 30.0):
        self._loop.run_until_complete(self._conn.handshake(timeout))

    def send(self, data, context_id=None):
        if context_id is None:
            self._loop.run_until_complete(self._conn.send(data))
        else:
            self._loop.run_until_complete(
                self._conn.send(data, context_id=context_id)
            )

    def recv_app_data(self, timeout: float = 30.0):
        return self._loop.run_until_complete(self._conn.recv_app_data(timeout))

    def flush(self):
        self._loop.run_until_complete(self._conn.flush())

    def close(self):
        self._loop.run_until_complete(self._conn.close())


class AioDriver:
    name = "aio"
    SessionEnded = aio.SessionEnded

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        self._relays = []
        self._bed = None
        self._mode = None
        self._topology = None
        self._endpoint = None
        self._dial_port = None

    def serve(self, bed, mode, n_relays, handler, instruments=None):
        self._bed, self._mode = bed, mode
        self._topology = (
            bed.topology(n_relays)
            if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS)
            else None
        )
        self._endpoint = aio.AsyncEndpointServer(
            (LOOPBACK, 0),
            connection_factory=lambda: bed.make_endpoints(mode, topology=self._topology)[1],
            handler=handler,
            instruments=instruments,
        )
        self._loop.run_until_complete(self._endpoint.start())
        self._dial_port = self._endpoint.port
        for relay_obj in reversed(bed.make_relays(mode, n_relays)):
            relay = aio.AsyncRelayServer(
                (LOOPBACK, 0),
                upstream_addr=(LOOPBACK, self._dial_port),
                relay_factory=lambda r=relay_obj: r,
                instruments=instruments,
            )
            self._loop.run_until_complete(relay.start())
            self._relays.append(relay)
            self._dial_port = relay.port

    def echo_handler(self, conn):
        async def _run():
            while True:
                event = await conn.recv_app_data()
                await conn.send(event.data, context_id=event.context_id)

        return _run()

    def send_one_handler(self, payload, context_id):
        async def handler(conn):
            await conn.send(payload, context_id=context_id)

        return handler

    def connect(self):
        client = self._bed.make_endpoints(self._mode, topology=self._topology)[0]
        conn = self._loop.run_until_complete(
            aio.connect((LOOPBACK, self._dial_port), client)
        )
        return _AioFacade(self._loop, conn)

    def raw_exchange(self, data: bytes) -> bytes:
        """Send ``data`` as a misbehaving peer; return everything the
        server answers before it hangs up."""

        async def exchange():
            reader, writer = await asyncio.open_connection(LOOPBACK, self._dial_port)
            try:
                writer.write(data)
                await writer.drain()
                return await asyncio.wait_for(reader.read(-1), 10.0)
            finally:
                writer.close()

        return self._loop.run_until_complete(exchange())

    def endpoint_counters(self):
        """The endpoint's protocol-level counters (``Instruments``)."""
        return self._endpoint.instruments.snapshot()

    def raw_probe(self, data: bytes) -> None:
        # A misbehaving peer doesn't use asyncio; a blocking socket from
        # the test thread is exactly what the server must survive.
        with socket.create_connection((LOOPBACK, self._dial_port)) as sock:
            sock.sendall(data)

    def endpoint_snapshot(self):
        return self._endpoint.snapshot()

    def tick(self):
        # The private loop only runs inside run_until_complete; give the
        # server tasks a slice so they can observe closes and unwind.
        self._loop.run_until_complete(asyncio.sleep(0.02))

    def stop(self):
        try:
            for relay in reversed(self._relays):
                self._loop.run_until_complete(relay.stop())
            if self._endpoint is not None:
                self._loop.run_until_complete(self._endpoint.stop())
        finally:
            self._loop.close()


DRIVERS = [AioDriver]  # one runtime; the axis keeps every scenario's ``aio-`` id


@pytest.fixture(params=DRIVERS, ids=lambda d: d.name)
def driver(request):
    drv = request.param()
    yield drv
    drv.stop()


def _settled_snapshot(driver, ready, timeout: float = 5.0):
    """Poll the endpoint snapshot until ``ready(snap)`` or timeout.

    Server-side accounting lags the client's view of a close (the
    handler task unwinds asynchronously).
    """
    import time

    deadline = time.monotonic() + timeout
    while True:
        snap = driver.endpoint_snapshot()
        if ready(snap) or time.monotonic() >= deadline:
            return snap
        driver.tick()


# -- the battery ------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestConformance:
    def test_interface_and_echo_through_relay(self, driver, bed, mode):
        """Handshake + application echo through one in-path relay, with
        the endpoints checked against the formal protocol."""
        driver.serve(bed, mode, 1, driver.echo_handler)
        client = driver.connect()
        assert isinstance(client.connection, Connection)
        client.handshake()
        assert client.connection.handshake_complete
        ctx = _context_id(mode)
        client.send(b"conform-ping", context_id=ctx)
        event = client.recv_app_data()
        assert isinstance(event, ApplicationData)
        assert event.data == b"conform-ping"
        client.close()

    def test_clean_close_counts_no_errors(self, driver, bed, mode):
        driver.serve(bed, mode, 0, driver.echo_handler)
        client = driver.connect()
        client.handshake()
        client.send(b"x", context_id=_context_id(mode))
        assert client.recv_app_data().data == b"x"
        client.close()
        second = driver.connect()
        second.handshake()
        second.close()
        # The server-side handlers observe the closes asynchronously;
        # wait for both sessions to fully unwind before asserting.
        snap = _settled_snapshot(
            driver, lambda s: s["handshakes_ok"] == 2 and s["active"] == 0
        )
        assert snap["handshakes_ok"] == 2
        assert snap["errors"] == 0

    def test_survives_garbage_peer(self, driver, bed, mode):
        """A peer streaming junk must not take the server down; the next
        well-behaved session completes normally."""
        driver.serve(bed, mode, 0, driver.echo_handler)
        driver.raw_probe(b"\x99" * 256)
        client = driver.connect()
        client.handshake()
        ctx = _context_id(mode)
        client.send(b"still-alive", context_id=ctx)
        assert client.recv_app_data().data == b"still-alive"
        client.close()

    def test_fatal_input_fails_once(self, driver, bed, mode):
        """The fail-once contract of the one ``receive_data``: after a
        fatal input exactly one fatal alert is queued, ``closed`` is set,
        further input is ignored and queues nothing, and ``errors.fatal``
        and (before completion) ``handshake.failed`` each rise by one —
        on the object, and as seen from the wire through the runtime."""
        server = bed.make_endpoints(mode)[1]
        server.instruments = Instruments()
        if mode is Mode.NO_ENCRYPT:
            # Plain TCP has no framing to violate: no input is fatal.
            [hello, data] = server.receive_data(GARBAGE)
            assert isinstance(hello, HandshakeComplete) and data.data == GARBAGE
            assert not server.closed and server.data_to_send() == b""
            assert "errors.fatal" not in server.instruments.snapshot()
            return

        def is_one_fatal_alert(wire: bytes) -> bool:
            header_len = 6 if mode in MCTLS_FAMILY else 5
            return (
                len(wire) == header_len + 2
                and wire[0] == 21  # alert record
                and wire[-2:] == bytes([2, 20])  # fatal, bad_record_mac
            )

        with pytest.raises(TLSError):
            server.receive_data(GARBAGE)
        [alert] = server.data_to_send_views()
        assert is_one_fatal_alert(alert)
        assert server.closed
        assert server.receive_data(GARBAGE) == []
        assert server.data_to_send() == b""
        counters = server.instruments.snapshot()
        assert counters["errors.fatal"] == 1
        assert counters["handshake.failed"] == 1

        driver.serve(bed, mode, 0, driver.echo_handler, instruments=Instruments())
        assert is_one_fatal_alert(driver.raw_exchange(GARBAGE))
        snap = _settled_snapshot(driver, lambda s: s["handshakes_failed"] == 1)
        assert snap["handshakes_failed"] == 1
        counters = driver.endpoint_counters()
        assert counters["errors.fatal"] == 1
        assert counters["handshake.failed"] == 1

    def test_batched_writer_single_flush(self, driver, bed, mode):
        """Batched-writer axis: queue a burst of records on the sans-I/O
        connection, then flush ONCE — the whole burst leaves in a single
        scatter-gather write and crosses a relay as one multi-record
        flight.  The echoed byte stream must come back intact and in
        order (record-framed stacks also preserve boundaries; NoEncrypt
        is a raw TCP stream, so the shared contract is the byte
        stream)."""
        driver.serve(bed, mode, 1, driver.echo_handler)
        client = driver.connect()
        client.handshake()
        ctx = _context_id(mode)
        payloads = [b"burst-%d" % i for i in range(6)]
        for payload in payloads:
            client.connection.send_application_data(payload, context_id=ctx)
        client.flush()
        expected = b"".join(payloads)
        got = b""
        while len(got) < len(expected):
            got += client.recv_app_data().data
        assert got == expected
        client.close()

    def test_server_half_close(self, driver, bed, mode):
        """Server sends one message and ends the session; the client
        reads the message, then the next read raises SessionEnded."""
        payload = b"parting-gift"
        driver.serve(
            bed, mode, 0,
            driver.send_one_handler(payload, _context_id(mode)),
        )
        client = driver.connect()
        client.handshake()
        assert client.recv_app_data().data == payload
        with pytest.raises(driver.SessionEnded):
            client.recv_app_data()
        client.close()


# -- compact-framing axis ---------------------------------------------------
#
# The same scenarios again on the stacks that negotiate record framing,
# with the client offering the compact framing plus a field schema.  The
# negotiated record geometry must be invisible to the runtimes: the
# drivers are byte-identical to the default-framing battery above.

COMPACT_MODES = [Mode.MCTLS, Mode.MCTLS_CKD]


@pytest.fixture(scope="module")
def compact_bed() -> TestBed:
    from repro.mctls.contexts import FieldDef, FieldSchema

    schema = FieldSchema(
        context_id=1,
        fields=(FieldDef("hdr", 0, 8), FieldDef("body", 8, 64)),
        write_grants={"hdr": (1,)},
    )
    return TestBed(
        key_bits=512,
        dh_group=GROUP_TEST_512,
        framing="mctls-compact",
        field_schemas=(schema,),
    )


@pytest.mark.parametrize("mode", COMPACT_MODES, ids=lambda m: m.value)
class TestCompactFramingConformance:
    def test_echo_through_relay_compact(self, driver, compact_bed, mode):
        driver.serve(compact_bed, mode, 1, driver.echo_handler)
        client = driver.connect()
        client.handshake()
        assert client.connection.negotiated_framing.name == "mctls-compact"
        client.send(b"compact-ping", context_id=1)
        assert client.recv_app_data().data == b"compact-ping"
        client.close()

    def test_batched_writer_single_flush_compact(self, driver, compact_bed, mode):
        driver.serve(compact_bed, mode, 1, driver.echo_handler)
        client = driver.connect()
        client.handshake()
        payloads = [b"compact-%d" % i for i in range(4)]
        for payload in payloads:
            client.connection.send_application_data(payload, context_id=1)
        client.flush()
        expected = b"".join(payloads)
        got = b""
        while len(got) < len(expected):
            got += client.recv_app_data().data
        assert got == expected
        client.close()


# -- cross-cutting checks (no parametrization) ------------------------------


def test_all_stacks_satisfy_protocols(bed):
    from repro.tools.check_interface import check_interfaces

    checked = check_interfaces(bed)
    # 6 modes x (client + server + relay) = 18 objects.
    assert len(checked) == 18


def _relay_cases(bed):
    """``(mode whose endpoints drive it, declared middleboxes, relay)``
    for one instance of each relay class."""
    from repro.faults.attacker import TamperPlan, TamperProxy

    cases = [
        (mode, 1, bed.make_relays(mode, 1)[0])
        for mode in (Mode.MCTLS, Mode.SPLIT_TLS, Mode.E2E_TLS, Mode.NO_ENCRYPT)
    ]
    # The attacker (with no plan: a bare wire) is not a declared middlebox.
    cases.append((Mode.MCTLS, 0, TamperProxy(TamperPlan())))
    return cases


class _ViewsOnly:
    """A relay as ``DriveLoop`` sees it, drained through the views form
    only (checking that the bytes form then finds the queue empty)."""

    def __init__(self, relay):
        self.receive_from_client = relay.receive_from_client
        self.receive_from_server = relay.receive_from_server
        self._relay = relay

    def data_to_client(self) -> bytes:
        data = b"".join(self._relay.data_to_client_views())
        assert self._relay.data_to_client() == b""
        return data

    def data_to_server(self) -> bytes:
        data = b"".join(self._relay.data_to_server_views())
        assert self._relay.data_to_server() == b""
        return data


def test_relay_views_drain_what_bytes_would(bed):
    """``data_to_*_views()`` joined is what ``data_to_*()`` would have
    returned, for all five relay classes.  Every forwarded handshake
    byte is under the endpoints' Finished hashes and every record under
    a MAC, so a session that completes and delivers its payload intact
    through the joined views is byte equality; the bytes form finding
    the queue empty is the two forms sharing it."""
    for mode, declared, relay in _relay_cases(bed):
        label = type(relay).__name__
        assert isinstance(relay, RelayProcessor), label
        topology = bed.topology(declared) if mode is Mode.MCTLS else None
        client, server = bed.make_endpoints(mode, topology=topology)
        delivered = []
        loop = DriveLoop(
            client, [_ViewsOnly(relay)], server, on_server_event=delivered.append
        )
        client.start_handshake()
        loop.pump()
        assert client.handshake_complete, label
        client.send_application_data(b"views", context_id=_context_id(mode))
        loop.pump()
        received = [e.data for e in delivered if isinstance(e, ApplicationData)]
        assert received == [b"views"], label


@pytest.mark.parametrize(
    "mode", [m for m in MODES if m is not Mode.NO_ENCRYPT], ids=lambda m: m.value
)
def test_only_certificate_errors_become_bad_certificate(bed, mode, monkeypatch):
    """A non-certificate exception inside ``verify_chain`` is a defect on
    this side, not a bad certificate: it propagates to the caller, and
    nothing is reported to the peer."""
    import repro.tls.connection as tls_connection

    def broken(*args, **kwargs):
        raise RuntimeError("verifier defect")

    monkeypatch.setattr(tls_connection, "verify_chain", broken)
    topology = bed.topology(1) if mode in MCTLS_FAMILY else None
    client, server = bed.make_endpoints(mode, topology=topology)
    loop = DriveLoop(client, bed.make_relays(mode, 1), server)
    client.start_handshake()
    with pytest.raises(RuntimeError, match="verifier defect"):
        loop.pump()
    assert not client.closed and client.data_to_send() == b""


@pytest.mark.parametrize(
    "mode", [Mode.E2E_TLS, Mode.MCTLS, Mode.MDTLS], ids=lambda m: m.value
)
def test_empty_server_chain_is_bad_certificate(bed, mode):
    """A server Certificate with no certificate in it fails the one chain
    check every client runs (TLSClient, McTLSClient, MdTLSClient alike)
    with a bad_certificate alert."""
    from repro.tls import messages as msgs
    from repro.tls.connection import ALERT_BAD_CERTIFICATE

    topology = bed.topology(1) if mode in MCTLS_FAMILY else None
    client, server = bed.make_endpoints(mode, topology=topology)
    send = server._send_handshake

    def empty_chain(message, tag=None):
        if isinstance(message, msgs.CertificateMessage):
            message = msgs.CertificateMessage(chain=[])
        send(message, tag)

    server._send_handshake = empty_chain
    loop = DriveLoop(client, bed.make_relays(mode, 1), server)
    client.start_handshake()
    with pytest.raises(TLSError, match="empty certificate chain") as failure:
        loop.pump()
    assert failure.value.alert == ALERT_BAD_CERTIFICATE
    assert client.closed and not client.handshake_complete


def test_instruments_aggregate_across_runtime(bed):
    instruments = Instruments()
    driver = AioDriver()
    try:
        driver.serve(bed, Mode.MCTLS, 1, driver.echo_handler,
                     instruments=instruments)
        client = driver.connect()
        client.connection.instruments = instruments
        client.handshake()
        client.send(b"counted", context_id=1)
        client.recv_app_data()
        client.close()
    finally:
        driver.stop()
    snap = instruments.snapshot()
    assert snap.get("handshake.complete", 0) >= 2  # client + server
    assert snap.get("relay.records", 0) >= 1
    assert snap.get("context.1.bytes_out", 0) >= len(b"counted")


def test_driveloop_event_vocabulary(bed):
    """In-memory DriveLoop over the mcTLS stack produces the shared
    event vocabulary with the hop tap seeing both directions."""
    topology = bed.topology(1)
    client, server = bed.make_endpoints(Mode.MCTLS, topology=topology)
    relays = bed.make_relays(Mode.MCTLS, 1)
    hops = []
    loop = DriveLoop(
        client, relays, server,
        on_hop=lambda hop, direction, data: hops.append((hop, direction)),
    )
    client.start_handshake()
    events = loop.pump()
    assert any(isinstance(e, HandshakeComplete) for e in events)
    assert client.handshake_complete and server.handshake_complete

    client.send_application_data(b"vocab", context_id=1)
    events = loop.pump()
    data_events = [e for e in events if isinstance(e, ApplicationData)]
    assert data_events and data_events[0].data == b"vocab"
    assert data_events[0].context_id == 1

    client.close()
    events = loop.pump()
    assert any(isinstance(e, SessionClosed) for e in events)
    assert {(0, "c2s"), (0, "s2c"), (1, "c2s"), (1, "s2c")} <= set(hops)
