"""State-machine edge cases: out-of-order and malformed protocol events."""

from pathlib import Path

import pytest

from repro.core.endpoint import CCS
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.framing import MCTLS_DEFAULT
from repro.mctls import ContextDefinition, McTLSClient, McTLSServer, SessionTopology
from repro.mctls.messages import EXT_MCTLS_KEY_TRANSPORT, EXT_MCTLS_MODE
from repro.mctls.session import KeyTransport
from repro.tls import TLSClient, TLSServer
from repro.tls import messages as msgs
from repro.tls.connection import ALERT_UNEXPECTED_MESSAGE, TLSConfig, TLSError
from repro.tls.record import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    HANDSHAKE,
    parse_record,
)
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.transport import Chain, pump


def tls_pair(client_config, server_config):
    client = TLSClient(client_config)
    server = TLSServer(server_config)
    client.start_handshake()
    return client, server


def mctls_pair(ca, server_identity):
    topology = SessionTopology(contexts=[ContextDefinition(1, "x")])
    client = McTLSClient(
        TLSConfig(
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            dh_group=GROUP_TEST_512,
        ),
        topology=topology,
    )
    server = McTLSServer(
        TLSConfig(
            identity=server_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
    )
    client.start_handshake()
    return client, server


class TestTLSStateMachine:
    def test_premature_server_hello(self, client_config, server_config):
        """A ServerHello before the client sends anything... the server
        never does this; simulate an attacker pushing one at the server."""
        client, server = tls_pair(client_config, server_config)
        raw = msgs.frame(msgs.SERVER_HELLO, msgs.ServerHello(
            random=b"r" * 32, cipher_suite=0x0067
        ).encode())
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(HANDSHAKE, raw)
        with pytest.raises(TLSError, match="unexpected"):
            server.receive_data(wire)

    def test_premature_ccs_at_server(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(CHANGE_CIPHER_SPEC, b"\x01")
        with pytest.raises(TLSError, match="ChangeCipherSpec"):
            server.receive_data(wire)

    def test_malformed_ccs_payload(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(CHANGE_CIPHER_SPEC, b"\x02")
        with pytest.raises(TLSError, match="malformed"):
            server.receive_data(wire)

    def test_app_data_before_handshake(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(APPLICATION_DATA, b"early")
        with pytest.raises(TLSError, match="before handshake"):
            server.receive_data(wire)

    def test_malformed_alert_length(self, client_config, server_config):
        client, server = tls_pair(client_config, server_config)
        pump(client, server)
        # Hand-craft an unprotected alert record with a bad length and
        # feed it to a fresh (unprotected) server.
        fresh_client, fresh_server = tls_pair(client_config, server_config)
        from repro.tls.record import RecordLayer

        wire = RecordLayer().encode(ALERT, b"\x01")
        with pytest.raises(TLSError, match="malformed alert"):
            fresh_server.receive_data(wire)

    def test_double_start_rejected(self, client_config):
        client = TLSClient(client_config)
        client.start_handshake()
        with pytest.raises(TLSError, match="already started"):
            client.start_handshake()

    def test_bad_client_finished(self, client_config, server_config):
        """Corrupting the client's CCS-protected flight fails at the server."""
        client, server = tls_pair(client_config, server_config)
        server.receive_data(client.data_to_send())
        client.receive_data(server.data_to_send())
        flight = bytearray(client.data_to_send())
        flight[-1] ^= 0x01  # corrupt the encrypted Finished
        with pytest.raises(TLSError):
            server.receive_data(bytes(flight))


class TestMcTLSStateMachine:
    def test_double_start_rejected(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        with pytest.raises(TLSError, match="already started"):
            client.start_handshake()

    def test_premature_ccs(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        wire = MCTLS_DEFAULT.pack_header(CHANGE_CIPHER_SPEC, 0, 1) + b"\x01"
        with pytest.raises(TLSError, match="ChangeCipherSpec"):
            server.receive_data(wire)

    def test_app_data_before_completion(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        wire = MCTLS_DEFAULT.pack_header(APPLICATION_DATA, 1, 4) + b"data"
        with pytest.raises(TLSError, match="before handshake"):
            server.receive_data(wire)

    def test_unexpected_message_type_in_flight(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        server.receive_data(client.data_to_send())
        client.receive_data(server.data_to_send())
        # Replay the ClientHello at the server mid-flight.
        raw = msgs.frame(
            msgs.CLIENT_HELLO,
            msgs.ClientHello(random=b"r" * 32, cipher_suites=[0x0067]).encode(),
        )
        wire = MCTLS_DEFAULT.pack_header(HANDSHAKE, 0, len(raw)) + raw
        with pytest.raises(TLSError, match="unexpected"):
            server.receive_data(wire)

    def test_mctls_client_rejects_missing_mode(self, ca, server_identity):
        """A ServerHello without the mode extension is not mcTLS."""
        client, _ = mctls_pair(ca, server_identity)
        raw = msgs.frame(
            msgs.SERVER_HELLO,
            msgs.ServerHello(random=b"r" * 32, cipher_suite=0x0067).encode(),
        )
        wire = MCTLS_DEFAULT.pack_header(HANDSHAKE, 0, len(raw)) + raw
        with pytest.raises(TLSError, match="mode"):
            client.receive_data(wire)

    def test_handshake_completion_flags_consistent(self, ca, server_identity):
        client, server = mctls_pair(ca, server_identity)
        assert not client.handshake_complete and not server.handshake_complete
        pump(client, server)
        assert client.handshake_complete and server.handshake_complete


# -- one typed rejection per lookup miss -----------------------------------

# Every handshake type the three stacks define, plus two none of them
# does: RFC 5077's NewSessionTicket and an unassigned one.
_HANDSHAKE_TYPES = (
    msgs.CLIENT_HELLO,
    msgs.SERVER_HELLO,
    4,
    msgs.CERTIFICATE,
    msgs.SERVER_KEY_EXCHANGE,
    msgs.SERVER_HELLO_DONE,
    msgs.CLIENT_KEY_EXCHANGE,
    msgs.FINISHED,
    msgs.MIDDLEBOX_HELLO,
    msgs.MIDDLEBOX_CERTIFICATE,
    msgs.MIDDLEBOX_KEY_EXCHANGE,
    msgs.MIDDLEBOX_KEY_MATERIAL,
    msgs.WARRANT_ISSUE,
    msgs.DELEGATED_KEY_MATERIAL,
    0x63,
)

_STACKS = {
    "tls": (Mode.E2E_TLS, KeyTransport.DHE),
    "mctls": (Mode.MCTLS, KeyTransport.DHE),
    "ckd": (Mode.MCTLS_CKD, KeyTransport.DHE),
    "rsa-transport": (Mode.MCTLS, KeyTransport.RSA),
    "mdtls": (Mode.MDTLS, KeyTransport.DHE),
}


@pytest.fixture(scope="module")
def beds():
    return {
        transport: TestBed(key_bits=512, dh_group=GROUP_TEST_512, key_transport=transport)
        for transport in KeyTransport
    }


class _Gate:
    """Feeds the wrapped endpoint whole records, at most ``budget`` of
    them; ``states[k]`` is its state once ``k`` records went in."""

    def __init__(self, conn, budget):
        self.conn = conn
        self.budget = budget
        self.held = bytearray()
        self.states = []

    def receive_data(self, data):
        self.held += data
        events = []
        while self.budget > 0:
            record = parse_record(self.held, 0, self.conn.records.plain_framing)
            if record is None:
                break
            if not self.states:
                self.states.append(self.conn._state)
            del self.held[: len(record[3])]
            self.budget -= 1
            events += self.conn.receive_data(record[3])
            self.states.append(self.conn._state)
        return events

    def data_to_send(self):
        return self.conn.data_to_send()


def _record_for(target, peer, content_type, payload):
    """A record ``target`` reads as the peer's next: plaintext until its
    read side is armed, then under the peer's keys at the right seq."""
    layer = target.records
    if content_type == CHANGE_CIPHER_SPEC or not layer.read_state.protected:
        return layer.plain_framing.pack_header(content_type, 0, len(payload)) + payload
    peer.records.write_state.seq = layer.read_state.seq
    return peer.records.encode(content_type, payload)


def _queued_alerts(target, peer):
    """``(level, description)`` of every record ``target`` queued, read
    back through the peer's keys where the target's write side is armed."""
    out, pos, alerts = target.data_to_send(), 0, []
    while pos < len(out):
        content_type, _, fragment, raw = parse_record(
            out, pos, target.records.plain_framing
        )
        pos += len(raw)
        payload = bytes(fragment)
        if target.records.write_state.protected:
            peer.records.read_state.seq = target.records.write_state.seq - 1
            peer.records.feed(raw)
            record = peer.records.read_record()
            content_type, payload = (
                (record.content_type, record.payload)
                if hasattr(record, "payload")
                else record
            )
        assert content_type == ALERT
        alerts.append(tuple(payload))
    return alerts


@pytest.mark.parametrize("flow", ["full", "resumed"])
@pytest.mark.parametrize("stack", list(_STACKS))
@pytest.mark.parametrize("role", ["client", "server"])
class TestEveryLookupMissIsOneUnexpectedMessage:
    """Drive a real handshake to every state the role reaches, then feed
    it each handshake type its table has no row for in that state, an
    unknown type and a stray ChangeCipherSpec: each is a TLSError with
    ``unexpected_message``, a closed connection and one fatal alert."""

    def _reach(self, beds, stack, stores, role, started, budget):
        """A fresh session whose ``role`` end has read ``budget`` records."""
        mode, transport = _STACKS[stack]
        bed = beds[transport]
        client = bed.make_client(mode, bed.topology(1), session_store=stores[0])
        server = bed.make_server(mode, session_cache=stores[1])
        target, peer = (client, server) if role == "client" else (server, client)
        gate = _Gate(target, budget)
        if started:
            client.start_handshake()
            ends = (gate, server) if role == "client" else (client, gate)
            Chain(ends[0], [bed.make_relay(mode, 0, 1)], ends[1]).pump()
        return target, peer, gate

    def test_every_miss(self, beds, stack, flow, role):
        stores = (ClientSessionStore(), SessionCache()) if flow == "resumed" else (None, None)
        everything = float("inf")
        if flow == "resumed":  # the full handshake the others resume
            assert not self._reach(beds, stack, stores, "client", True, everything)[0].resumed
        target, _, gate = self._reach(beds, stack, stores, role, True, everything)
        assert target.handshake_complete and target.resumed == (flow == "resumed")

        # (started, records read, state) where each state is first reached.
        points = []
        if role == "client":
            unstarted = self._reach(beds, stack, stores, role, False, 0)[0]
            points.append((False, 0, unstarted._state))
        for fed, state in enumerate(gate.states):
            if state not in [point[2] for point in points]:
                points.append((True, fed, state))

        rows = type(target).TRANSITIONS
        failures = []
        for started, fed, state in points:
            handled = {key for (s, key) in rows if s == state}
            for msg_type in [t for t in _HANDSHAKE_TYPES + (CCS,) if t not in handled]:
                target, peer, _ = self._reach(beds, stack, stores, role, started, fed)
                assert target._state == state
                if msg_type == CCS:
                    wire = _record_for(target, peer, CHANGE_CIPHER_SPEC, b"\x01")
                else:
                    wire = _record_for(target, peer, HANDSHAKE, msgs.frame(msg_type, b""))
                try:
                    target.receive_data(wire)
                except TLSError as exc:
                    cell = (state.name, msg_type, exc.alert, target.closed)
                    if exc.alert == ALERT_UNEXPECTED_MESSAGE and target.closed:
                        alerts = _queued_alerts(target, peer)
                        if alerts == [(2, ALERT_UNEXPECTED_MESSAGE)]:
                            continue
                        cell += (alerts,)
                    failures.append(cell)
                else:
                    failures.append((state.name, msg_type, "accepted"))
        assert not failures, failures


# -- the mode and key-transport bytes at the middlebox ---------------------


_BYTE_IDS = ["unknown", "two-bytes", "empty"]


def _handshake_record(message):
    raw = msgs.frame(message.msg_type, message.encode())
    return MCTLS_DEFAULT.pack_header(HANDSHAKE, 0, len(raw)) + raw


@pytest.mark.parametrize("mode", [Mode.MCTLS, Mode.MDTLS])
class TestMiddleboxExtensionBytes:
    """A bad mode or key-transport byte is one TLSError at the middlebox,
    as at the endpoints (not a bare ValueError, and never ignored)."""

    def _client_hello(self, bed, key_transport):
        return msgs.ClientHello(
            random=bytes(32),
            cipher_suites=[bed.suites[0].suite_id],
            extensions=[
                (msgs.EXT_MIDDLEBOX_LIST, bed.topology(1).encode()),
                (EXT_MCTLS_KEY_TRANSPORT, key_transport),
            ],
        )

    @pytest.mark.parametrize("byte", [b"\x07", b"\x00\x00", b""], ids=_BYTE_IDS)
    def test_bad_key_transport(self, beds, mode, byte):
        bed = beds[KeyTransport.DHE]
        relay = bed.make_relay(mode, 0, 1)
        with pytest.raises(TLSError, match="key transport"):
            relay.receive_from_client(_handshake_record(self._client_hello(bed, byte)))

    @pytest.mark.parametrize("byte", [b"\x09", b"\x00\x00", b""], ids=_BYTE_IDS)
    def test_bad_mode(self, beds, mode, byte):
        bed = beds[KeyTransport.DHE]
        relay = bed.make_relay(mode, 0, 1)
        relay.receive_from_client(_handshake_record(self._client_hello(bed, b"\x00")))
        hello = msgs.ServerHello(
            random=bytes(32),
            cipher_suite=bed.suites[0].suite_id,
            extensions=[(EXT_MCTLS_MODE, byte)],
        )
        with pytest.raises(TLSError, match="mode"):
            relay.receive_from_server(_handshake_record(hello))


# -- every middlebox row's message, first ---------------------------------

_MIDDLEBOX_STACKS = {
    "mctls-dhe": (Mode.MCTLS, KeyTransport.DHE),
    "mctls-rsa": (Mode.MCTLS, KeyTransport.RSA),
    "mdtls": (Mode.MDTLS, KeyTransport.DHE),
}


def _middlebox_inbound(bed, mode):
    """``(side name, msg_type) -> framed message`` for the first of each
    type a middlebox received from either side of a real handshake."""
    wire = {"CLIENT": bytearray(), "SERVER": bytearray()}
    # The middlebox reads the client on hop 0 and the server on hop 1.
    sides = {(0, "c2s"): "CLIENT", (1, "s2c"): "SERVER"}

    def tap(hop, direction, data):
        if (hop, direction) in sides:
            wire[sides[hop, direction]] += data

    client = bed.make_client(mode, bed.topology(1))
    chain = Chain(client, [bed.make_relay(mode, 0, 1)], bed.make_server(mode))
    chain.on_hop = tap
    client.start_handshake()
    chain.pump()
    messages = {}
    for side, data in wire.items():
        buffer, pos = msgs.HandshakeBuffer(), 0
        while True:
            content_type, _, fragment, raw = parse_record(data, pos, MCTLS_DEFAULT)
            pos += len(raw)
            if content_type == CHANGE_CIPHER_SPEC:
                break
            buffer.feed(bytes(fragment))
            while (message := buffer.next_message()) is not None:
                messages.setdefault((side, message[0]), message[2])
    return messages


@pytest.mark.parametrize("stack", list(_MIDDLEBOX_STACKS))
def test_every_middlebox_row_first_is_a_tls_error_or_forwarded(beds, stack):
    """A fresh middlebox fed any message its table has a row for — or a
    ChangeCipherSpec — before anything else either forwards it verbatim
    or fails with one TLSError and closes; no other exception escapes."""
    mode, transport = _MIDDLEBOX_STACKS[stack]
    bed = beds[transport]
    messages = {**_middlebox_inbound(bed, Mode.MCTLS), **_middlebox_inbound(bed, mode)}
    rows = type(bed.make_relay(mode, 0, 1)).TRANSITIONS
    cases = [(side.name, msg_type) for side, msg_type in rows]
    cases += [(side, CCS) for side in ("CLIENT", "SERVER")]
    outcomes = {}
    for side, msg_type in cases:
        relay = bed.make_relay(mode, 0, 1)
        if msg_type == CCS:
            wire = MCTLS_DEFAULT.pack_header(CHANGE_CIPHER_SPEC, 0, 1) + b"\x01"
        else:
            raw = messages[side, msg_type]
            wire = MCTLS_DEFAULT.pack_header(HANDSHAKE, 0, len(raw)) + raw
        receive, onward = (
            (relay.receive_from_client, relay.data_to_server)
            if side == "CLIENT"
            else (relay.receive_from_server, relay.data_to_client)
        )
        try:
            receive(wire)
        except TLSError:
            outcomes[side, msg_type] = "closed" if relay.closed else "open after TLSError"
        except Exception as exc:
            outcomes[side, msg_type] = repr(exc)
        else:
            outcomes[side, msg_type] = "forwarded" if onward() == wire else "altered"
    assert set(outcomes.values()) <= {"closed", "forwarded"}, outcomes


# -- docs/PROTOCOL.md prints every role's table ----------------------------

def _names(states):
    return " or ".join(s.name for s in (states if isinstance(states, tuple) else (states,)))


def _endpoint_table(cls, base=None):
    """``cls``'s rows as Markdown (only those ``base`` lacks, if given)."""
    title = f"`{cls.__name__}`" + (f", rows beyond `{base.__name__}`" if base else "")
    lines = [title, "", "| state | message | next state |", "|---|---|---|"]
    rows = cls.TRANSITIONS.items()
    if base is not None:
        rows = [(key, row) for key, row in rows if base.TRANSITIONS.get(key) != row]
    for (state, key), (decoder, _, _, _, next_state) in sorted(rows, key=lambda r: r[0][0]):
        message = key if decoder is None else decoder.__name__
        lines.append(f"| {state.name} | {message} | {_names(next_state)} |")
    return "\n".join(lines)


def _middlebox_table(cls, base=None):
    title = f"`{cls.__name__}`" + (f", rows beyond `{base.__name__}`" if base else "")
    lines = [title, "", "| from | message | forwarded |", "|---|---|---|"]
    for (side, _), (decoder, _, first) in cls.TRANSITIONS.items():
        if base is None or (side, decoder.msg_type) not in base.TRANSITIONS:
            when = "before its handler" if first else "after its handler"
            lines.append(f"| {side.name.lower()} | {decoder.__name__} | {when} |")
    return "\n".join(lines)


def protocol_tables():
    from repro.mctls import McTLSMiddlebox
    from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer

    return [
        _endpoint_table(TLSClient),
        _endpoint_table(TLSServer),
        _endpoint_table(McTLSClient),
        _endpoint_table(McTLSServer),
        _endpoint_table(MdTLSClient, McTLSClient),
        _endpoint_table(MdTLSServer, McTLSServer),
        _middlebox_table(McTLSMiddlebox),
        _middlebox_table(MdTLSMiddlebox, McTLSMiddlebox),
    ]


def test_protocol_doc_prints_every_table():
    doc = (Path(__file__).parent.parent / "docs" / "PROTOCOL.md").read_text()
    missing = [table.splitlines()[0] for table in protocol_tables() if table not in doc]
    assert not missing, f"docs/PROTOCOL.md is missing or has stale tables: {missing}"
