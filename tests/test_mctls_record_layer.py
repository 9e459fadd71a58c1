"""Unit tests for the mcTLS record layer and middlebox record processor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mctls import keys as mk
from repro.crypto.dh import GROUP_TEST_512
from repro.framing import MCTLS_COMPACT, MCTLS_DEFAULT
from repro.mctls import McTLSClient, McTLSServer
from repro.mctls.contexts import (
    ENDPOINT_CONTEXT_ID,
    ContextDefinition,
    Permission,
    SessionTopology,
)
from repro.mctls.record import (
    MAX_FRAGMENT,
    MacVerificationError,
    McTLSRecordError,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    split_records,
)
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256 as SUITE
from repro.tls.connection import TLSConfig
from repro.tls.record import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    HANDSHAKE,
    MAX_PLAINTEXT,
    parse_record,
)

RC, RS = b"c" * 32, b"s" * 32
ENDPOINT_SECRET = b"S" * 48


def make_context_keys(ctx_id=1):
    return mk.ckd_context_keys(ENDPOINT_SECRET, RC, RS, ctx_id)


def make_layer(is_client, context_ids=(1,), activate=True):
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(SUITE)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(ENDPOINT_SECRET, RC, RS))
    for ctx_id in context_ids:
        layer.install_context_keys(ctx_id, make_context_keys(ctx_id))
    if activate:
        layer.activate_write()
        layer.activate_read()
    return layer


def make_pair(context_ids=(1,)):
    return make_layer(True, context_ids), make_layer(False, context_ids)


class TestEndpointRecords:
    def test_context_roundtrip(self):
        client, server = make_pair()
        server.feed(client.encode(APPLICATION_DATA, b"hello", 1))
        record = server.read_record()
        assert (record.context_id, record.payload) == (1, b"hello")
        assert record.legally_modified is False

    def test_control_context_roundtrip(self):
        client, server = make_pair()
        server.feed(client.encode(HANDSHAKE, b"finished-ish", ENDPOINT_CONTEXT_ID))
        record = server.read_record()
        assert record.context_id == ENDPOINT_CONTEXT_ID
        assert record.payload == b"finished-ish"

    def test_directional_separation(self):
        """A client record cannot be decoded as a server record (keys are
        directional)."""
        client, _ = make_pair()
        other_client = make_layer(True)
        other_client.feed(client.encode(APPLICATION_DATA, b"x", 1))
        with pytest.raises(McTLSRecordError):
            other_client.read_record()

    def test_unknown_context_rejected_on_send(self):
        client, _ = make_pair()
        with pytest.raises(McTLSRecordError, match="no keys"):
            client.encode(APPLICATION_DATA, b"x", 99)

    def test_unknown_context_rejected_on_receive(self):
        client, server = make_pair(context_ids=(1, 2))
        limited = make_layer(False, context_ids=(1,))
        limited.feed(client.encode(APPLICATION_DATA, b"x", 2))
        with pytest.raises(McTLSRecordError, match="no keys"):
            limited.read_record()

    def test_activation_requires_keys(self):
        layer = McTLSRecordLayer(is_client=True)
        with pytest.raises(McTLSRecordError):
            layer.activate_write()

    def test_fragmentation_and_reassembly(self):
        client, server = make_pair()
        payload = bytes(range(256)) * 200  # > MAX_PLAINTEXT
        server.feed(client.encode(APPLICATION_DATA, payload, 1))
        chunks = [r.payload for r in server.read_all()]
        assert len(chunks) >= 2
        assert b"".join(chunks) == payload

    def test_sequence_numbers_global_across_contexts(self):
        """Records in different contexts share one sequence space."""
        client, server = make_pair(context_ids=(1, 2))
        r1 = client.encode(APPLICATION_DATA, b"a", 1)
        r2 = client.encode(APPLICATION_DATA, b"b", 2)
        # Delivering ctx-2's record first desynchronises the sequence.
        server.feed(r2)
        with pytest.raises(McTLSRecordError):
            server.read_record()
        del r1

    def test_cross_context_splice_rejected(self):
        """A record cut from context 1 cannot be replayed as context 2."""
        client, server = make_pair(context_ids=(1, 2))
        wire = bytearray(client.encode(APPLICATION_DATA, b"spliced", 1))
        wire[3] = 2  # rewrite the context id in the header
        server.feed(bytes(wire))
        with pytest.raises(McTLSRecordError):
            server.read_record()

    def test_content_type_confusion_rejected(self):
        client, server = make_pair()
        wire = bytearray(client.encode(APPLICATION_DATA, b"x", 1))
        wire[0] = ALERT
        server.feed(bytes(wire))
        with pytest.raises(McTLSRecordError):
            server.read_record()

    @given(st.binary(max_size=1000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, payload, ctx_id):
        client, server = make_pair(context_ids=(1, 2, 3))
        server.feed(client.encode(APPLICATION_DATA, payload, ctx_id))
        received = b"".join(r.payload for r in server.read_all())
        assert received == payload


class TestSplitRecords:
    def test_yields_complete_records_only(self):
        client, _ = make_pair()
        wire = client.encode(APPLICATION_DATA, b"abc", 1)
        buf = bytearray(wire[:-1])
        assert list(split_records(buf)) == []
        buf += wire[-1:]
        records = list(split_records(buf))
        assert len(records) == 1
        assert records[0][3] == wire  # raw bytes preserved
        assert not buf

    def test_header_fields(self):
        header = MCTLS_DEFAULT.pack_header(APPLICATION_DATA, 7, 100)
        assert len(header) == MCTLS_DEFAULT.header_len
        assert header[0] == APPLICATION_DATA
        assert header[3] == 7

    def test_oversized_record_rejected(self):
        buf = bytearray(MCTLS_DEFAULT.pack_header(APPLICATION_DATA, 1, 0xFFFF))
        with pytest.raises(McTLSRecordError):
            list(split_records(buf))

    def test_mixed_framing_capture_splits_per_record(self, ca, server_identity):
        """Without a framing, each record's framing is read off its first
        byte: a negotiated compact session's client stream — default-framed
        handshake records up to the CCS, compact-framed records after it —
        splits into exactly what ``parse_record`` yields under each
        record's own framing, with nothing left over."""
        client = McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name=server_identity.name,
                dh_group=GROUP_TEST_512,
                framing="mctls-compact",
            ),
            topology=SessionTopology(contexts=[ContextDefinition(1, "telemetry")]),
        )
        server = McTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            )
        )
        client.start_handshake()
        capture = b""
        while not (client.handshake_complete and server.handshake_complete):
            out = client.data_to_send()
            assert out or server.handshake_complete
            capture += out
            server.receive_data(out)
            client.receive_data(server.data_to_send())
        assert client.negotiated_framing is MCTLS_COMPACT
        client.send_application_data(b"temp=21.5", context_id=1)
        capture += client.data_to_send()

        buf = bytearray(capture)
        records = list(split_records(buf))
        assert not buf
        pos, framing, framings = 0, MCTLS_DEFAULT, []
        for record in records:
            assert record == parse_record(capture, pos, framing, McTLSRecordError)
            framings.append(framing)
            pos += len(record[3])
            if record[0] == CHANGE_CIPHER_SPEC:
                framing = MCTLS_COMPACT
        assert pos == len(capture)
        assert framings[0] is MCTLS_DEFAULT and framings[-1] is MCTLS_COMPACT
        assert records[-1][:2] == (APPLICATION_DATA, 1)


class TestRecordSizeLimits:
    def test_fragment_exactly_at_limit_accepted(self):
        wire = (
            MCTLS_DEFAULT.pack_header(APPLICATION_DATA, 1, MAX_FRAGMENT)
            + b"\x00" * MAX_FRAGMENT
        )
        records = list(split_records(bytearray(wire)))
        assert len(records) == 1
        assert len(records[0][2]) == MAX_FRAGMENT

    def test_fragment_one_over_limit_rejected(self):
        header = MCTLS_DEFAULT.pack_header(APPLICATION_DATA, 1, MAX_FRAGMENT + 1)
        with pytest.raises(McTLSRecordError, match="too long"):
            list(split_records(bytearray(header)))

    def test_payload_exactly_max_plaintext_is_one_record(self):
        """A MAX_PLAINTEXT payload fits one record: its fragment (nonce +
        payload + three MACs) stays within the MAX_FRAGMENT expansion
        budget and the receiver round-trips it."""
        client, server = make_pair()
        payload = b"x" * MAX_PLAINTEXT
        wire = client.encode(APPLICATION_DATA, payload, 1)
        records = list(split_records(bytearray(wire)))
        assert len(records) == 1
        assert len(records[0][2]) <= MAX_FRAGMENT
        server.feed(wire)
        assert b"".join(r.payload for r in server.read_all()) == payload

    def test_payload_one_over_max_plaintext_fragments(self):
        client, server = make_pair()
        payload = b"y" * (MAX_PLAINTEXT + 1)
        wire = client.encode(APPLICATION_DATA, payload, 1)
        assert len(list(split_records(bytearray(wire)))) == 2
        server.feed(wire)
        chunks = [r.payload for r in server.read_all()]
        assert [len(c) for c in chunks] == [MAX_PLAINTEXT, 1]
        assert b"".join(chunks) == payload


class TestSequenceNumbers:
    def test_third_party_deletion_detected_across_contexts(self):
        """Sequence numbers are global per direction: silently deleting a
        context-1 record makes the *next* record — in a different
        context — fail its writer MAC at the endpoint."""
        client, server = make_pair(context_ids=(1, 2))
        deleted = client.encode(APPLICATION_DATA, b"deleted by attacker", 1)
        survivor = client.encode(APPLICATION_DATA, b"survivor", 2)
        server.feed(survivor)  # the context-1 record never arrives
        with pytest.raises(MacVerificationError) as excinfo:
            server.read_record()
        assert excinfo.value.mac == "writers"
        assert excinfo.value.where == "endpoint"
        assert excinfo.value.context_id == 2
        del deleted

    def test_no_deletion_no_false_positive(self):
        client, server = make_pair(context_ids=(1, 2))
        server.feed(client.encode(APPLICATION_DATA, b"first", 1))
        server.feed(client.encode(APPLICATION_DATA, b"second", 2))
        received = [(r.context_id, r.payload) for r in server.read_all()]
        assert received == [(1, b"first"), (2, b"second")]


class TestMiddleboxProcessor:
    def _wire(self, client, payload=b"data", ctx=1):
        wire = client.encode(APPLICATION_DATA, payload, ctx)
        _, ctx_id, fragment, _ = next(split_records(bytearray(wire)))
        return ctx_id, fragment

    def test_reader_opens_record(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client)
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        assert opened.payload == b"data"
        assert opened.permission is Permission.READ

    def test_no_permission_returns_opaque(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.activate()
        ctx_id, fragment = self._wire(client)
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        assert opened.payload is None

    def test_opaque_records_consume_sequence_numbers(self):
        """A no-access record still advances the global sequence, so a
        later readable record verifies correctly."""
        client, _ = make_pair(context_ids=(1, 2))
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(2, Permission.READ, make_context_keys(2))
        proc.activate()
        ctx1, frag1 = self._wire(client, b"opaque", 1)
        assert proc.open_record(APPLICATION_DATA, ctx1, frag1).payload is None
        ctx2, frag2 = self._wire(client, b"readable", 2)
        assert proc.open_record(APPLICATION_DATA, ctx2, frag2).payload == b"readable"

    def test_writer_rebuild_roundtrip(self):
        client, server = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.WRITE, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client, b"original")
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        rebuilt = proc.rebuild_record(opened, b"rewritten, longer payload")
        server.feed(rebuilt)
        record = server.read_record()
        assert record.payload == b"rewritten, longer payload"
        assert record.legally_modified is True

    def test_reader_cannot_rebuild(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client)
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        with pytest.raises(McTLSRecordError, match="write permission"):
            proc.rebuild_record(opened, b"nope")

    def test_tamper_detected_by_reader(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client)
        bad = bytearray(fragment)
        bad[-1] ^= 1
        with pytest.raises(McTLSRecordError):
            proc.open_record(APPLICATION_DATA, ctx_id, bytes(bad))

    def test_inactive_processor_rejects(self):
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        with pytest.raises(McTLSRecordError, match="not yet activated"):
            proc.open_record(APPLICATION_DATA, 1, b"x" * 100)
