"""Multi-record equivalences on the one record path.

Records are opened, checked and re-MACed one at a time; how many of
them one ``feed`` / ``receive_from_*`` call happens to carry is an
accident of the transport and must never show.  This suite pins that:

* **chunking invariance** — a seeded multi-context wire stream (a
  default-framed ChangeCipherSpec, NONE / READ / WRITE contexts, a
  mid-stream alert; default and compact framing; every record suite) fed
  to :class:`McTLSMiddlebox` and to both endpoint record layers in
  hypothesis-chosen chunks yields the same forwarded bytes, events,
  sequence numbers and — with a record tampered at index *k* — the same
  ``MacVerificationError`` after the same *k* records were delivered,
  as feeding it whole or record by record;
* **multi-record golden vectors** — ``tests/golden/batched_vectors.json``
  pins whole bursts, which (nonces draw in record order) must equal the
  concatenation of the per-record wires frozen in
  ``record_vectors.json``;
* **full-stack event streams** — on every protocol stack, a burst
  pumped through a live client → relay → server chain in one flight
  must deliver the same application byte stream as the same payloads
  sent record by record, and draining the client via
  ``data_to_send_views()`` must be equivalent to the joined drain.

Plus the bounded keystream pool's hit/miss/evict accounting (and its
``Instruments`` publication) and the receive-buffer reclamation
regression.
"""

from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.instrument import Instruments
from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.fastcipher import KEYSTREAM_POOL, KeystreamPool, ShaCtrCipher
from repro.experiments.harness import Mode, TestBed
from repro.framing import MCTLS_COMPACT, MCTLS_DEFAULT
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, Permission
from repro.mctls.record import (
    MAC_READERS,
    MAC_WRITERS,
    McTLSRecordError,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
)
from repro.tls.connection import TLSError
from repro.tls.record import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    HANDSHAKE,
    RecordError,
    RecordLayer,
)
from repro.transport import Chain

from tests.golden.gen_batched_vectors import (
    BATCHED_VECTORS_PATH,
    REBUILD_CASES,
    build_batched_vectors,
)
from tests.golden.gen_compact_vectors import SCHEMA as COMPACT_SCHEMA
from tests.golden.gen_record_vectors import (
    PAYLOADS,
    RC,
    RS,
    SECRET,
    SUITES,
    VECTORS_PATH,
    _mctls_layer,
    _patched_nonces,
)

SEED = 0xD1FF
FROZEN = json.loads(VECTORS_PATH.read_text())
FROZEN_BATCHED = json.loads(BATCHED_VECTORS_PATH.read_text())

SUITE_NAMES = sorted(SUITES)

CONTEXTS = (1, 2, 3)
FRAMINGS = {"default": MCTLS_DEFAULT, "compact": MCTLS_COMPACT}


def _rng(name: str) -> random.Random:
    return random.Random(f"{SEED}:{name}")


def _random_payloads(rng: random.Random, count: int = 12, max_len: int = 600):
    """A seeded mix of sizes: empty, tiny, block-aligned, big."""
    payloads = [b"", b"x", bytes(32), bytes(range(256))]
    while len(payloads) < count:
        payloads.append(bytes(rng.getrandbits(8) for _ in range(rng.randrange(max_len))))
    rng.shuffle(payloads)
    return payloads


def _tls_layer(suite, write: bool) -> RecordLayer:
    layer = RecordLayer()
    state = layer.write_state if write else layer.read_state
    state.activate(suite, suite.new_cipher(bytes(range(suite.key_length))), bytes(range(32)))
    return layer


# -- batched golden vectors ---------------------------------------------------


def test_batched_generator_reproduces_frozen_vectors():
    """Looping the per-record writers must reproduce the frozen JSON."""
    assert build_batched_vectors() == FROZEN_BATCHED


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_frozen_batched_bursts_equal_joined_sequential_wires(suite_name):
    """Cross-file identity: one frozen burst == the concatenation of the
    per-record wires frozen in ``record_vectors.json``."""
    batched = FROZEN_BATCHED["suites"][suite_name]
    sequential = FROZEN["suites"][suite_name]
    assert batched["tls_burst"] == "".join(
        vector["wire"] for vector in sequential["tls"]["records"]
    )
    for direction in ("c2s", "s2c"):
        assert batched[f"mctls_{direction}_burst"] == "".join(
            vector["wire"]
            for vector in sequential[f"mctls_{direction}"]["records"]
        )


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_frozen_batched_bursts_decode(suite_name):
    """The frozen bursts decode on fresh receive-side layers."""
    suite = SUITES[suite_name]
    group = FROZEN_BATCHED["suites"][suite_name]

    reader = _tls_layer(suite, write=False)
    reader.feed(bytes.fromhex(group["tls_burst"]))
    decoded = list(reader.read_all())
    assert [payload for _, payload in decoded] == PAYLOADS

    server = _mctls_layer(suite, is_client=False)
    server.feed(bytes.fromhex(group["mctls_c2s_burst"]))
    records = list(server.read_all())
    assert [r.payload for r in records[:-1]] == PAYLOADS
    assert records[-1].content_type == HANDSHAKE
    assert records[-1].context_id == ENDPOINT_CONTEXT_ID


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_frozen_rebuilt_burst_decodes_with_modification_verdicts(suite_name):
    """The WRITE middlebox's rebuilt burst verifies at the endpoint,
    with §3.4 legal-modification verdicts per record."""
    suite = SUITES[suite_name]
    group = FROZEN_BATCHED["suites"][suite_name]["middlebox_rebuild_burst"]
    server = _mctls_layer(suite, is_client=False)
    server.feed(bytes.fromhex(group["rebuilt_burst"]))
    records = list(server.read_all())
    assert len(records) == len(REBUILD_CASES)
    for record, (original, replacement) in zip(records, REBUILD_CASES):
        assert record.payload == replacement
        assert record.legally_modified is (original != replacement)


# -- chunking invariance ------------------------------------------------------
#
# One stream, many ways to cut it.  ``_Stream`` holds the wire plus each
# record's end offset; ``_chunks`` cuts it; the ``*_outcome`` helpers
# run one party over one cutting and return everything an observer of
# that party could tell apart.


class _Stream:
    """An encoded record stream and where its records end."""

    def __init__(self, header_len: int):
        self.header_len = header_len
        self.wire = bytearray()
        self.ends = []
        self.payloads = []  # None for records tampering must skip

    def add(self, record: bytes, payload=None) -> None:
        self.wire += record
        self.ends.append(len(self.wire))
        self.payloads.append(payload)

    def record(self, index: int) -> bytes:
        start = self.ends[index - 1] if index else 0
        return bytes(self.wire[start : self.ends[index]])

    def tampered(self, index: int) -> bytes:
        """The wire with the first nonce/IV byte of record ``index``
        flipped: under every suite that corrupts the payload and leaves
        the record length alone, so detection is a MAC failure."""
        wire = bytearray(self.wire)
        wire[self.ends[index - 1] + self.header_len] ^= 0x40
        return bytes(wire)


def _chunks(wire: bytes, cuts):
    edges = [0, *sorted(cuts), len(wire)]
    return [wire[a:b] for a, b in zip(edges, edges[1:]) if a != b]


def _failure(exc):
    return (
        type(exc).__name__,
        str(exc),
        getattr(exc, "mac", None),
        getattr(exc, "where", None),
        getattr(exc, "context_id", None),
        getattr(exc, "seq", None),
    )


def _endpoint_outcome(reader, wire: bytes, cuts):
    """(records delivered, failure) for one cutting of ``wire``."""
    records = []
    try:
        for chunk in _chunks(wire, cuts):
            reader.feed(chunk)
            for record in reader.read_all():
                if getattr(record, "content_type", None) == CHANGE_CIPHER_SPEC:
                    reader.activate_read()
                records.append(record)
    except (McTLSRecordError, RecordError) as exc:
        return records, _failure(exc)
    return records, None


def _relay_outcome(make_relay, wire: bytes, cuts):
    """Everything one cutting of ``wire`` makes a relay do."""
    with _patched_nonces():  # rebuilds draw nonces; keep them comparable
        relay, processor, observed = make_relay()
        forwarded, events, failure = [], [], None
        try:
            for chunk in _chunks(wire, cuts):
                events.extend(relay.receive_from_client(chunk))
                forwarded.append(relay.data_to_server())
        except TLSError as exc:
            forwarded.append(relay.data_to_server())
            failure = _failure(exc.__cause__)
            events = None  # the failing call's events are never returned
    return b"".join(forwarded), events, observed, processor.seq, failure


def _draw_cuts(data, wire):
    return data.draw(
        st.lists(st.integers(0, len(wire)), max_size=16, unique=True), label="cuts"
    )


# Whole-feed outcomes per (test, stream variant): hypothesis re-enters
# the test body per example, and the baseline never changes.
_BASELINES = {}


def _baseline(key, stream, outcome, wire):
    whole = _BASELINES.get(key)
    if whole is None:
        whole = outcome(wire, ())
        assert outcome(wire, stream.ends) == whole  # one record per call
        _BASELINES[key] = whole
    return whole


def _assert_chunking_invariant(key, data, stream, outcome, eligible):
    """``outcome(wire, cuts)`` must not depend on ``cuts`` — for the
    clean stream and for one tampered at a drawn eligible record.
    Returns ``(clean outcome, tampered outcome, tampered index)``."""
    wire = bytes(stream.wire)
    whole = _baseline(key, stream, outcome, wire)
    assert whole[-1] is None
    assert outcome(wire, _draw_cuts(data, wire)) == whole

    k = data.draw(st.sampled_from(eligible), label="tampered record")
    bad = stream.tampered(k)
    bad_whole = _baseline((key, k), stream, outcome, bad)
    assert bad_whole[-1] is not None
    assert outcome(bad, _draw_cuts(data, bad)) == bad_whole
    return whole, bad_whole, k


# ---- endpoint layers


def _mctls_endpoint(suite, framing, is_client: bool) -> McTLSRecordLayer:
    """Keys for three app contexts, protection not yet activated."""
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(suite)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(SECRET, RC, RS))
    for context_id in CONTEXTS:
        layer.install_context_keys(
            context_id, mk.ckd_context_keys(SECRET, RC, RS, context_id)
        )
    if framing is MCTLS_COMPACT:
        field_keys = mk.derive_field_keys(SECRET, RC, RS, COMPACT_SCHEMA)
        layer.set_framing(MCTLS_COMPACT, (COMPACT_SCHEMA,), {1: field_keys})
    return layer


@functools.lru_cache(maxsize=None)
def _mctls_stream(suite_name: str, framing_name: str, contexts=CONTEXTS) -> _Stream:
    """Default-framed CCS, then app records across ``contexts`` with an
    endpoint-context alert mid-stream, in the negotiated framing."""
    framing = FRAMINGS[framing_name]
    rng = _rng(f"stream-{framing_name}")
    payloads = _random_payloads(rng, max_len=300)
    stream = _Stream(framing.header_len)
    with _patched_nonces():
        client = _mctls_endpoint(SUITES[suite_name], framing, is_client=True)
        stream.add(client.encode(CHANGE_CIPHER_SPEC, b"\x01"))
        client.activate_write()
        for index, payload in enumerate(payloads):
            if index == len(payloads) // 2:
                stream.add(client.encode(ALERT, b"\x01\x00", ENDPOINT_CONTEXT_ID))
            context_id = rng.choice(contexts)
            stream.add(
                client.encode(APPLICATION_DATA, payload, context_id),
                (context_id, payload),
            )
    return stream


def _assert_mctls_endpoint_invariant(data, suite_name, framing_name):
    suite = SUITES[suite_name]
    stream = _mctls_stream(suite_name, framing_name)

    def outcome(wire, cuts):
        server = _mctls_endpoint(suite, FRAMINGS[framing_name], is_client=False)
        return _endpoint_outcome(server, wire, cuts)

    eligible = [i for i, p in enumerate(stream.payloads) if p and p[1]]
    (records, _), (bad_records, bad), k = _assert_chunking_invariant(
        ("mctls", suite_name, framing_name), data, stream, outcome, eligible
    )
    assert [(r.context_id, r.payload) for r in records if r.context_id] == [
        p for p in stream.payloads if p
    ]
    assert bad_records == records[:k]
    assert bad[0] == "MacVerificationError"
    assert bad[2:] == (MAC_WRITERS, "endpoint", stream.payloads[k][0], k - 1)


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mctls_read_burst_matches_read_all(suite_name, data):
    """Reading a stream that arrived as one burst, record by record, or
    in arbitrary chunks delivers the same records and fails at the same
    tampered record with the same attribution."""
    _assert_mctls_endpoint_invariant(data, suite_name, "default")


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compact_read_burst_matches_read_all(suite_name, data):
    """The same property across the default→compact framing switch at
    the ChangeCipherSpec: shorter headers, truncated and per-field MACs."""
    _assert_mctls_endpoint_invariant(data, suite_name, "compact")


@functools.lru_cache(maxsize=None)
def _tls_stream(suite_name: str) -> _Stream:
    payloads = _random_payloads(_rng("tls-stream"), max_len=300)
    stream = _Stream(header_len=5)
    with _patched_nonces():
        writer = _tls_layer(SUITES[suite_name], write=True)
        stream.add(writer.encode(HANDSHAKE, b"leading control"))
        for index, payload in enumerate(payloads):
            if index == len(payloads) // 2:
                stream.add(writer.encode(ALERT, b"\x01\x00"))
            stream.add(writer.encode(APPLICATION_DATA, payload), payload)
    return stream


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tls_read_burst_matches_read_all(suite_name, data):
    suite = SUITES[suite_name]
    stream = _tls_stream(suite_name)

    def outcome(wire, cuts):
        return _endpoint_outcome(_tls_layer(suite, write=False), wire, cuts)

    eligible = [i for i, p in enumerate(stream.payloads) if p]
    (records, _), (bad_records, bad), k = _assert_chunking_invariant(
        ("tls", suite_name), data, stream, outcome, eligible
    )
    assert [p for ct, p in records if ct == APPLICATION_DATA] == [
        p for p in stream.payloads if p is not None
    ]
    assert bad_records == records[:k]
    assert bad[:2] == ("RecordError", "record MAC verification failed")


# ---- the middlebox


@pytest.fixture(scope="module")
def bed() -> TestBed:
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


def _edit(direction: str, context_id: int, payload: bytes) -> bytes:
    """The WRITE middlebox's transformer: rewrites about half the records."""
    return payload + b"!" if len(payload) % 2 else payload


def _relay_factory(bed, suite, framing, permissions):
    """Builds a post-handshake :class:`McTLSMiddlebox` by hand — known
    keys instead of a live handshake, so twin relays can be compared
    byte for byte.  The ChangeCipherSpec that arms the client→server
    direction is left to the stream under test."""

    def make_relay():
        relay = bed.make_relays(Mode.MCTLS, 1)[0]
        observed = []
        relay.transformer = _edit
        relay.observer = lambda direction, cid, payload: observed.append((cid, payload))
        relay._wire_framing = framing
        processor = MiddleboxRecordProcessor(suite, mk.C2S)
        if framing is MCTLS_COMPACT:
            processor.set_framing(framing, (COMPACT_SCHEMA,))
        for context_id, permission in permissions.items():
            if permission is not Permission.NONE:
                processor.install(
                    context_id,
                    permission,
                    mk.ckd_context_keys(SECRET, RC, RS, context_id),
                )
        if framing is MCTLS_COMPACT and permissions.get(1) is Permission.WRITE:
            field_keys = mk.derive_field_keys(SECRET, RC, RS, COMPACT_SCHEMA)
            processor.install_field_keys(1, {0: field_keys[0]})  # "hdr" grant
        relay._proc_c2s = processor
        return relay, processor, observed

    return make_relay


def _mixed_permissions(permission: Permission):
    """``permission`` on context 1, a different readable grant on
    context 2, nothing on context 3."""
    other = Permission.READ if permission is Permission.WRITE else Permission.WRITE
    return {1: permission, 2: other, 3: Permission.NONE}


def _assert_relay_invariant(data, bed, suite_name, framing_name, permission):
    suite = SUITES[suite_name]
    stream = _mctls_stream(suite_name, framing_name)
    permissions = _mixed_permissions(permission)
    make_relay = _relay_factory(bed, suite, FRAMINGS[framing_name], permissions)

    def outcome(wire, cuts):
        return _relay_outcome(make_relay, wire, cuts)

    readable = [
        i for i, p in enumerate(stream.payloads)
        if p and p[1] and permissions[p[0]].can_read
    ]
    whole, bad, k = _assert_chunking_invariant(
        ("relay", suite_name, framing_name, permission), data, stream, outcome, readable
    )

    forwarded, events, observed, seq, _ = whole
    assert seq == len(stream.ends) - 1  # every post-CCS record, readable or not
    visible = [p for p in stream.payloads if p and permissions[p[0]].can_read]
    assert observed == [
        (cid, _edit("c2s", cid, payload) if permissions[cid].can_write else payload)
        for cid, payload in visible
    ]
    assert [(e.context_id, e.data) for e in events] == observed
    assert [e.modified for e in events] == [
        permissions[cid].can_write and len(payload) % 2 == 1 for cid, payload in visible
    ]
    # Records the relay may not rewrite are forwarded verbatim.
    for index, p in enumerate(stream.payloads):
        if p is None or not permissions[p[0]].can_write:
            assert stream.record(index) in forwarded

    context_id = stream.payloads[k][0]
    expected_mac = MAC_WRITERS if permissions[context_id].can_write else MAC_READERS
    bad_forwarded, _, bad_observed, bad_seq, failure = bad
    assert failure[0] == "MacVerificationError"
    assert failure[2:] == (expected_mac, "middlebox", context_id, k - 1)
    assert bad_seq == k  # the tampered record still consumed its sequence number
    assert bad_observed == observed[: len(bad_observed)]


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@pytest.mark.parametrize(
    "permission", [Permission.NONE, Permission.READ, Permission.WRITE],
    ids=lambda p: p.name.lower(),
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_middlebox_burst_matches_sequential(bed, suite_name, permission, data):
    """Forwarded bytes, events, observed payloads, the post-stream
    sequence number and the failure at a tampered record are identical
    whether ``receive_from_client`` gets the flight as one burst, record
    by record, or in arbitrary chunks."""
    _assert_relay_invariant(data, bed, suite_name, "default", permission)


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@pytest.mark.parametrize(
    "permission", [Permission.NONE, Permission.READ, Permission.WRITE],
    ids=lambda p: p.name.lower(),
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compact_middlebox_burst_matches_sequential(bed, suite_name, permission, data):
    """The same property under compact geometry — 4-byte headers, 8-byte
    MAC slots, field-MAC trailers forwarded or recomputed — with the
    relay re-selecting the framing at the in-stream ChangeCipherSpec."""
    _assert_relay_invariant(data, bed, suite_name, "compact", permission)


# ---- fixed mid-burst tamper examples (no hypothesis: exact positions)


def _boundary_straddling_cuts(stream: _Stream):
    return sorted({e + d for e in stream.ends for d in (-1, 1)} - {len(stream.wire) + 1})


def _endpoint_tamper_case(framing_name: str):
    """Flip a byte of record 5 of 8: every cutting yields exactly the
    records before it, then the same writer-MAC failure."""
    stream = _mctls_stream("shactr", framing_name, contexts=(1,))
    app = [i for i, p in enumerate(stream.payloads) if p and p[1]]
    k = app[5]
    bad = stream.tampered(k)
    outcomes = [
        _endpoint_outcome(
            _mctls_endpoint(SUITES["shactr"], FRAMINGS[framing_name], False), bad, cuts
        )
        for cuts in ((), stream.ends, _boundary_straddling_cuts(stream))
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    records, failure = outcomes[0]
    assert len(records) == k
    assert failure[0] == "MacVerificationError"
    assert failure[2:] == (MAC_WRITERS, "endpoint", 1, k - 1)


def test_endpoint_tamper_mid_burst_fails_at_same_record():
    _endpoint_tamper_case("default")


def test_compact_endpoint_tamper_mid_burst_fails_at_same_record():
    _endpoint_tamper_case("compact")


def test_middlebox_tamper_mid_burst_fails_at_same_record(bed):
    """Same property at a READ middlebox: the records before the bad one
    are observed and forwarded, then the reader MAC trips."""
    stream = _mctls_stream("shactr", "default", contexts=(1,))
    app = [i for i, p in enumerate(stream.payloads) if p and p[1]]
    k = app[5]
    bad = stream.tampered(k)
    make_relay = _relay_factory(
        bed, SUITES["shactr"], MCTLS_DEFAULT, {1: Permission.READ}
    )
    outcomes = [
        _relay_outcome(make_relay, bad, cuts)
        for cuts in ((), stream.ends, _boundary_straddling_cuts(stream))
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    forwarded, _, observed, seq, failure = outcomes[0]
    assert forwarded == bad[: stream.ends[k - 1]]
    assert observed == [p for p in stream.payloads[:k] if p]
    assert seq == k
    assert failure[0] == "MacVerificationError"
    assert failure[2:] == (MAC_READERS, "middlebox", 1, k - 1)


# -- full-stack event-stream equivalence --------------------------------------


def _app_events(events):
    return [
        event
        for event in events
        if type(event).__name__.endswith("ApplicationData")
    ]


def _build_chain(bed, mode):
    topology = (
        bed.topology(1) if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else None
    )
    client, server = bed.make_endpoints(mode, topology=topology)
    relays = bed.make_relays(mode, 1)
    chain = Chain(client, relays, server)
    client.start_handshake()
    chain.pump()
    assert client.handshake_complete
    # Plain TCP has no handshake bytes: the server side completes on
    # its first received data, not during the pump above.
    if mode is not Mode.NO_ENCRYPT:
        assert server.handshake_complete
    return client, relays, server, chain


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_burst_flight_delivers_same_stream_as_sequential(bed, mode):
    """One live session per stack: N payloads sent record by record,
    then N more queued and pumped as ONE multi-record flight through the
    relay.  Both phases must deliver the same application byte stream
    (framed stacks also preserve per-record boundaries)."""
    client, relays, server, chain = _build_chain(bed, mode)
    server_events = []
    chain.on_server_event = server_events.append
    ctx = 1 if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else 0
    payloads = _random_payloads(_rng(f"stack-{mode.value}"), count=6, max_len=200)
    payloads = [p for p in payloads if p]  # empty app data is a no-op on plain TCP

    sequential = []
    for payload in payloads:
        client.send_application_data(payload, context_id=ctx)
        chain.pump()
        sequential.extend(e.data for e in _app_events(server_events))
        server_events.clear()

    for payload in payloads:
        client.send_application_data(payload, context_id=ctx)
    chain.pump()
    burst = [e.data for e in _app_events(server_events)]
    server_events.clear()

    assert b"".join(burst) == b"".join(sequential) == b"".join(payloads)
    if mode is not Mode.NO_ENCRYPT:  # record-framed stacks keep boundaries
        assert burst == sequential == payloads


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_views_drain_equivalent_to_joined_drain(bed, mode):
    """`data_to_send_views()` drains the same queue as `data_to_send()`:
    injecting the joined views into the relay delivers the identical
    stream, and the joined drain afterwards is empty."""
    client, relays, server, chain = _build_chain(bed, mode)
    server_events = []
    chain.on_server_event = server_events.append
    ctx = 1 if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else 0
    payloads = [p for p in _random_payloads(_rng(f"views-{mode.value}"), 6, 200) if p]

    for payload in payloads:
        client.send_application_data(payload, context_id=ctx)
    views = client.data_to_send_views()
    assert client.data_to_send() == b""  # the views drained the queue
    relays[0].receive_from_client(b"".join(views))
    chain.pump()
    delivered = [e.data for e in _app_events(server_events)]
    assert b"".join(delivered) == b"".join(payloads)


# -- keystream pool accounting ------------------------------------------------


class TestKeystreamPool:
    def test_hit_miss_accounting_via_stream_for(self):
        cipher = ShaCtrCipher(b"K" * 16)
        nonce = b"pool-nonce-00001"
        hits0, misses0 = KEYSTREAM_POOL.hits, KEYSTREAM_POOL.misses
        first = cipher.stream_for(nonce, 100)
        assert KEYSTREAM_POOL.misses == misses0 + 1
        second = cipher.stream_for(nonce, 100)
        assert KEYSTREAM_POOL.hits == hits0 + 1
        assert first == second

    def test_bounded_fifo_evicts_oldest(self):
        pool = KeystreamPool(max_entries=2, cacheable_bytes=64)
        pool.put(("k", b"n1", 1), b"s1", 32)
        pool.put(("k", b"n2", 1), b"s2", 32)
        assert len(pool) == 2 and pool.evictions == 0
        pool.put(("k", b"n3", 1), b"s3", 32)
        assert len(pool) == 2 and pool.evictions == 1
        assert pool.get(("k", b"n1", 1)) is None  # the oldest went
        assert pool.get(("k", b"n3", 1)) == b"s3"
        assert (pool.hits, pool.misses) == (1, 1)
        pool.put(("k", b"huge", 9), b"s", 65)  # over the admission cutoff
        assert len(pool) == 2  # not admitted, nothing evicted
        assert pool.evictions == 1

    def test_publish_to_instruments_is_delta_based(self):
        pool = KeystreamPool(max_entries=1, cacheable_bytes=64)
        pool.hits, pool.misses = 3, 2
        pool.put(("k", b"n1", 1), b"s", 32)
        pool.put(("k", b"n2", 1), b"s", 32)  # evicts n1
        instruments = Instruments()
        pool.publish_to(instruments)
        snap = instruments.snapshot()
        assert snap["keystream.pool.hit"] == 3
        assert snap["keystream.pool.miss"] == 2
        assert snap["keystream.pool.evict"] == 1
        pool.hits += 1
        pool.publish_to(instruments)
        snap = instruments.snapshot()
        assert snap["keystream.pool.hit"] == 4  # only the delta was added
        assert snap["keystream.pool.miss"] == 2


# -- RecordBuffer reclamation regression --------------------------------------


class TestRecordBufferSnapshot:
    def test_interleaved_feed_and_read_at_fragment_boundaries(self):
        """Feed a protected mcTLS stream in chunks that straddle record
        boundaries, reading between feeds — every record must come out
        intact, whichever side of a fragment boundary the feed stops
        on."""
        suite = SUITES["shactr"]
        payloads = _random_payloads(_rng("recbuf"), count=10, max_len=300)
        with _patched_nonces():
            writer = _mctls_layer(suite, True)
            wires = [writer.encode(APPLICATION_DATA, p, 1) for p in payloads]
        stream = b"".join(wires)
        boundaries = []
        offset = 0
        for wire in wires:
            offset += len(wire)
            boundaries.append(offset)
        # Chunk edges at, just before, and just after record boundaries,
        # plus mid-fragment cuts.
        cuts = sorted(
            {0, len(stream)}
            | {b for b in boundaries}
            | {max(0, b - 1) for b in boundaries}
            | {min(len(stream), b + 1) for b in boundaries}
            | {b - len(w) // 2 for b, w in zip(boundaries, wires) if len(w) > 1}
        )
        reader = _mctls_layer(suite, False)
        got = []
        for start, end in zip(cuts, cuts[1:]):
            reader.feed(stream[start:end])
            got.extend(record.payload for record in reader.read_all())
        assert got == payloads
