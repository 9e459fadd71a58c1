"""The one record engine and the failures it owns.

* **Fragment bound** — a sender fragments at the largest payload whose
  protected fragment fits ``MAX_FRAGMENT``, whatever the trailer: a
  compact-framed context with 249–255 field MACs round-trips a 16 KiB
  payload under every registered suite, and the first record is filled to
  within one cipher block of the bound.  A middlebox rewrite that would
  overflow it is refused at the middlebox.
* **Sealing key material under a failing cipher** — the endpoint's
  ``MiddleboxKeyMaterial`` (DHE and RSA transport) and the resumed
  client's re-sealed context keys end the handshake typed and closed,
  with one fatal alert, like any other handshake failure.
* **One middlebox state builder** — rebuilding a record in a context the
  middlebox holds a write grant but no keys for is a record error.
"""

from __future__ import annotations

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.framing import MAX_FRAGMENT, MAX_PLAINTEXT, MCTLS_COMPACT
from repro.mctls import keys as mk
from repro.mctls.contexts import FieldDef, FieldSchema, Permission
from repro.mctls.record import (
    McTLSRecordError,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    split_records,
)
from repro.mctls.session import KeyTransport
from repro.tls.ciphersuites import SUITE_DHE_RSA_AES128_CBC_SHA256, SUITES, CipherError
from repro.tls.connection import TLSError
from repro.tls.record import ALERT, APPLICATION_DATA, RecordError, RecordLayer
from repro.transport import Chain

SECRET, RC, RS = b"S" * 48, b"c" * 32, b"s" * 32
BLOCK = 16  # the largest cipher expansion step (CBC padding)


def _schema(n_fields: int) -> FieldSchema:
    return FieldSchema(
        context_id=1,
        fields=tuple(FieldDef(f"f{i}", 64 * i, 64 * i + 64) for i in range(n_fields)),
    )


def _compact_endpoint(suite, schema, is_client: bool) -> McTLSRecordLayer:
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(suite)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(SECRET, RC, RS))
    layer.install_context_keys(1, mk.ckd_context_keys(SECRET, RC, RS, 1))
    field_keys = mk.derive_field_keys(SECRET, RC, RS, schema)
    layer.set_framing(MCTLS_COMPACT, (schema,), {1: field_keys})
    layer.activate_write()
    layer.activate_read()
    return layer


# -- the fragment bound ---------------------------------------------------------


@pytest.mark.parametrize("suite_id", sorted(SUITES), ids=lambda s: f"0x{s:04x}")
@pytest.mark.parametrize("n_fields", range(249, 256))
def test_widest_field_trailers_fragment_within_the_bound(suite_id, n_fields):
    suite, schema = SUITES[suite_id], _schema(n_fields)
    payload = bytes(range(256)) * 64  # 16 KiB
    wire = _compact_endpoint(suite, schema, is_client=True).encode(
        APPLICATION_DATA, payload, 1
    )
    fragments = [len(f) for _, _, f, _ in split_records(bytearray(wire), MCTLS_COMPACT)]
    assert max(fragments) <= MAX_FRAGMENT
    if len(fragments) > 1:
        assert fragments[0] > MAX_FRAGMENT - BLOCK  # as full as the bound allows
    reader = _compact_endpoint(suite, schema, is_client=False)
    reader.feed(wire)
    assert b"".join(r.payload for r in reader.read_all()) == payload


def _opened_at_middlebox(permission, keys, payload: bytes):
    """A client record in context 1, opened by a c2s middlebox processor."""
    suite = SUITES[0xFF67]
    writer = McTLSRecordLayer(is_client=True)
    writer.set_suite(suite)
    writer.set_endpoint_keys(mk.derive_endpoint_keys(SECRET, RC, RS))
    writer.install_context_keys(1, mk.ckd_context_keys(SECRET, RC, RS, 1))
    writer.activate_write()
    proc = MiddleboxRecordProcessor(suite, mk.C2S)
    proc.install(1, permission, keys)
    proc.activate()
    wire = writer.encode(APPLICATION_DATA, payload, 1)
    content_type, context_id, fragment, _ = next(split_records(bytearray(wire)))
    return proc, proc.open_record(content_type, context_id, fragment)


def test_middlebox_refuses_a_rewrite_past_the_bound():
    keys = mk.ckd_context_keys(SECRET, RC, RS, 1)
    proc, opened = _opened_at_middlebox(Permission.WRITE, keys, bytes(MAX_PLAINTEXT))
    with pytest.raises(McTLSRecordError, match="too long"):
        proc.rebuild_record(opened, bytes(MAX_FRAGMENT))


def test_one_error_family():
    assert issubclass(McTLSRecordLayer, RecordLayer)
    assert issubclass(McTLSRecordError, RecordError)


# -- sealing key material under a failing cipher ----------------------------------


@pytest.fixture
def failing_encrypt(monkeypatch):
    """Once ``failing_encrypt["on"]`` is set, every 0x0067 cipher's
    ``encrypt`` raises, as a failing libcrypto would."""
    switch = {"on": False}
    cls = SUITE_DHE_RSA_AES128_CBC_SHA256.cipher_factory
    real = cls.encrypt

    def encrypt(cipher, data):
        if switch["on"]:
            raise CipherError("stub: encrypt failed")
        return real(cipher, data)

    monkeypatch.setattr(cls, "encrypt", encrypt)
    return switch


def _cbc_bed(**options) -> TestBed:
    return TestBed(
        key_bits=512,
        dh_group=GROUP_TEST_512,
        suite=SUITE_DHE_RSA_AES128_CBC_SHA256,
        **options,
    )


def _chain_parts(bed):
    client, server = bed.make_endpoints(Mode.MCTLS, topology=bed.topology(1))
    return client, bed.make_relays(Mode.MCTLS, 1)[0], server


def _server_flight(client, relay, server) -> bytes:
    """Start a handshake; the server's first flight as the client gets it."""
    client.start_handshake()
    relay.receive_from_client(client.data_to_send())
    server.receive_data(relay.data_to_server())
    relay.receive_from_server(server.data_to_send())
    return relay.data_to_client()


def _fails_closed(client, wire: bytes) -> None:
    with pytest.raises(TLSError) as caught:
        client.receive_data(wire)
    assert isinstance(caught.value.__cause__, CipherError)
    assert client.closed
    records = list(split_records(bytearray(client.data_to_send())))
    alerts = [bytes(fragment) for content_type, _, fragment, _ in records if content_type == ALERT]
    assert alerts == [bytes([2, 40])]  # one fatal handshake_failure, sent last
    assert records[-1][0] == ALERT
    assert client.receive_data(wire) == []


@pytest.mark.parametrize("transport", [KeyTransport.DHE, KeyTransport.RSA], ids=["dhe", "rsa"])
def test_failing_cipher_sealing_key_material_fails_the_handshake(failing_encrypt, transport):
    client, relay, server = _chain_parts(_cbc_bed(key_transport=transport))
    wire = _server_flight(client, relay, server)  # ... ServerHelloDone
    failing_encrypt["on"] = True  # the client seals its key material next
    _fails_closed(client, wire)


def test_failing_cipher_resealing_resumed_context_keys_fails_the_handshake(failing_encrypt):
    bed = _cbc_bed()
    bed.enable_resumption()
    client, relay, server = _chain_parts(bed)
    client.start_handshake()
    Chain(client, [relay], server).pump()
    assert client.handshake_complete
    client, relay, server = _chain_parts(bed)
    wire = _server_flight(client, relay, server)  # ServerHello, CCS, Finished
    failing_encrypt["on"] = True  # the client re-seals context keys next
    _fails_closed(client, wire)
    assert client.resumed


# -- one middlebox state builder ------------------------------------------------


def test_rebuild_with_a_write_grant_but_no_keys_is_a_record_error():
    proc, opened = _opened_at_middlebox(Permission.WRITE, None, b"no keys here")
    assert opened.payload is None
    with pytest.raises(McTLSRecordError, match="lacks write permission"):
        proc.rebuild_record(opened, b"rewritten")
