"""Security-property tests for mcTLS access control (§3.4).

The paper claims three properties:

1. endpoints can limit read access to writers and readers only;
2. endpoints can detect legal and illegal modifications;
3. writers can detect illegal modifications.

Plus R4 (both endpoints must consent to a middlebox's access) and the
documented limitation that readers cannot police other readers.
"""

import pytest

from repro.framing import MCTLS_DEFAULT
from repro.mctls import ContextDefinition, Permission
from repro.mctls import keys as mk
from repro.mctls import record as mrec
from repro.mctls.contexts import restrict_topology
from repro.mctls.record import MiddleboxRecordProcessor, McTLSRecordError
from repro.mctls.session import McTLSApplicationData
from repro.tls.connection import TLSError
from repro.tls.record import APPLICATION_DATA

from tests.mctls_helpers import build_session


def ctx(ctx_id, perms):
    return ContextDefinition(ctx_id, f"ctx{ctx_id}", perms)


def app_events(events):
    return [e for e in events if isinstance(e, McTLSApplicationData)]


class TestReadAccess:
    """Property 1: read access limited to readers and writers."""

    def test_no_access_middlebox_sees_nothing(self, ca, server_identity, mbox_identity):
        seen = []
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {})],
            observer=lambda d, c, data: seen.append(data),
        )
        client.send_application_data(b"private", context_id=1)
        events = chain.pump()
        # Endpoint got the data; the middlebox observed nothing.
        assert app_events(events)[0].data == b"private"
        assert seen == []
        assert mboxes[0].permissions[1] is Permission.NONE

    def test_plaintext_never_on_wire_without_access(
        self, ca, server_identity, mbox_identity
    ):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {})]
        )
        client.send_application_data(b"very-secret-payload", context_id=1)
        wire = client.data_to_send()
        assert b"very-secret-payload" not in wire
        # Push it along manually so the chain stays consistent.
        mboxes[0].receive_from_client(wire)
        forwarded = mboxes[0].data_to_server()
        assert b"very-secret-payload" not in forwarded
        server.receive_data(forwarded)

    def test_reader_sees_but_cannot_modify(self, ca, server_identity, mbox_identity):
        """A read-only middlebox that tries to rewrite a record corrupts
        the session (it cannot forge the writer MAC)."""
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {1: Permission.READ})],
            transformer=lambda d, c, data: data.replace(b"cat", b"dog"),
        )
        # The middlebox class itself refuses: transformer only runs for
        # writable contexts. Sending read-only data passes through intact.
        client.send_application_data(b"a cat", context_id=1)
        events = chain.pump()
        assert app_events(events)[0].data == b"a cat"
        assert app_events(events)[0].legally_modified is False


class TestModificationDetection:
    """Properties 2 and 3."""

    def test_legal_modification_flagged_to_endpoint(
        self, ca, server_identity, mbox_identity
    ):
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {1: Permission.WRITE})],
            transformer=lambda d, c, data: data.upper(),
        )
        client.send_application_data(b"modify me", context_id=1)
        events = chain.pump()
        event = app_events(events)[0]
        assert event.data == b"MODIFY ME"
        assert event.legally_modified is True

    def test_unmodified_data_not_flagged(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {1: Permission.WRITE})]
        )
        client.send_application_data(b"unchanged", context_id=1)
        events = chain.pump()
        assert app_events(events)[0].legally_modified is False

    def test_third_party_tamper_detected_at_endpoint(
        self, ca, server_identity, mbox_identity
    ):
        """An attacker between middlebox and server flips ciphertext bits."""
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {1: Permission.READ})]
        )
        client.send_application_data(b"integrity", context_id=1)
        mboxes[0].receive_from_client(client.data_to_send())
        record = bytearray(mboxes[0].data_to_server())
        record[-1] ^= 0x01
        with pytest.raises(TLSError):
            server.receive_data(bytes(record))

    def test_third_party_tamper_detected_at_reader_middlebox(
        self, ca, server_identity, mbox_identity
    ):
        """A reader verifies the readers MAC and catches tampering."""
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {1: Permission.READ})]
        )
        client.send_application_data(b"integrity", context_id=1)
        record = bytearray(client.data_to_send())
        record[-1] ^= 0x01
        with pytest.raises(TLSError, match="relay failure"):
            mboxes[0].receive_from_client(bytes(record))

    def test_record_deletion_detected(self, ca, server_identity, mbox_identity):
        """Dropping an entire record desynchronises the global sequence
        numbers and breaks the next record's MACs."""
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {})]
        )
        client.send_application_data(b"first", context_id=1)
        client.data_to_send()  # attacker drops the record entirely
        client.send_application_data(b"second", context_id=1)
        with pytest.raises(TLSError):
            mboxes[0].receive_from_client(client.data_to_send())
            server.receive_data(mboxes[0].data_to_server())

    def test_record_reorder_detected(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {})]
        )
        client.send_application_data(b"first", context_id=1)
        first = client.data_to_send()
        client.send_application_data(b"second", context_id=1)
        second = client.data_to_send()
        # The no-access middlebox forwards opaquely; the endpoint detects.
        mboxes[0].receive_from_client(second + first)
        with pytest.raises(TLSError):
            server.receive_data(mboxes[0].data_to_server())


class TestContributoryAccess:
    """R4: both endpoints must consent before a middlebox gains access."""

    def test_server_denial_blocks_access(self, ca, server_identity, mbox_identity):
        seen = []
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {1: Permission.READ}), ctx(2, {1: Permission.READ})],
            topology_policy=lambda t: restrict_topology(t, {1: {2: Permission.NONE}}),
            observer=lambda d, c, data: seen.append((c, data)),
        )
        assert mboxes[0].permissions[1] is Permission.READ
        assert mboxes[0].permissions[2] is Permission.NONE
        client.send_application_data(b"allowed", context_id=1)
        client.send_application_data(b"denied", context_id=2)
        events = chain.pump()
        assert {e.data for e in app_events(events)} == {b"allowed", b"denied"}
        assert seen == [(1, b"allowed")]

    def test_server_write_downgrade(self, ca, server_identity, mbox_identity):
        """Client grants WRITE, server grants READ → effective READ."""
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {1: Permission.WRITE})],
            topology_policy=lambda t: restrict_topology(t, {1: {1: Permission.READ}}),
            transformer=lambda d, c, data: b"HACKED",
        )
        assert mboxes[0].permissions[1] is Permission.READ
        client.send_application_data(b"read only", context_id=1)
        events = chain.pump()
        assert app_events(events)[0].data == b"read only"


class TestReaderLimitation:
    """The documented gap: readers cannot police other readers (§3.4)."""

    def test_reader_forged_writer_mac_not_detected_by_reader(self):
        """Built directly on record processors: a rogue reader rewrites a
        record using the reader keys; a second reader accepts it, but an
        endpoint (checking the writer MAC) rejects it."""
        from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256 as SUITE

        keys = mk.combine_context_keys(b"a" * 32, b"b" * 32, b"c" * 32, b"d" * 32, b"r" * 32, b"s" * 32)

        sender = mrec.McTLSRecordLayer(is_client=True)
        sender.set_suite(SUITE)
        sender.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"r" * 32, b"s" * 32))
        sender.install_context_keys(1, keys)
        sender.activate_write()
        wire = sender.encode(APPLICATION_DATA, b"original", context_id=1)

        # Rogue reader: decrypt with reader keys, rewrite the payload and
        # regenerate ONLY the readers MAC (it has no writer key).
        rogue = MiddleboxRecordProcessor(SUITE, mk.C2S)
        rogue.install(1, Permission.READ, keys)
        rogue.activate()
        _, ctx_id, fragment, _ = next(mrec.split_records(bytearray(wire)))
        opened = rogue.open_record(APPLICATION_DATA, ctx_id, fragment)
        new_payload = b"FORGERY!"
        covered = mrec.mac_input(opened.seq, APPLICATION_DATA, 1, new_payload)
        import hashlib
        import hmac

        reader_mac = hmac.new(keys.reader_mac(mk.C2S), covered, hashlib.sha256).digest()
        # Keep the old endpoint+writer MACs (now stale) and forge readers'.
        forged_plain = new_payload + opened.endpoint_mac + b"\x00" * 32 + reader_mac
        forged_fragment = SUITE.new_cipher(keys.enc(mk.C2S)).encrypt(forged_plain)
        forged_record = (
            MCTLS_DEFAULT.pack_header(APPLICATION_DATA, 1, len(forged_fragment)) + forged_fragment
        )

        # A second reader accepts the forgery (the limitation)...
        second_reader = MiddleboxRecordProcessor(SUITE, mk.C2S)
        second_reader.install(1, Permission.READ, keys)
        second_reader.activate()
        _, _, fragment2, _ = next(mrec.split_records(bytearray(forged_record)))
        opened2 = second_reader.open_record(APPLICATION_DATA, 1, fragment2)
        assert opened2.payload == b"FORGERY!"  # undetected, as the paper admits

        # ...but the endpoint catches it via the writer MAC.
        receiver = mrec.McTLSRecordLayer(is_client=False)
        receiver.set_suite(SUITE)
        receiver.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"r" * 32, b"s" * 32))
        receiver.install_context_keys(1, keys)
        receiver.activate_read()
        receiver.feed(forged_record)
        with pytest.raises(McTLSRecordError, match="writer MAC"):
            receiver.read_record()
