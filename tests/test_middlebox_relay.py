"""Tests for McTLSMiddlebox relay internals: ordering, alerts, chains."""

from dataclasses import replace

import pytest

from repro.core import Instruments
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import (
    Mode,
    TestBed,
    build_cell,
    drive_handshake,
    fresh_resumption,
)
from repro.mctls import ContextDefinition, Permission
from repro.mctls import messages as mm
from repro.mctls.session import McTLSApplicationData
from repro.tls.connection import AlertReceived, ConnectionClosed, TLSError

from tests.mctls_helpers import build_session


def ctx(ctx_id, perms=None):
    return ContextDefinition(ctx_id, f"ctx{ctx_id}", perms or {})


def app_events(events):
    return [e for e in events if isinstance(e, McTLSApplicationData)]


class TestDataPlumbing:
    def test_many_records_in_order(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1, {1: Permission.READ})]
        )
        for i in range(50):
            client.send_application_data(f"msg-{i:02d}".encode(), context_id=1)
        events = chain.pump()
        received = [e.data for e in app_events(events)]
        assert received == [f"msg-{i:02d}".encode() for i in range(50)]

    def test_large_payload_through_writer(self, ca, server_identity, mbox_identity):
        """Multi-record payloads survive a transforming writer."""
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {1: Permission.WRITE})],
            transformer=lambda d, c, data: data.replace(b"a", b"b"),
        )
        payload = b"a" * 40_000  # 3 records
        client.send_application_data(payload, context_id=1)
        events = chain.pump()
        received = b"".join(e.data for e in app_events(events))
        assert received == b"b" * 40_000
        assert all(e.legally_modified for e in app_events(events))

    def test_bidirectional_interleaving(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1), ctx(2)]
        )
        client.send_application_data(b"up-1", context_id=1)
        server.send_application_data(b"down-1", context_id=2)
        client.send_application_data(b"up-2", context_id=2)
        server.send_application_data(b"down-2", context_id=1)
        events = chain.pump()
        datas = {e.data for e in app_events(events)}
        assert datas == {b"up-1", b"up-2", b"down-1", b"down-2"}

    def test_transformer_exception_propagates(self, ca, server_identity, mbox_identity):
        def bad_transformer(d, c, data):
            raise ValueError("middlebox application bug")

        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [ctx(1, {1: Permission.WRITE})],
            transformer=bad_transformer,
        )
        client.send_application_data(b"boom", context_id=1)
        with pytest.raises(ValueError):
            chain.pump()


class TestChainsOfMiddleboxes:
    def test_two_writers_compose(self, ca, server_identity, mbox_identities):
        """Both middleboxes transform in path order."""
        from repro.crypto.dh import GROUP_TEST_512
        from repro.mctls import McTLSClient, McTLSMiddlebox, McTLSServer, MiddleboxInfo, SessionTopology
        from repro.tls.connection import TLSConfig
        from repro.transport import Chain

        ids = mbox_identities[:2]
        topo = SessionTopology(
            middleboxes=[MiddleboxInfo(i + 1, ident.name) for i, ident in enumerate(ids)],
            contexts=[ctx(1, {1: Permission.WRITE, 2: Permission.WRITE})],
        )
        client = McTLSClient(
            TLSConfig(trusted_roots=[ca.certificate], server_name=server_identity.name,
                      dh_group=GROUP_TEST_512),
            topology=topo,
        )
        server = McTLSServer(
            TLSConfig(identity=server_identity, trusted_roots=[ca.certificate],
                      dh_group=GROUP_TEST_512),
        )
        m1 = McTLSMiddlebox(ids[0].name, TLSConfig(identity=ids[0], trusted_roots=[ca.certificate]),
                            transformer=lambda d, c, data: data + b"+m1")
        m2 = McTLSMiddlebox(ids[1].name, TLSConfig(identity=ids[1], trusted_roots=[ca.certificate]),
                            transformer=lambda d, c, data: data + b"+m2")
        chain = Chain(client, [m1, m2], server)
        client.start_handshake()
        chain.pump()
        client.send_application_data(b"base", context_id=1)
        events = chain.pump()
        assert app_events(events)[0].data == b"base+m1+m2"
        # And the reverse direction composes the other way.
        server.send_application_data(b"resp", context_id=1)
        events = chain.pump()
        assert app_events(events)[0].data == b"resp+m2+m1"

    def test_mixed_permissions_along_path(self, ca, server_identity, mbox_identities):
        """Reader + no-access middleboxes coexist on one path."""
        from repro.crypto.dh import GROUP_TEST_512
        from repro.mctls import McTLSClient, McTLSMiddlebox, McTLSServer, MiddleboxInfo, SessionTopology
        from repro.tls.connection import TLSConfig
        from repro.transport import Chain

        ids = mbox_identities[:2]
        topo = SessionTopology(
            middleboxes=[MiddleboxInfo(i + 1, ident.name) for i, ident in enumerate(ids)],
            contexts=[ctx(1, {1: Permission.READ})],  # m2 gets nothing
        )
        seen1, seen2 = [], []
        client = McTLSClient(
            TLSConfig(trusted_roots=[ca.certificate], server_name=server_identity.name,
                      dh_group=GROUP_TEST_512),
            topology=topo,
        )
        server = McTLSServer(
            TLSConfig(identity=server_identity, trusted_roots=[ca.certificate],
                      dh_group=GROUP_TEST_512),
        )
        m1 = McTLSMiddlebox(ids[0].name, TLSConfig(identity=ids[0], trusted_roots=[ca.certificate]),
                            observer=lambda d, c, data: seen1.append(data))
        m2 = McTLSMiddlebox(ids[1].name, TLSConfig(identity=ids[1], trusted_roots=[ca.certificate]),
                            observer=lambda d, c, data: seen2.append(data))
        chain = Chain(client, [m1, m2], server)
        client.start_handshake()
        chain.pump()
        client.send_application_data(b"peek", context_id=1)
        events = chain.pump()
        assert app_events(events)[0].data == b"peek"
        assert seen1 == [b"peek"]
        assert seen2 == []


class TestAlertsAndClose:
    def test_close_notify_traverses_middlebox(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1)]
        )
        client.close()
        events = chain.pump()
        assert any(isinstance(e, ConnectionClosed) for e in events)
        assert any(
            isinstance(e, AlertReceived) and e.description == 0 for e in events
        )
        assert server.closed

    def test_send_after_close_rejected(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1)]
        )
        client.close()
        chain.pump()
        with pytest.raises(TLSError):
            client.send_application_data(b"late", context_id=1)

    def test_closed_middlebox_stops_relaying(self, ca, server_identity, mbox_identity):
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], [ctx(1)]
        )
        mboxes[0].closed = True
        client.send_application_data(b"dropped", context_id=1)
        events = chain.pump()
        assert app_events(events) == []


# -- key blocks of the wrong length -------------------------------------------


@pytest.fixture(scope="module")
def small_bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


class TestShortKeyBlock:
    """A full key block one byte short — CKD, resumed and delegated key
    material alike — closes the middlebox through its relay-failure path:
    one ``TLSError``, ``closed``, and one ``errors.fatal``."""

    @pytest.mark.parametrize(
        "mode, resumed",
        [(Mode.MCTLS_CKD, False), (Mode.MCTLS, True), (Mode.MDTLS, False)],
        ids=["ckd", "resumed", "delegated"],
    )
    def test_short_reader_block_is_a_relay_failure(
        self, small_bed, monkeypatch, mode, resumed
    ):
        encode = mm.encode_key_shares

        def short_reader_blocks(shares, *args):
            cut = [replace(s, reader_material=s.reader_material[:-1]) for s in shares]
            return encode(cut, *args)

        with fresh_resumption(small_bed):
            if resumed:
                drive_handshake(*build_cell(small_bed, mode))
            client, [mbox], server = build_cell(small_bed, mode)
            mbox.instruments = Instruments()
            monkeypatch.setattr(mm, "encode_key_shares", short_reader_blocks)
            with pytest.raises(TLSError, match="middlebox relay failure"):
                drive_handshake(client, [mbox], server)
        assert mbox.resumed is resumed
        assert mbox.closed
        assert mbox.instruments.snapshot()["errors.fatal"] == 1
