"""Adversarial handshake tests: active attacks a correct mcTLS session
must detect (and the one DoS-level gap the paper concedes)."""

import pytest

from repro.baselines.e2e import BlindRelay
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.framing import MCTLS_DEFAULT, TLS_DEFAULT
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.mctls import messages as mm
from repro.mctls import record as mrec
from repro.mctls.session import McTLSApplicationData
from repro.tls import TLSClient, TLSServer
from repro.tls import keyschedule as ks
from repro.tls import messages as tls_msgs
from repro.tls.connection import ALERT_DECRYPT_ERROR, TLSConfig, TLSError
from repro.tls.record import HANDSHAKE
from repro.transport import Chain

from tests.mctls_helpers import build_session


def ctx(ctx_id, perms=None):
    return ContextDefinition(ctx_id, f"ctx{ctx_id}", perms or {})


def records_of(wire: bytes, framing=None):
    return list(mrec.split_records(bytearray(wire), framing))


class _TamperingRelay:
    """A malicious on-path attacker rewriting chosen handshake messages."""

    def __init__(self, inner, rewrite, framing=MCTLS_DEFAULT):
        self.inner = inner
        self.rewrite = rewrite  # fn(direction, msg_type, body) -> body | None
        self.framing = framing  # of the records it splits and rebuilds

    def _filter(self, direction: str, data: bytes) -> bytes:
        out = bytearray()
        for content_type, context_id, fragment, raw in records_of(data, self.framing):
            if content_type != HANDSHAKE:
                out += raw
                continue
            buf = tls_msgs.HandshakeBuffer()
            buf.feed(fragment)
            rebuilt = bytearray()
            while True:
                message = buf.next_message()
                if message is None:
                    break
                msg_type, body, msg_raw = message
                new_body = self.rewrite(direction, msg_type, body)
                if new_body is None:
                    rebuilt += msg_raw
                else:
                    rebuilt += tls_msgs.frame(msg_type, new_body)
            out += self.framing.pack_header(HANDSHAKE, context_id, len(rebuilt)) + bytes(
                rebuilt
            )
        return bytes(out)

    def receive_from_client(self, data):
        return self.inner.receive_from_client(self._filter("c2s", data))

    def receive_from_server(self, data):
        return self.inner.receive_from_server(self._filter("s2c", data))

    def data_to_client(self):
        return self._filter("s2c-out", self.inner.data_to_client())

    def data_to_server(self):
        return self.inner.data_to_server()


def build_attacked_session(ca, server_identity, mbox_identity, rewrite):
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=[ctx(1, {1: Permission.READ})],
    )
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
    mbox = McTLSMiddlebox(
        mbox_identity.name,
        TLSConfig(
            identity=mbox_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
    )
    chain = Chain(client, [_TamperingRelay(mbox, rewrite)], server)
    client.start_handshake()
    return client, server, chain


def build_attacked_tls_session(ca, server_identity, mbox_identity, rewrite):
    """The same attacker on a TLS session through a blind relay."""
    client = TLSClient(
        TLSConfig(
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            dh_group=GROUP_TEST_512,
        )
    )
    server = TLSServer(
        TLSConfig(
            identity=server_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        )
    )
    chain = Chain(client, [_TamperingRelay(BlindRelay(), rewrite, TLS_DEFAULT)], server)
    client.start_handshake()
    return client, server, chain


class TestActiveAttacks:
    @pytest.mark.parametrize(
        "build",
        [build_attacked_session, build_attacked_tls_session],
        ids=["McTLSClient", "TLSClient"],
    )
    def test_server_dh_substitution_detected(
        self, ca, server_identity, mbox_identity, build
    ):
        """Rewriting the server's DH public key breaks the SKE signature,
        at the one check both stacks run: a decrypt_error."""

        def rewrite(direction, msg_type, body):
            if direction == "s2c-out" and msg_type == tls_msgs.SERVER_KEY_EXCHANGE:
                kx = tls_msgs.ServerKeyExchange.decode(body)
                evil = GROUP_TEST_512.generate_keypair()
                kx.dh_public = evil.public_bytes
                return kx.encode()
            return None

        client, server, chain = build(ca, server_identity, mbox_identity, rewrite)
        with pytest.raises(TLSError, match="signature") as failure:
            chain.pump()
        assert failure.value.alert == ALERT_DECRYPT_ERROR

    def test_middlebox_random_substitution_detected(
        self, ca, server_identity, mbox_identity
    ):
        """Rewriting the MiddleboxHello random desynchronises transcripts;
        at minimum Finished verification fails."""

        def rewrite(direction, msg_type, body):
            if direction == "s2c-out" and msg_type == tls_msgs.MIDDLEBOX_HELLO:
                hello = mm.MiddleboxHello.decode(body)
                return mm.MiddleboxHello(
                    mbox_id=hello.mbox_id, random=b"\x00" * 32
                ).encode()
            return None

        client, server, chain = build_attacked_session(
            ca, server_identity, mbox_identity, rewrite
        )
        with pytest.raises(TLSError):
            chain.pump()

    def test_permission_escalation_via_hello_rewrite_detected(
        self, ca, server_identity, mbox_identity
    ):
        """An attacker (or rogue middlebox) upgrading its permissions in
        the ClientHello is caught: the endpoints' transcripts disagree,
        so the client's Finished fails at the server."""

        def rewrite(direction, msg_type, body):
            if direction == "c2s" and msg_type == tls_msgs.CLIENT_HELLO:
                hello = tls_msgs.ClientHello.decode(body)
                topo = SessionTopology.decode(
                    hello.find_extension(tls_msgs.EXT_MIDDLEBOX_LIST)
                )
                escalated = SessionTopology(
                    middleboxes=topo.middleboxes,
                    contexts=[
                        ContextDefinition(
                            c.context_id,
                            c.purpose,
                            {m.mbox_id: Permission.WRITE for m in topo.middleboxes},
                        )
                        for c in topo.contexts
                    ],
                )
                hello.extensions = [
                    (t, v) if t != tls_msgs.EXT_MIDDLEBOX_LIST else (t, escalated.encode())
                    for t, v in hello.extensions
                ]
                return hello.encode()
            return None

        client, server, chain = build_attacked_session(
            ca, server_identity, mbox_identity, rewrite
        )
        with pytest.raises(TLSError):
            chain.pump()

    def test_mode_downgrade_detected(self, ca, server_identity, mbox_identity):
        """Flipping the server's mode extension (default → CKD) is caught
        by Finished verification (transcript mismatch)."""

        def rewrite(direction, msg_type, body):
            if direction == "s2c-out" and msg_type == tls_msgs.SERVER_HELLO:
                hello = tls_msgs.ServerHello.decode(body)
                hello.extensions = [
                    (t, bytes([mm.MODE_CLIENT_KEY_DIST]) if t == mm.EXT_MCTLS_MODE else v)
                    for t, v in hello.extensions
                ]
                return hello.encode()
            return None

        client, server, chain = build_attacked_session(
            ca, server_identity, mbox_identity, rewrite
        )
        with pytest.raises(TLSError):
            chain.pump()


class TestDynamicContexts:
    def test_context_switching_mid_session(self, ca, server_identity, mbox_identity):
        """§4.1: 'contexts can also be selected dynamically' — e.g. stop
        exposing images to the compression proxy after joining Wi-Fi."""
        seen = []
        client, mboxes, server, chain = build_session(
            ca,
            server_identity,
            [mbox_identity],
            [
                ctx(1, {1: Permission.READ}),  # compression-enabled
                ctx(2, {}),  # private
            ],
            observer=lambda d, c, data: seen.append(data),
        )
        # On 3G: images via the readable context.
        client.send_application_data(b"image-on-3g", context_id=1)
        chain.pump()
        # Wi-Fi joined mid-session: same kind of payload, private context.
        client.send_application_data(b"image-on-wifi", context_id=2)
        events = chain.pump()
        assert seen == [b"image-on-3g"]
        received = [e.data for e in events if isinstance(e, McTLSApplicationData)]
        assert received == [b"image-on-wifi"]


# -- Finished verification -------------------------------------------------------
#
# A key-less attacker cannot get a wrong verify_data as far as the
# comparison: flipped in flight, the record MAC rejects the Finished
# first (the fault matrix covers that).  So the peer itself is made to
# send a Finished with one bit of verify_data flipped, which is the
# input all six (constant-time) comparisons exist for: client and server,
# full and abbreviated flow, TLS and the mcTLS family.

_MCTLS_FAMILY = (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS)


@pytest.fixture(scope="module")
def finished_bed() -> TestBed:
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


def _start(bed, mode):
    topology = bed.topology(1) if mode in _MCTLS_FAMILY else None
    client, server = bed.make_endpoints(mode, topology=topology)
    chain = Chain(client, bed.make_relays(mode, 1), server)
    client.start_handshake()
    return client, server, chain


@pytest.mark.parametrize("sender", ["client", "server"])
@pytest.mark.parametrize("resumed", [False, True], ids=["full", "resumed"])
@pytest.mark.parametrize(
    "mode", [m for m in Mode if m is not Mode.NO_ENCRYPT], ids=lambda m: m.value
)
def test_flipped_finished_bit_fails_the_handshake(
    finished_bed, monkeypatch, mode, resumed, sender
):
    finished_bed.enable_resumption()  # fresh, empty caches per case
    if resumed:
        if mode is Mode.SPLIT_TLS:
            pytest.skip("SplitTLS always performs full handshakes")
        client, server, chain = _start(finished_bed, mode)
        chain.pump()
        assert client.handshake_complete and server.handshake_complete

    label = ks.LABEL_CLIENT_FINISHED if sender == "client" else ks.LABEL_SERVER_FINISHED
    real = ks.finished_verify_data
    pending = [label]  # the sender computes its verify_data before the verifier

    def flip_first(secret, lbl, transcript_hash):
        verify_data = real(secret, lbl, transcript_hash)
        if lbl in pending:
            pending.remove(lbl)
            verify_data = bytes([verify_data[0] ^ 0x01]) + verify_data[1:]
        return verify_data

    monkeypatch.setattr(ks, "finished_verify_data", flip_first)
    client, server, chain = _start(finished_bed, mode)
    with pytest.raises(TLSError, match=f"{sender} Finished verification failed") as excinfo:
        chain.pump()
    assert excinfo.value.alert == ALERT_DECRYPT_ERROR
    assert not pending
    assert client.resumed is resumed
    assert not (client.handshake_complete and server.handshake_complete)
