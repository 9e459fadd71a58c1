"""Tests for the two key-transport variants (DHE design vs RSA prototype)."""

import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.rsa import generate_rsa_key
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.mctls import keys as mk
from repro.mctls.session import HandshakeMode, KeyTransport, McTLSApplicationData
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256 as SUITE, CipherError
from repro.tls.connection import TLSConfig
from repro.transport import Chain


@pytest.fixture(scope="module")
def rsa_key():
    return generate_rsa_key(512)


class TestHybridSeal:
    def test_roundtrip(self, rsa_key):
        sealed = mk.rsa_hybrid_seal(SUITE, rsa_key.public_key, b"key material")
        assert mk.rsa_hybrid_open(SUITE, rsa_key, sealed) == b"key material"

    def test_large_payload(self, rsa_key):
        """Hybrid wrapping handles payloads beyond the RSA modulus size."""
        payload = b"x" * 5000
        sealed = mk.rsa_hybrid_seal(SUITE, rsa_key.public_key, payload)
        assert mk.rsa_hybrid_open(SUITE, rsa_key, sealed) == payload

    def test_tamper_detected(self, rsa_key):
        sealed = bytearray(mk.rsa_hybrid_seal(SUITE, rsa_key.public_key, b"km"))
        sealed[-1] ^= 1
        with pytest.raises(CipherError):
            mk.rsa_hybrid_open(SUITE, rsa_key, bytes(sealed))

    def test_wrong_key_rejected(self, rsa_key):
        other = generate_rsa_key(512)
        sealed = mk.rsa_hybrid_seal(SUITE, rsa_key.public_key, b"km")
        with pytest.raises(CipherError):
            mk.rsa_hybrid_open(SUITE, other, sealed)

    def test_truncated_rejected(self, rsa_key):
        with pytest.raises(CipherError):
            mk.rsa_hybrid_open(SUITE, rsa_key, b"\x00")


class TestHybridOpenHasOneFailureClass:
    """A bad RSA unwrap must not be told apart from a forged body
    (RFC 5246 §7.4.7.1): every middlebox of a resumed session runs
    ``rsa_hybrid_open`` on bytes an on-path attacker can choose."""

    def _cases(self, rsa_key):
        sealed = mk.rsa_hybrid_seal(SUITE, rsa_key.public_key, b"key material")
        wrapped_len = int.from_bytes(sealed[:2], "big")
        body = sealed[2 + wrapped_len :]
        # Below the modulus, so the private operation runs on it.
        garbage = b"\x00" + random.Random(7).randbytes(wrapped_len - 1)
        return {
            "random wrapped key": sealed[:2] + garbage + body,
            "10-byte wrapped key": (10).to_bytes(2, "big") + bytes(10) + body,
            "flipped body MAC": sealed[:-1] + bytes([sealed[-1] ^ 1]),
        }

    def test_same_error_after_the_same_work(self, rsa_key, monkeypatch):
        opens = []
        real_open = mk.authenc_open

        def counting_open(*args):
            opens.append(args)
            return real_open(*args)

        monkeypatch.setattr(mk, "authenc_open", counting_open)
        outcomes = {}
        for name, sealed in self._cases(rsa_key).items():
            opens.clear()
            with pytest.raises(Exception) as failure:
                mk.rsa_hybrid_open(SUITE, rsa_key, sealed)
            outcomes[name] = (type(failure.value), str(failure.value), len(opens))
        assert set(outcomes.values()) == {
            (CipherError, "key material authentication failed", 1)
        }, outcomes


def build_rsa_session(ca, server_identity, mbox_identity, mode=HandshakeMode.DEFAULT):
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=[ContextDefinition(1, "ctx", {1: Permission.WRITE})],
    )
    client = McTLSClient(
        TLSConfig(
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            dh_group=GROUP_TEST_512,
        ),
        topology=topology,
        key_transport=KeyTransport.RSA,
    )
    server = McTLSServer(
        TLSConfig(
            identity=server_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
        mode=mode,
    )
    mbox = McTLSMiddlebox(
        mbox_identity.name,
        TLSConfig(
            identity=mbox_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
    )
    chain = Chain(client, [mbox], server)
    client.start_handshake()
    chain.pump()
    return client, mbox, server, chain


class TestRSATransportSessions:
    def test_handshake_and_data(self, ca, server_identity, mbox_identity):
        client, mbox, server, chain = build_rsa_session(ca, server_identity, mbox_identity)
        assert client.handshake_complete and server.handshake_complete
        assert mbox.key_transport is KeyTransport.RSA
        client.send_application_data(b"via rsa", context_id=1)
        events = chain.pump()
        assert any(
            isinstance(e, McTLSApplicationData) and e.data == b"via rsa" for e in events
        )

    def test_ckd_mode(self, ca, server_identity, mbox_identity):
        client, mbox, server, chain = build_rsa_session(
            ca, server_identity, mbox_identity, mode=HandshakeMode.CLIENT_KEY_DIST
        )
        assert mbox.permissions[1] is Permission.WRITE
        server.send_application_data(b"down", context_id=1)
        events = chain.pump()
        assert any(
            isinstance(e, McTLSApplicationData) and e.data == b"down" for e in events
        )

    def test_middlebox_sends_no_key_exchanges(self, ca, server_identity, mbox_identity):
        """RSA transport: middlebox flights are hello + certificate only."""
        client, mbox, server, chain = build_rsa_session(ca, server_identity, mbox_identity)
        assert mbox._dh_to_client is None
        assert mbox._dh_to_server is None
        assert len(mbox._flight) == 2  # hello + certificate

    def test_dhe_transport_middlebox_has_key_exchanges(
        self, ca, server_identity, mbox_identity
    ):
        from tests.mctls_helpers import build_session

        contexts = [ContextDefinition(1, "ctx", {1: Permission.READ})]
        client, mboxes, server, chain = build_session(
            ca, server_identity, [mbox_identity], contexts
        )
        assert mboxes[0]._dh_to_client is not None
        assert len(mboxes[0]._flight) == 4  # hello + cert + two signed KEs
