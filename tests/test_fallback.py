"""Tests for mcTLS → TLS fallback (§5.4)."""

import pytest

from repro.crypto.certs import CertificateAuthority
from repro.crypto.dh import GROUP_TEST_512
from repro.mctls import SessionTopology
from repro.mctls.contexts import ContextDefinition
from repro.mctls.fallback import connect_with_fallback, is_negotiation_failure
from repro.mctls.server import McTLSServer
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256
from repro.tls.client import TLSClient
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    TLSConfig,
    TLSError,
)
from repro.tls.server import TLSServer
from repro.transport import pump


@pytest.fixture()
def topology():
    return SessionTopology(contexts=[ContextDefinition(1, "all")])


def make_config(ca):
    return TLSConfig(
        trusted_roots=[ca.certificate],
        server_name="server.example",
        dh_group=GROUP_TEST_512,
    )


class TestClassification:
    def test_security_failures_never_fall_back(self):
        assert not is_negotiation_failure(
            TLSError("certificate verification failed", ALERT_BAD_CERTIFICATE)
        )

    def test_version_mismatch_falls_back(self):
        from repro.tls.connection import ALERT_BAD_RECORD_MAC

        assert is_negotiation_failure(
            TLSError("unsupported record version 0x0303", ALERT_BAD_RECORD_MAC)
        )

    def test_generic_handshake_failure_falls_back(self):
        assert is_negotiation_failure(TLSError("no mutually supported cipher suite"))


class TestFallbackFlow:
    def test_mctls_server_no_fallback_needed(self, ca, server_identity, topology):
        def dial():
            server = McTLSServer(
                TLSConfig(
                    identity=server_identity,
                    trusted_roots=[ca.certificate],
                    dh_group=GROUP_TEST_512,
                )
            )
            return server, pump

        client = connect_with_fallback(make_config(ca), topology, dial)
        assert client.handshake_complete
        assert hasattr(client, "topology")  # still the mcTLS client

    def test_plain_tls_server_triggers_fallback(self, ca, server_identity, topology):
        """Against a TLS-only server, the mcTLS attempt fails fast on the
        record version and the retry succeeds over plain TLS."""

        def dial():
            server = TLSServer(
                TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
            )
            return server, pump

        client = connect_with_fallback(make_config(ca), topology, dial)
        assert client.handshake_complete
        assert isinstance(client, TLSClient)
        assert not hasattr(client, "topology")

    def test_security_failure_not_downgraded(self, ca, topology):
        """A server with an untrusted certificate must NOT cause a silent
        downgrade to TLS — the error propagates."""
        rogue_ca = CertificateAuthority.create_root("Rogue", key_bits=512)
        from repro.crypto.certs import Identity

        rogue_identity = Identity.issued_by(rogue_ca, "server.example", key_bits=512)

        def dial():
            server = McTLSServer(
                TLSConfig(
                    identity=rogue_identity,
                    trusted_roots=[rogue_ca.certificate],
                    dh_group=GROUP_TEST_512,
                )
            )
            return server, pump

        with pytest.raises(TLSError, match="certificate"):
            connect_with_fallback(make_config(ca), topology, dial)

    def test_single_downgrade_only(self, ca, server_identity, topology):
        """A server that shares no suite with the client (which offers
        only 0x0067) fails the mcTLS attempt and the TLS retry alike; the
        retry's failure is raised, never downgraded a second time."""
        dials = []

        def dial():
            dials.append(1)
            server = TLSServer(
                TLSConfig(
                    identity=server_identity,
                    cipher_suites=(SUITE_DHE_RSA_SHACTR_SHA256,),
                    dh_group=GROUP_TEST_512,
                )
            )
            return server, pump

        with pytest.raises(TLSError, match="cipher suite"):
            connect_with_fallback(make_config(ca), topology, dial)
        assert len(dials) == 2

    def test_attempt_counting(self, ca, server_identity, topology):
        """One dial when the server speaks mcTLS; two (the mcTLS attempt
        and the TLS retry) when it speaks only plain TLS."""
        dials = []

        def dial_mctls():
            dials.append("mctls")
            server = McTLSServer(
                TLSConfig(
                    identity=server_identity,
                    trusted_roots=[ca.certificate],
                    dh_group=GROUP_TEST_512,
                )
            )
            return server, pump

        client = connect_with_fallback(make_config(ca), topology, dial_mctls)
        assert client.handshake_complete
        assert dials == ["mctls"]

        dials.clear()

        def dial_tls():
            dials.append("tls")
            server = TLSServer(
                TLSConfig(identity=server_identity, dh_group=GROUP_TEST_512)
            )
            return server, pump

        client = connect_with_fallback(make_config(ca), topology, dial_tls)
        assert client.handshake_complete
        assert isinstance(client, TLSClient)
        assert dials == ["tls", "tls"]
