"""Unit tests for the experiment harness (TestBed factories, path glue)."""

import pytest

from repro.baselines import BlindRelay, PlainConnection, PlainRelay, SplitTLSRelay
from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import (
    Mode,
    TestBed,
    build_cell,
    build_links,
    build_path,
    drive_handshake,
    is_app_data,
    is_handshake_complete,
    shared_testbed,
)
from repro.mctls import KeyTransport, McTLSClient, McTLSMiddlebox, McTLSServer
from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer
from repro.netsim import Simulator
from repro.netsim.profiles import controlled
from repro.tls.client import TLSClient
from repro.tls.connection import ApplicationData, HandshakeComplete
from repro.tls.server import TLSServer


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


class TestTestBed:
    def test_identity_caching(self, bed):
        first = bed.middlebox_identities(2)
        second = bed.middlebox_identities(3)
        assert second[:2] == first  # cached, extended on demand

    def test_endpoint_factories(self, bed):
        cases = {
            Mode.MCTLS: (McTLSClient, McTLSServer),
            Mode.MCTLS_CKD: (McTLSClient, McTLSServer),
            Mode.MDTLS: (MdTLSClient, MdTLSServer),
            Mode.SPLIT_TLS: (TLSClient, TLSServer),
            Mode.E2E_TLS: (TLSClient, TLSServer),
            Mode.NO_ENCRYPT: (PlainConnection, PlainConnection),
        }
        for mode, (client_type, server_type) in cases.items():
            client, server = bed.make_endpoints(mode)
            assert isinstance(client, client_type), mode
            assert isinstance(server, server_type), mode

    def test_relay_factories(self, bed):
        assert bed.make_relays(Mode.MCTLS, 0) == []
        assert all(isinstance(r, McTLSMiddlebox) for r in bed.make_relays(Mode.MCTLS, 2))
        assert all(isinstance(r, MdTLSMiddlebox) for r in bed.make_relays(Mode.MDTLS, 2))
        assert all(isinstance(r, SplitTLSRelay) for r in bed.make_relays(Mode.SPLIT_TLS, 2))
        assert all(isinstance(r, BlindRelay) for r in bed.make_relays(Mode.E2E_TLS, 2))
        assert all(isinstance(r, PlainRelay) for r in bed.make_relays(Mode.NO_ENCRYPT, 2))

    @pytest.mark.parametrize("hops", [2, 3])
    def test_split_tls_chain_shares_the_forged_identity(self, bed, hops):
        """Every hop presents the bed's one forged certificate; each hop
        but the last trusts the interception root upstream."""
        client, relays, server = build_cell(bed, Mode.SPLIT_TLS, 1, hops)
        drive_handshake(client, relays, server)
        assert client.handshake_complete and server.handshake_complete
        assert client.peer_certificate.issuer == "Interception Root"

    def test_key_transport_propagates(self):
        bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512, key_transport=KeyTransport.DHE)
        client, _ = bed.make_endpoints(Mode.MCTLS)
        assert client.key_transport is KeyTransport.DHE

    def test_worst_case_topology(self, bed):
        from repro.mctls import Permission

        topo = bed.topology(2, n_contexts=3)
        for ctx in topo.contexts:
            for mbox_id in (1, 2):
                assert ctx.permission_for(mbox_id) is Permission.WRITE

    def test_shared_testbed_caches(self):
        a = shared_testbed(key_bits=512)
        b = shared_testbed(key_bits=512)
        assert a is b


class TestEventHelpers:
    def test_predicates(self):
        assert is_handshake_complete(HandshakeComplete(cipher_suite="x"))
        assert not is_handshake_complete(ApplicationData(data=b""))
        assert is_app_data(ApplicationData(data=b""))
        from repro.mctls.session import McTLSApplicationData, McTLSHandshakeComplete
        from repro.mctls import SessionTopology
        from repro.mctls.contexts import ContextDefinition
        from repro.mctls.session import HandshakeMode

        assert is_app_data(McTLSApplicationData(data=b"", context_id=1))
        topo = SessionTopology(contexts=[ContextDefinition(1, "x")])
        assert is_handshake_complete(
            McTLSHandshakeComplete(cipher_suite="x", mode=HandshakeMode.DEFAULT, topology=topo)
        )


class TestBuildPath:
    def test_relay_count_validation(self, bed):
        sim = Simulator()
        links = build_links(sim, controlled(hops=3))
        with pytest.raises(ValueError, match="relay"):
            build_path(sim, bed, Mode.E2E_TLS, links, relays=[BlindRelay()])

    def test_explicit_relays_used(self, bed):
        sim = Simulator()
        links = build_links(sim, controlled(hops=2))
        marker = BlindRelay()
        path = build_path(sim, bed, Mode.E2E_TLS, links, relays=[marker])
        assert path.relay_nodes[0].relay is marker

    def test_link_count_matches_profile(self, bed):
        sim = Simulator()
        profile = controlled(hops=4)
        links = build_links(sim, profile)
        assert len(links) == 4

    def test_client_hop_byte_counter(self, bed):
        sim = Simulator()
        links = build_links(sim, controlled(hops=2))
        done = []

        def client_event(event, now):
            if is_handshake_complete(event):
                done.append(now)

        path = build_path(
            sim, bed, Mode.E2E_TLS, links, client_on_event=client_event
        )
        path.start()
        sim.run(until=10.0)
        assert done
        assert path.total_bytes_on_client_hop() > 1000  # a TLS handshake's worth
