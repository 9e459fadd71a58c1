"""The §3.4 detection guarantees as an executable fault matrix.

Every (attacker role × detecting party × mutation) cell of the paper's
Table 1 runs as a live mcTLS session through ``repro.faults``: an
on-path :class:`TamperProxy` (or a malicious reader / writer middlebox)
injects the mutation mid-session, and the harness asserts the *right*
party detects it via the *right* MAC — and that legal writer
modifications are flagged-but-accepted rather than rejected.
"""

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed, build_path
from repro.faults import TamperPlan, TamperProxy, failure_info, standard_record_mutators
from repro.faults import matrix as fm
from repro.mctls import keys as mk
from repro.mctls.record import MacVerificationError
from repro.mctls.session import McTLSApplicationData
from repro.netsim import Simulator
from repro.netsim.link import duplex
from repro.tls.connection import TLSError

CELLS = fm.all_cells()
EXPECTED = fm.expected_matrix()


@pytest.fixture(scope="module")
def matrix_results():
    return fm.run_matrix(fm.SEED)


@pytest.fixture(scope="module")
def matrix_results_burst():
    """The same 39 cells with three records pumped as one flight and the
    tampering aimed mid-burst (record_index=1) — the mutation lands
    inside the relays' batched ``_relay_app_burst`` path."""
    return fm.run_matrix(fm.SEED, burst=True)


def _cell_id(spec):
    return f"{spec.attacker}|{spec.detector}|{spec.mutation}"


@pytest.mark.parametrize("spec", CELLS, ids=_cell_id)
def test_table1_cell(spec, matrix_results):
    """Each cell produces exactly the Table 1 outcome."""
    expected = EXPECTED[spec]
    result = matrix_results[spec]
    assert expected.matches(result), (
        f"{_cell_id(spec)}: expected {expected}, got {result}"
    )


@pytest.mark.parametrize("spec", CELLS, ids=_cell_id)
def test_table1_cell_mid_burst(spec, matrix_results, matrix_results_burst):
    """Table 1 attribution is path-independent: tampering injected into
    the middle of a batched three-record flight yields the same outcome,
    MAC slot, and detecting party as the lone-record run."""
    expected = EXPECTED[spec]
    result = matrix_results_burst[spec]
    assert expected.matches(result), (
        f"{_cell_id(spec)} (burst): expected {expected}, got {result}"
    )
    sequential = matrix_results[spec]
    assert (result.outcome, result.mac, result.detected_by) == (
        sequential.outcome,
        sequential.mac,
        sequential.detected_by,
    ), f"{_cell_id(spec)}: burst attribution diverged from sequential"


def test_matrix_is_deterministic(matrix_results):
    """Two consecutive runs with the same seed: identical outcomes."""
    assert fm.run_matrix(fm.SEED) == matrix_results


@pytest.fixture(scope="module")
def matrix_results_openssl():
    from repro.crypto.evp import CIPHER_BACKEND
    from repro.tls.ciphersuites import SUITE_DHE_RSA_AES128CTR_SHA256

    if CIPHER_BACKEND != "openssl-evp":
        pytest.skip("no EVP seam on this platform: 0xFF68 is not registered")
    return fm.run_matrix(fm.SEED, suite=SUITE_DHE_RSA_AES128CTR_SHA256)


@pytest.mark.parametrize("spec", CELLS, ids=_cell_id)
def test_table1_cell_under_openssl_provider(
    spec, matrix_results, matrix_results_openssl
):
    """Table 1 attribution is provider-independent: the full matrix
    re-run under the OpenSSL AES-CTR suite yields the same outcome, MAC
    slot, and detecting party cell for cell — detection rides on the
    three HMAC-SHA256 record MACs, never on the bulk cipher backend."""
    expected = EXPECTED[spec]
    result = matrix_results_openssl[spec]
    assert expected.matches(result), (
        f"{_cell_id(spec)} (openssl): expected {expected}, got {result}"
    )
    sequential = matrix_results[spec]
    assert (result.outcome, result.mac, result.detected_by) == (
        sequential.outcome,
        sequential.mac,
        sequential.detected_by,
    ), f"{_cell_id(spec)}: openssl attribution diverged from pure provider"


def test_matrix_covers_every_mutation_class():
    """The cell list spans all mutators and all detecting parties."""
    mutations = {spec.mutation for spec in CELLS}
    assert set(standard_record_mutators()) <= mutations
    assert {"forge", "transform"} <= mutations  # reader / writer attackers
    assert any(spec.mutation.startswith("hs-") for spec in CELLS)
    assert {spec.detector for spec in CELLS} == {
        "endpoint",
        "reader-mbox",
        "writer-mbox",
        "handshake",
        # mdTLS warrant rows attribute detection per party:
        "client",
        "server",
        "middlebox",
    }
    warrant_cells = [spec for spec in CELLS if spec.attacker == "warrant"]
    assert {EXPECTED[spec].reason for spec in warrant_cells} == {
        "forged",
        "expired",
        "widened",
    }


def test_passthrough_proxy_is_invisible():
    """An idle TamperProxy forwards everything byte-identically."""
    spec = fm.CellSpec("third-party", "endpoint", "delete")
    client, relays, server, chain = fm._build_session(spec, fm.SEED)
    proxy = relays[0]
    proxy.plan = TamperPlan()  # no mutations planned
    events = []
    chain.on_server_event = events.append

    client.start_handshake()
    chain.pump()
    assert client.handshake_complete and server.handshake_complete
    client.send_application_data(b"untouched payload", context_id=1)
    chain.pump()

    app = [e for e in events if isinstance(e, McTLSApplicationData)]
    assert [e.data for e in app] == [b"untouched payload"]
    assert app[0].legally_modified is False
    assert proxy.log == []


def test_deletion_detected_across_contexts():
    """Deleting a context-1 record is caught by the *context-2* record
    that follows it — sequence numbers are global per direction."""
    spec = fm.CellSpec("third-party", "endpoint", "delete")
    client, relays, server, chain = fm._build_session(spec, fm.SEED)

    client.start_handshake()
    chain.pump()
    client.send_application_data(b"doomed context-1 record", context_id=1)
    chain.pump()  # the proxy silently drops it — nothing to detect yet
    client.send_application_data(b"context-2 record", context_id=2)
    with pytest.raises(TLSError) as excinfo:
        chain.pump()

    info = failure_info(excinfo.value)
    assert isinstance(info, MacVerificationError)
    assert info.mac == "writers"
    assert info.where == "endpoint"
    assert info.context_id == 2  # detection fired on the other context


def test_attacker_node_in_netsim_path():
    """The attacker splices into a simulated network path and the
    tampering is detected mid-simulation by the first verifying party."""
    bed = TestBed(key_bits=512, dh_group=GROUP_TEST_512)
    sim = Simulator()
    links = [duplex(sim, 8e6, 0.01, name="hop0"), duplex(sim, 8e6, 0.01, name="hop1")]
    proxy = TamperProxy(
        TamperPlan(
            seed=fm.SEED,
            record_mutator=standard_record_mutators()["flip-payload"],
            direction=mk.C2S,
        )
    )

    path_box = {}

    def on_client_event(event, now):
        if type(event).__name__ == "McTLSHandshakeComplete":
            path_box["path"].client_node.send_application_data(
                b"netsim fault payload", context_id=1
            )

    path_box["path"] = build_path(
        sim,
        bed,
        Mode.MCTLS,
        links,
        topology=bed.topology(1),  # one WRITE middlebox
        attacker=proxy,
        attacker_hop=0,
        client_on_event=on_client_event,
    )
    path_box["path"].start()
    with pytest.raises(TLSError) as excinfo:
        sim.run()

    info = failure_info(excinfo.value)
    assert (info.mac, info.where) == ("writers", "middlebox")
    assert proxy.log == [(mk.C2S, "flip-payload")]
