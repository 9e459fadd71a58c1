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
from repro.experiments.harness import Mode, TestBed, build_path, drive_handshake
from repro.faults import TamperPlan, TamperProxy, failure_info, standard_record_mutators
from repro.faults import matrix as fm
from repro.mctls import keys as mk
from repro.mctls.record import MacVerificationError
from repro.mctls.session import HandshakeMode, McTLSApplicationData
from repro.netsim import Simulator
from repro.netsim.link import duplex
from repro.tls.connection import TLSError
from repro.transport import Chain

CELLS = fm.all_cells()
EXPECTED = fm.expected_matrix()


@pytest.fixture(scope="module")
def matrix_results():
    return fm.run_matrix(fm.SEED)


@pytest.fixture(scope="module")
def matrix_results_burst():
    """Every cell with three records pumped as one flight and the
    tampering aimed mid-burst (record_index=1) — the mutation lands
    between two good records on the relays' one record path."""
    return fm.run_matrix(fm.SEED, burst=True)


def _cell_id(spec):
    cell = f"{spec.attacker}|{spec.detector}|{spec.mutation}"
    return cell if spec.variant == fm.Variant() else f"{cell}|{spec.variant}"


def _session(spec):
    client, relays, server = fm.build_cell(spec, fm.SEED)
    return client, relays, server, Chain(client, relays, server)


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


# The default session's 49 cells, recorded literally: (attacker,
# detector, mutation) -> (outcome, mac, detected_by, reason).  A record
# row's pin holds in every session variant.  Written out by hand, apart
# from expected_matrix(), so the oracle and the runs are both checked
# against a literal table.
PINNED = {
    ("third-party", "endpoint", "flip-payload"): (
        "ILLEGAL", "writers", "endpoint", None
    ),
    ("third-party", "reader-mbox", "flip-payload"): (
        "ILLEGAL", "readers", "middlebox", None
    ),
    ("third-party", "writer-mbox", "flip-payload"): (
        "ILLEGAL", "writers", "middlebox", None
    ),
    ("third-party", "endpoint", "flip-mac-endpoints"): ("LEGAL", None, None, None),
    ("third-party", "reader-mbox", "flip-mac-endpoints"): ("LEGAL", None, None, None),
    ("third-party", "writer-mbox", "flip-mac-endpoints"): ("LEGAL", None, None, None),
    ("third-party", "endpoint", "flip-mac-writers"): (
        "ILLEGAL", "writers", "endpoint", None
    ),
    ("third-party", "reader-mbox", "flip-mac-writers"): (
        "ILLEGAL", "writers", "endpoint", None
    ),
    ("third-party", "writer-mbox", "flip-mac-writers"): (
        "ILLEGAL", "writers", "middlebox", None
    ),
    ("third-party", "endpoint", "flip-mac-readers"): ("ACCEPTED", None, None, None),
    ("third-party", "reader-mbox", "flip-mac-readers"): (
        "ILLEGAL", "readers", "middlebox", None
    ),
    ("third-party", "writer-mbox", "flip-mac-readers"): ("ACCEPTED", None, None, None),
    ("third-party", "endpoint", "truncate"): ("ILLEGAL", "writers", "endpoint", None),
    ("third-party", "reader-mbox", "truncate"): (
        "ILLEGAL", "readers", "middlebox", None
    ),
    ("third-party", "writer-mbox", "truncate"): (
        "ILLEGAL", "writers", "middlebox", None
    ),
    ("third-party", "endpoint", "delete"): ("ILLEGAL", "writers", "endpoint", None),
    ("third-party", "reader-mbox", "delete"): ("ILLEGAL", "readers", "middlebox", None),
    ("third-party", "writer-mbox", "delete"): ("ILLEGAL", "writers", "middlebox", None),
    ("third-party", "endpoint", "replay"): ("ILLEGAL", "writers", "endpoint", None),
    ("third-party", "reader-mbox", "replay"): ("ILLEGAL", "readers", "middlebox", None),
    ("third-party", "writer-mbox", "replay"): ("ILLEGAL", "writers", "middlebox", None),
    ("third-party", "endpoint", "reorder"): ("ILLEGAL", "writers", "endpoint", None),
    ("third-party", "reader-mbox", "reorder"): (
        "ILLEGAL", "readers", "middlebox", None
    ),
    ("third-party", "writer-mbox", "reorder"): (
        "ILLEGAL", "writers", "middlebox", None
    ),
    ("third-party", "endpoint", "context-swap"): (
        "ILLEGAL", "writers", "endpoint", None
    ),
    ("third-party", "reader-mbox", "context-swap"): (
        "ILLEGAL", "readers", "middlebox", None
    ),
    ("third-party", "writer-mbox", "context-swap"): (
        "ILLEGAL", "writers", "middlebox", None
    ),
    ("third-party", "endpoint", "version-confusion"): (
        "MALFORMED", None, "endpoint", None
    ),
    ("third-party", "reader-mbox", "version-confusion"): (
        "MALFORMED", None, "middlebox", None
    ),
    ("third-party", "writer-mbox", "version-confusion"): (
        "MALFORMED", None, "middlebox", None
    ),
    ("reader", "endpoint", "forge"): ("ILLEGAL", "writers", "endpoint", None),
    ("reader", "reader-mbox", "forge"): ("ILLEGAL", "writers", "endpoint", None),
    ("reader", "writer-mbox", "forge"): ("ILLEGAL", "writers", "middlebox", None),
    ("writer", "endpoint", "transform"): ("LEGAL", None, None, None),
    ("writer", "reader-mbox", "transform"): ("LEGAL", None, None, None),
    ("writer", "writer-mbox", "transform"): ("LEGAL", None, None, None),
    ("handshake", "handshake", "hs-drop-client-key-exchange"): (
        "HANDSHAKE_FAILED", None, None, None
    ),
    ("handshake", "handshake", "hs-flip-server-key-exchange"): (
        "HANDSHAKE_FAILED", None, None, None
    ),
    ("handshake", "handshake", "hs-escalate-permission"): (
        "HANDSHAKE_FAILED", None, None, None
    ),
    ("field", "endpoint", "rewrite-granted"): ("LEGAL", None, None, None),
    ("field", "endpoint", "rewrite-ungranted"): (
        "ILLEGAL", "field:body", "endpoint", None
    ),
    ("field", "endpoint", "flip-field-region"): (
        "ILLEGAL", "writers", "endpoint", None
    ),
    ("warrant", "middlebox", "forged-signature"): (
        "HANDSHAKE_FAILED", None, "middlebox", "forged"
    ),
    ("warrant", "middlebox", "expired-window"): (
        "HANDSHAKE_FAILED", None, "middlebox", "expired"
    ),
    ("warrant", "middlebox", "widened-scope"): (
        "HANDSHAKE_FAILED", None, "middlebox", "widened"
    ),
    ("warrant", "server", "forged-onpath"): (
        "HANDSHAKE_FAILED", None, "server", "forged"
    ),
    ("warrant", "server", "widened-scope"): (
        "HANDSHAKE_FAILED", None, "server", "widened"
    ),
    ("warrant", "client", "forged-onpath"): (
        "HANDSHAKE_FAILED", None, "client", "forged"
    ),
    ("warrant", "client", "expired-window"): (
        "HANDSHAKE_FAILED", None, "client", "expired"
    ),
}


@pytest.mark.parametrize(
    "run", ["matrix_results", "matrix_results_burst", "matrix_results_openssl"]
)
def test_table1_pinned(run, request):
    """Every cell, in every session variant, keeps its default cell's
    exact outcome, MAC slot, detecting party and reason in the
    sequential, mid-burst and 0xFF68 runs."""
    results = request.getfixturevalue(run)
    got = {
        spec: (result.outcome.name, result.mac, result.detected_by, result.reason)
        for spec, result in results.items()
    }
    assert got == {
        spec: PINNED[(spec.attacker, spec.detector, spec.mutation)] for spec in results
    }


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


def test_matrix_runs_every_record_row_in_every_variant():
    """The 36 record rows run in all 12 session variants; the handshake,
    field and warrant rows keep the one default session."""
    assert len(CELLS) == 445 and len(fm.VARIANTS) == 12
    for variant in fm.VARIANTS:
        rows = [spec for spec in CELLS if spec.variant == variant]
        assert len(rows) == (49 if variant == fm.Variant() else 36)


@pytest.mark.parametrize("variant", fm.VARIANTS, ids=str)
def test_record_cell_negotiates_its_variant(variant):
    """A record cell's server negotiates the variant's handshake mode and
    key transport, and resumes exactly when the variant says so."""
    spec = fm.CellSpec("writer", "reader-mbox", "transform", variant)
    client, relays, server = fm.build_cell(spec)
    drive_handshake(client, relays, server)
    ckd = variant.mode is Mode.MCTLS_CKD
    assert server.mode is (HandshakeMode.CLIENT_KEY_DIST if ckd else HandshakeMode.DEFAULT)
    assert server.key_transport is variant.key_transport
    assert server.resumed is client.resumed is (variant.handshake != "full")


def test_passthrough_proxy_is_invisible():
    """An idle TamperProxy forwards everything byte-identically."""
    spec = fm.CellSpec("third-party", "endpoint", "delete")
    client, relays, server, chain = _session(spec)
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
    client, relays, server, chain = _session(spec)

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
