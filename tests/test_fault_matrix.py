"""The §3.4 detection guarantees as an executable fault matrix.

Every (attacker role × detecting party × mutation) cell of the paper's
Table 1 runs as a live mcTLS session through ``repro.faults``: an
on-path :class:`TamperProxy` (or a malicious reader / writer middlebox)
injects the mutation mid-session, and the harness asserts the *right*
party detects it via the *right* MAC — and that legal writer
modifications are flagged-but-accepted rather than rejected.
"""

import dataclasses

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

from tests.mctls_helpers import offer_ticket

# Beside the matrix's own variants, each cache-resumed one runs again
# with a client that also offers an RFC 5077 ticket, as OpenSSL clients
# do.  No stack keeps tickets: the server ignores the offer and resumes
# from the session id, and every record row keeps its Table 1 outcome.
TICKET = bytes(range(7, 7 + 120))  # an opaque blob no server here opens
TICKET_VARIANTS = tuple(
    dataclasses.replace(v, handshake="ticket") for v in fm.VARIANTS if v.handshake == "cache"
)
TICKET_CELLS = [
    dataclasses.replace(spec, variant=variant)
    for variant in TICKET_VARIANTS
    for spec in fm.all_cells()
    if spec.variant == dataclasses.replace(variant, handshake="cache")
]
CELLS = fm.all_cells() + TICKET_CELLS
EXPECTED = {**fm.expected_matrix(), **{spec: fm.oracle(spec) for spec in TICKET_CELLS}}


def _as_cached(spec):
    """The cache-resumed cell a ticket-offering cell runs."""
    if spec.variant.handshake != "ticket":
        return spec
    return dataclasses.replace(
        spec, variant=dataclasses.replace(spec.variant, handshake="cache")
    )


def _offering_ticket(build_cell):
    def build(*args, **kwargs):
        client, relays, server = build_cell(*args, **kwargs)
        return offer_ticket(client, TICKET), relays, server

    return build


def _build_cell(spec):
    build = fm.build_cell if spec == _as_cached(spec) else _offering_ticket(fm.build_cell)
    return build(_as_cached(spec), fm.SEED)


def _run_matrix(burst=False):
    """Every cell of :data:`CELLS`; deterministic for the fixed seed."""
    results = fm.run_matrix(fm.SEED, burst=burst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fm, "build_cell", _offering_ticket(fm.build_cell))
        for spec in TICKET_CELLS:
            results[spec] = fm.run_cell(_as_cached(spec), fm.SEED, burst=burst)
    return results


@pytest.fixture(scope="module")
def matrix_results():
    return _run_matrix()


@pytest.fixture(scope="module")
def matrix_results_burst():
    """Every cell with three records pumped as one flight and the
    tampering aimed mid-burst (record_index=1) — the mutation lands
    between two good records on the relays' one record path."""
    return _run_matrix(burst=True)


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
    assert _run_matrix() == matrix_results


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


@pytest.mark.parametrize("run", ["matrix_results", "matrix_results_burst"])
def test_table1_pinned(run, request):
    """Every cell, in every session variant, keeps its default cell's
    exact outcome, MAC slot, detecting party and reason in the
    sequential and mid-burst runs."""
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
    """The 36 record rows run in all 8 session variants and in the 4
    ticket-offering ones; the handshake, field and warrant rows keep the
    one default session."""
    assert len(fm.all_cells()) == 301 and len(fm.VARIANTS) == 8
    assert len(CELLS) == 445 and len(TICKET_VARIANTS) == 4
    for variant in fm.VARIANTS + TICKET_VARIANTS:
        rows = [spec for spec in CELLS if spec.variant == variant]
        assert len(rows) == (49 if variant == fm.Variant() else 36)


@pytest.mark.parametrize("variant", fm.VARIANTS + TICKET_VARIANTS, ids=str)
def test_record_cell_negotiates_its_variant(variant):
    """A record cell's server negotiates the variant's handshake mode and
    key transport, and resumes exactly when the variant says so (a
    ticket-offering client from its session id)."""
    spec = fm.CellSpec("writer", "reader-mbox", "transform", variant)
    client, relays, server = _build_cell(spec)
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
        [links[0], duplex(sim, None, 0.0, name="tamper"), links[1]],
        topology=bed.topology(1),  # one WRITE middlebox
        relays=[proxy, bed.make_relay(Mode.MCTLS, 0, 1)],
        client_on_event=on_client_event,
    )
    path_box["path"].start()
    with pytest.raises(TLSError) as excinfo:
        sim.run()

    info = failure_info(excinfo.value)
    assert (info.mac, info.where) == ("writers", "middlebox")
    assert proxy.log == [(mk.C2S, "flip-payload")]
