"""Executable Table 1: the (role × permission × mutation) fault matrix.

Each :class:`CellSpec` is one cell of the paper's §3.4 detection table —
an attacker role (third party on the wire, a reader middlebox, a writer
middlebox, or a handshake-time tamperer), a detecting party (the
receiving endpoint, a reader middlebox, a writer middlebox, or the
handshake itself), a mutation, and the session :class:`Variant` it runs
under.  :func:`build_cell` puts a cell together on the experiment
harness's own 512-bit :class:`~repro.experiments.harness.TestBed`: the
topology from ``bed.topology``, the endpoints from ``bed.make_client`` /
``make_server``, every honest hop from ``bed.make_relay``.  The row
chooses only the attacker — a :class:`TamperProxy`,
:class:`MaliciousReader` or rewriting writer in a hop's slot, or a
warrant-abusing endpoint or middlebox built from the bed's configs.
:func:`run_cell` pumps the handshake through the harness's one driver,
:func:`~repro.experiments.harness.drive_handshake`, continues the
application phase on the chain it returns, and classifies what happened:

* ``ILLEGAL`` — a MAC verification failed; the result records *which*
  MAC (``endpoints`` / ``writers`` / ``readers``) and *where*
  (``endpoint`` / ``middlebox``), which is exactly what Table 1
  specifies per cell;
* ``LEGAL`` — the record was delivered and the endpoint flagged it as
  legally modified (``MAC_endpoints`` mismatch, ``MAC_writers`` valid);
* ``ACCEPTED`` — delivered with no flag (the tampering was invisible to
  this party — e.g. endpoints never check ``MAC_readers``);
* ``MALFORMED`` — rejected before any MAC ran (framing/version);
* ``HANDSHAKE_FAILED`` — the handshake never completed.

A variant is a mode (``mcTLS`` or ``mcTLS-ckd``), a middlebox key
transport (DHE or RSA) and a handshake kind (full, cache-resumed or
ticket-resumed).  The 36 record rows run under all 12 variants against
the one oracle; the handshake, field and warrant rows keep the default
session (mcTLS, DHE, full), since their mutators target messages a
resumed handshake never sends — 445 cells.

The whole matrix is deterministic for a fixed seed: mutation positions
come from ``random.Random(seed)`` and payload lengths are fixed, so two
consecutive :func:`run_matrix` calls must produce identical outcomes
(asserted by ``tests/test_fault_matrix.py``).

Sessions use 512-bit RSA/DH test parameters and, unless ``suite`` says
otherwise, the SHA-CTR stream suite.  A stream suite matters: it
preserves byte positions, so the bit-flip mutators can address the
payload and each individual MAC slot inside the ciphertext.  (CBC would
garble whole blocks and every flip would collapse into the same
padding/decryption failure.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed, drive_handshake
from repro.faults.attacker import MaliciousReader, TamperPlan, TamperProxy
from repro.faults.mutations import (
    DropHandshakeMessage,
    EscalatePermission,
    FlipFieldRegionBit,
    FlipHandshakeBit,
    HandshakeMutator,
    standard_record_mutators,
)
from repro.mctls import ContextDefinition, McTLSMiddlebox, Permission
from repro.mctls import keys as mk
from repro.mctls import record as mrec
from repro.mctls.contexts import FieldDef, FieldSchema
from repro.mctls.session import KeyTransport, McTLSApplicationData
from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer
from repro.mdtls import warrants as mdw
from repro.tls import messages as tls_msgs
from repro.tls.connection import TLSError
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.tls.tickets import TicketKeyManager

SEED = 2015  # any fixed value; tests assert run-to-run stability, not the value

PAYLOAD_1 = b"mcTLS fault harness payload number one"
PAYLOAD_2 = b"mcTLS fault harness payload number two"
PAYLOAD_3 = b"mcTLS fault harness payload number three"

KEY_BITS = 512  # test-sized keys; structure identical to production sizes


class Outcome(Enum):
    ILLEGAL = "illegal"  # a MAC check failed
    LEGAL = "legal"  # delivered, flagged as legally modified
    ACCEPTED = "accepted"  # delivered, no flag
    MALFORMED = "malformed"  # rejected before any MAC ran
    HANDSHAKE_FAILED = "handshake-failed"


@dataclass(frozen=True)
class Variant:
    """The session a cell runs under."""

    mode: Mode = Mode.MCTLS  # or Mode.MCTLS_CKD
    key_transport: KeyTransport = KeyTransport.DHE
    handshake: str = "full"  # "full" | "cache" | "ticket" (the resumed kinds)

    def __str__(self) -> str:
        return f"{self.mode.value}/{self.key_transport.name}/{self.handshake}"


VARIANTS = tuple(
    Variant(mode, key_transport, handshake)
    for mode in (Mode.MCTLS, Mode.MCTLS_CKD)
    for key_transport in (KeyTransport.DHE, KeyTransport.RSA)
    for handshake in ("full", "cache", "ticket")
)


@dataclass(frozen=True)
class CellSpec:
    """One cell: who attacks, who should notice, with which mutation, in
    which session (only :func:`expected_matrix` sets a non-default one)."""

    attacker: str  # "third-party" | "reader" | "writer" | "handshake" | "warrant"
    detector: str  # "endpoint" | "reader-mbox" | "writer-mbox" | "handshake"
    #                 (warrant rows: "client" | "server" | "middlebox")
    mutation: str  # mutator name, or "forge" / "transform"
    variant: Variant = Variant()


@dataclass(frozen=True)
class CellResult:
    outcome: Outcome
    mac: Optional[str] = None  # which MAC detected it, if any
    detected_by: Optional[str] = None  # "endpoint" | "middlebox" (warrant
    #                                    rows: "client" | "server" | "middlebox")
    delivered: Tuple[bytes, ...] = ()
    legally_modified: bool = False
    reason: Optional[str] = None  # warrant rows: "forged"/"expired"/"widened"


@dataclass(frozen=True)
class Expected:
    """What Table 1 says should happen in a cell."""

    outcome: Outcome
    mac: Optional[str] = None
    detected_by: Optional[str] = None
    reason: Optional[str] = None

    def matches(self, result: CellResult) -> bool:
        if result.outcome is not self.outcome:
            return False
        if self.mac is not None and result.mac != self.mac:
            return False
        if self.detected_by is not None and result.detected_by != self.detected_by:
            return False
        if self.reason is not None and result.reason != self.reason:
            return False
        return True


def failure_info(exc: BaseException):
    """Walk the exception cause chain for the detection outcome.

    Prefers a :class:`~repro.mctls.record.MacVerificationError` (which
    names the MAC and the party); falls back to the first exception that
    knows ``where``, then to ``exc`` itself.
    """
    best = None
    node: Optional[BaseException] = exc
    seen = set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, mrec.MacVerificationError):
            return node
        if best is None and getattr(node, "where", None) is not None:
            best = node
        node = node.__cause__ or node.__context__
    return best if best is not None else exc


# -- the bed -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _bed(suite, key_transport: KeyTransport) -> TestBed:
    """One cached bed per (record suite, key transport): key generation
    is the expensive part, so every cell of a run shares it."""
    return TestBed(
        key_bits=KEY_BITS,
        dh_group=GROUP_TEST_512,
        suite=suite,
        key_transport=key_transport,
    )


def _writer_transform(direction: str, context_id: int, payload: bytes):
    """The 'malicious' writer: a legal modification the endpoint flags."""
    if direction == mk.C2S and context_id == 1:
        return payload + b" [rewritten by writer]"
    return None


# -- per-field sub-context rows (compact framing) ------------------------------

# Field geometry over the shared payloads: "hdr" is granted to the
# (record-level WRITE) middlebox, "body" is not.  Rewrites must be
# length-preserving — the compact framing's field schemas describe a
# fixed record layout, and the MAC prefix binds the payload length.
_FIELD_HDR = (0, 8)
_FIELD_BODY = (8, 38)

_FIELD_SCHEMA = FieldSchema(
    context_id=1,
    fields=(FieldDef("hdr", *_FIELD_HDR), FieldDef("body", _FIELD_BODY[0], 64)),
    write_grants={"hdr": (1,)},
)


def _field_rewrite(lo: int, hi: int):
    """A length-preserving in-place rewrite of payload bytes [lo, hi)."""

    def transform(direction: str, context_id: int, payload: bytes):
        if direction == mk.C2S and context_id == 1:
            mutated = bytearray(payload)
            for i in range(lo, min(hi, len(mutated))):
                mutated[i] ^= 0xFF
            return bytes(mutated)
        return None

    return transform


# -- warrant attackers (mdTLS delegation rows) --------------------------------

_DAY_MS = 86_400_000


class _RogueKeyClient(MdTLSClient):
    """Signs its warrants with a key that does not match its chain."""

    def __init__(self, *args, rogue_key=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._rogue_key = rogue_key

    def _make_warrants(self, now_ms):
        return [w.sign(self._rogue_key) for w in super()._make_warrants(now_ms)]


class _ExpiredWarrantClient(MdTLSClient):
    """Issues warrants whose validity window closed a day ago (the
    verification clock stays honest — only issuance is skewed)."""

    def _make_warrants(self, now_ms):
        return super()._make_warrants(now_ms - _DAY_MS)


class _ExpiredWarrantServer(MdTLSServer):
    def _make_warrants(self, now_ms):
        return super()._make_warrants(now_ms - _DAY_MS)


class _WideningClient(MdTLSClient):
    """Re-grants WRITE everywhere, beyond the READ ceiling it proposed."""

    def _make_warrants(self, now_ms):
        warrants = super()._make_warrants(now_ms)
        for warrant in warrants:
            for ctx_id in self.topology.context_ids:
                warrant.grants[ctx_id] = Permission.WRITE
            warrant.sign(self.config.identity.key)
        return warrants


class _ColludingMiddlebox(MdTLSMiddlebox):
    """Stores its warrants without verifying them — the rows built on it
    prove detection does not depend on honest middleboxes."""

    def _on_warrant_issue(self, issue, issuer_role):
        own = next((w for w in issue.warrants if w.mbox_id == self.mbox_id), None)
        if own is not None:
            if issuer_role == mdw.ISSUER_CLIENT:
                self._client_warrant = own
            else:
                self._server_warrant = own
        self._maybe_install_keys()


class _FlipWarrantSignature(HandshakeMutator):
    """On-path bit-flip in the last byte of a passing ``WarrantIssue`` —
    the tail of the last warrant's signature, so the flight still decodes
    but the signature no longer verifies."""

    name = "warrant-flip"
    mutation_class = "warrant-tampering"

    def __init__(self):
        self._done = False

    def mutate_message(self, msg_type, body, rng):
        if self._done or msg_type != tls_msgs.WARRANT_ISSUE or not body:
            return None
        self._done = True
        mutated = bytearray(body)
        mutated[-1] ^= 0x01
        return [(msg_type, bytes(mutated))]


def _warrant_parties(bed: TestBed, spec: CellSpec, seed: int, topology):
    """The mdTLS parties of a warrant row: the bed's, with the row's
    attacker in its slot.  One READ middlebox on both contexts — READ is
    the ceiling the widening rows must not be able to exceed."""
    row = (spec.detector, spec.mutation)
    config = bed.client_tls_config(with_identity=True)
    if row == ("middlebox", "forged-signature"):
        rogue_key = bed.forged_identity.key  # any bed key but the client's
        client = _RogueKeyClient(config, topology=topology, rogue_key=rogue_key)
    elif row == ("middlebox", "expired-window"):
        client = _ExpiredWarrantClient(config, topology=topology)
    elif spec.mutation == "widened-scope":
        client = _WideningClient(config, topology=topology)
    else:
        client = bed.make_client(Mode.MDTLS, topology)
    if row == ("client", "expired-window"):
        server = _ExpiredWarrantServer(bed.server_tls_config())
    else:
        server = bed.make_server(Mode.MDTLS)
    if row in (("server", "widened-scope"), ("client", "expired-window")):
        identity = bed.middlebox_identities(1)[0]
        relays = [_ColludingMiddlebox(identity.name, bed.mbox_tls_config(identity))]
    else:
        relays = [bed.make_relay(Mode.MDTLS, 0, 1)]
    if spec.mutation == "forged-onpath":
        # The flip lands past the middlebox, on the detector's side.
        hop = 1 if spec.detector == "server" else 0
        relays.insert(hop, TamperProxy(_plan_for(spec, seed)))
    return client, relays, server


# -- per-cell topology --------------------------------------------------------

# Permission grants per (attacker, detector): a list of per-middlebox
# permissions, applied to every context — contexts 1 and 2 (context 2
# exists so the context-swap mutator has a live target), or only
# context 1 for the field rows, whose one schema describes it.
_GRANTS: Dict[Tuple[str, str], List[Permission]] = {
    ("third-party", "endpoint"): [],
    ("third-party", "reader-mbox"): [Permission.READ],
    ("third-party", "writer-mbox"): [Permission.WRITE],
    ("handshake", "handshake"): [Permission.READ],
    ("reader", "endpoint"): [Permission.READ],
    ("reader", "reader-mbox"): [Permission.READ, Permission.READ],
    ("reader", "writer-mbox"): [Permission.READ, Permission.WRITE],
    ("writer", "endpoint"): [Permission.WRITE],
    ("writer", "reader-mbox"): [Permission.WRITE, Permission.READ],
    ("writer", "writer-mbox"): [Permission.WRITE, Permission.WRITE],
    ("field", "endpoint"): [Permission.WRITE],
    ("warrant", "middlebox"): [Permission.READ],
    ("warrant", "server"): [Permission.READ],
    ("warrant", "client"): [Permission.READ],
}


def _resumption(bed: TestBed, mode: Mode, topology, handshake: str):
    """Client and server keyword arguments for a handshake kind.  A
    resumed kind's stores are seeded by one honest full handshake."""
    if handshake == "full":
        return {}, {}
    if handshake == "cache":
        client_kw = {"session_store": ClientSessionStore()}
        server_kw = {"session_cache": SessionCache()}
    else:
        client_kw = {"ticket_store": ClientSessionStore()}
        server_kw = {"ticket_manager": TicketKeyManager()}
    drive_handshake(
        bed.make_client(mode, topology, **client_kw),
        bed.make_relays(mode, len(topology.middleboxes)),
        bed.make_server(mode, **server_kw),
    )
    return client_kw, server_kw


def build_cell(spec: CellSpec, seed: int = SEED, record_index: int = 0, suite=None):
    """Fresh ``(client, relays, server)`` for one cell.

    ``suite`` selects the record cipher suite of the bed every party is
    built from (default SHA-CTR); Table 1 attribution is
    suite-independent because detection rides on the three HMAC-SHA256
    record MACs, not the bulk cipher — re-running the matrix under the
    OpenSSL suites proves it.
    """
    variant = spec.variant
    bed = _bed(suite or TestBed.suite, variant.key_transport)
    grants = _GRANTS[(spec.attacker, spec.detector)]
    permissions = {i + 1: grant for i, grant in enumerate(grants)}
    topology = bed.topology(
        len(grants),
        contexts=[
            ContextDefinition(ctx_id, f"context-{ctx_id}", dict(permissions))
            for ctx_id in ((1,) if spec.attacker == "field" else (1, 2))
        ],
    )
    if spec.attacker == "warrant":
        return _warrant_parties(bed, spec, seed, topology)

    mode = variant.mode
    client_kw, server_kw = _resumption(bed, mode, topology, variant.handshake)
    if spec.attacker == "field":
        client_kw.update(framing="mctls-compact", field_schemas=(_FIELD_SCHEMA,))
    client = bed.make_client(mode, topology, **client_kw)
    server = bed.make_server(mode, **server_kw)
    relays = bed.make_relays(mode, len(grants))

    if spec.attacker in ("reader", "writer") or spec.mutation.startswith("rewrite-"):
        # An insider takes the first middlebox's slot.
        identity = bed.middlebox_identities(1)[0]
        config = bed.mbox_tls_config(identity)
        if spec.attacker == "reader":
            relays[0] = MaliciousReader(identity.name, config, target_context=1)
        else:
            transform = _writer_transform
            if spec.attacker == "field":
                granted = spec.mutation == "rewrite-granted"
                transform = _field_rewrite(*(_FIELD_HDR if granted else _FIELD_BODY))
            relays[0] = McTLSMiddlebox(identity.name, config, transformer=transform)
    else:
        # A key-less third party: ahead of every middlebox, or past the
        # field rows' writer.
        hop = len(relays) if spec.attacker == "field" else 0
        relays.insert(hop, TamperProxy(_plan_for(spec, seed, record_index)))
    return client, relays, server


def _handshake_mutator(spec: CellSpec) -> Tuple[HandshakeMutator, str]:
    """Fresh (mutator, direction) — handshake mutators are stateful."""
    if spec.mutation == "hs-drop-client-key-exchange":
        return DropHandshakeMessage(tls_msgs.CLIENT_KEY_EXCHANGE), mk.C2S
    if spec.mutation == "hs-flip-server-key-exchange":
        return FlipHandshakeBit(tls_msgs.SERVER_KEY_EXCHANGE), mk.S2C
    if spec.mutation == "hs-escalate-permission":
        return EscalatePermission(mbox_id=1, context_id=1), mk.C2S
    if spec.mutation == "forged-onpath":
        direction = mk.C2S if spec.detector == "server" else mk.S2C
        return _FlipWarrantSignature(), direction
    raise KeyError(spec.mutation)


def _plan_for(spec: CellSpec, seed: int, record_index: int = 0) -> TamperPlan:
    if spec.attacker in ("handshake", "warrant"):
        mutator, direction = _handshake_mutator(spec)
        return TamperPlan(seed=seed, handshake_mutator=mutator, direction=direction)
    if spec.attacker == "field":
        record_mutator = FlipFieldRegionBit(*_FIELD_BODY)
    else:
        record_mutator = standard_record_mutators(swap_to=2)[spec.mutation]
    return TamperPlan(
        seed=seed,
        record_mutator=record_mutator,
        record_index=record_index,
        direction=mk.C2S,
    )


# -- running cells -------------------------------------------------------------


def _classify_failure(exc: Exception, in_handshake: bool) -> CellResult:
    info = failure_info(exc)
    where = getattr(info, "where", None)
    if in_handshake:
        reason = getattr(info, "reason", None)
        return CellResult(Outcome.HANDSHAKE_FAILED, detected_by=where, reason=reason)
    if isinstance(info, mrec.MacVerificationError):
        return CellResult(Outcome.ILLEGAL, mac=info.mac, detected_by=where)
    return CellResult(Outcome.MALFORMED, detected_by=where)


def run_cell(
    spec: CellSpec, seed: int = SEED, burst: bool = False, suite=None
) -> CellResult:
    """Run one cell of the matrix and classify the detection outcome.

    With ``burst=True`` the application phase queues three records and
    pumps them through the chain as ONE multi-record flight, with the
    tampering aimed at the middle record (``record_index=1``).  Every
    record of the flight takes the one record path, so the mutation
    lands between two good records instead of on a lone one.  Table 1
    attribution (outcome, MAC slot, detecting party) must not depend on
    where in a flight the record sat; ``tests/test_fault_matrix.py``
    asserts both axes produce identical attribution.
    """
    client, relays, server = build_cell(
        spec, seed, record_index=1 if burst else 0, suite=suite
    )
    in_handshake = spec.attacker in ("handshake", "warrant")
    try:
        chain = drive_handshake(client, relays, server)
    except (TLSError, RuntimeError) as exc:
        if in_handshake:
            return _classify_failure(exc, in_handshake)
        raise
    if in_handshake:
        return CellResult(Outcome.ACCEPTED)
    if spec.variant.handshake != "full" and not client.resumed:
        raise RuntimeError(f"the client did not resume for {spec}")

    server_events: List[object] = []
    chain.on_server_event = server_events.append
    try:
        if burst:
            for payload in (PAYLOAD_1, PAYLOAD_2, PAYLOAD_3):
                client.send_application_data(payload, context_id=1)
            chain.pump()
        else:
            for payload in (PAYLOAD_1, PAYLOAD_2):
                client.send_application_data(payload, context_id=1)
                chain.pump()
    except TLSError as exc:
        return _classify_failure(exc, in_handshake)

    app = [e for e in server_events if isinstance(e, McTLSApplicationData)]
    legal = any(e.legally_modified for e in app)
    return CellResult(
        Outcome.LEGAL if legal else Outcome.ACCEPTED,
        delivered=tuple(e.data for e in app),
        legally_modified=legal,
    )


# -- the full matrix -----------------------------------------------------------

_RECORD_MUTATIONS = (
    "flip-payload",
    "flip-mac-endpoints",
    "flip-mac-writers",
    "flip-mac-readers",
    "truncate",
    "delete",
    "replay",
    "reorder",
    "context-swap",
    "version-confusion",
)

_DETECTORS = ("endpoint", "reader-mbox", "writer-mbox")

_HS_MUTATIONS = (
    "hs-drop-client-key-exchange",
    "hs-flip-server-key-exchange",
    "hs-escalate-permission",
)

# (detector, mutation, reason) per mdTLS warrant row.
_WARRANT_ROWS = (
    ("middlebox", "forged-signature", "forged"),
    ("middlebox", "expired-window", "expired"),
    ("middlebox", "widened-scope", "widened"),
    ("server", "forged-onpath", "forged"),
    ("server", "widened-scope", "widened"),
    ("client", "forged-onpath", "forged"),
    ("client", "expired-window", "expired"),
)


def _third_party_expected(mutation: str, detector: str) -> Expected:
    if mutation == "version-confusion":
        where = "endpoint" if detector == "endpoint" else "middlebox"
        return Expected(Outcome.MALFORMED, detected_by=where)
    if mutation == "flip-mac-endpoints":
        # Indistinguishable from a legal writer modification by design:
        # only MAC_endpoints mismatches, which is exactly the signal a
        # legal in-flight rewrite leaves behind.
        return Expected(Outcome.LEGAL)
    if mutation == "flip-mac-readers":
        if detector == "reader-mbox":
            return Expected(Outcome.ILLEGAL, mac=mrec.MAC_READERS, detected_by="middlebox")
        # Endpoints and writers never check MAC_readers (Table 1).
        return Expected(Outcome.ACCEPTED)
    if mutation == "flip-mac-writers" and detector == "reader-mbox":
        # A reader cannot check MAC_writers; the endpoint catches it.
        return Expected(Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="endpoint")
    # Everything else: the first checking party past the attacker.
    if detector == "endpoint":
        return Expected(Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="endpoint")
    if detector == "reader-mbox":
        return Expected(Outcome.ILLEGAL, mac=mrec.MAC_READERS, detected_by="middlebox")
    return Expected(Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="middlebox")


def expected_matrix() -> Dict[CellSpec, Expected]:
    """Table 1 as data: what every cell must produce.  The record rows
    expect the same in every session variant."""
    expected: Dict[CellSpec, Expected] = {}
    for variant in VARIANTS:
        for mutation in _RECORD_MUTATIONS:
            for detector in _DETECTORS:
                expected[CellSpec("third-party", detector, mutation, variant)] = (
                    _third_party_expected(mutation, detector)
                )
        # A malicious reader forges MAC_readers only.  Downstream readers
        # accept the forgery (the documented limitation — detected_by ==
        # "endpoint" in the reader-mbox cell proves the middlebox passed
        # it); the first writer or endpoint rejects via MAC_writers.
        for detector, where in (
            ("endpoint", "endpoint"),
            ("reader-mbox", "endpoint"),
            ("writer-mbox", "middlebox"),
        ):
            expected[CellSpec("reader", detector, "forge", variant)] = Expected(
                Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by=where
            )
        # A writer's modification is legal: flagged by the endpoint via
        # MAC_endpoints, accepted by every downstream party.
        for detector in _DETECTORS:
            expected[CellSpec("writer", detector, "transform", variant)] = Expected(
                Outcome.LEGAL
            )
    for mutation in _HS_MUTATIONS:
        expected[CellSpec("handshake", "handshake", mutation)] = Expected(
            Outcome.HANDSHAKE_FAILED
        )
    # Per-field sub-context rows (compact framing).  A record-level
    # writer rewriting a field it was granted is legal (flagged via
    # MAC_endpoints); rewriting an ungranted field passes the writer MAC
    # but fails that field's MAC — detected by the endpoint and
    # attributed *to the field*.  A key-less third party flipping bits
    # inside a field's byte range fails the record writer MAC first:
    # field MACs refine insider attribution, record MACs still cover the
    # wire.
    expected[CellSpec("field", "endpoint", "rewrite-granted")] = Expected(Outcome.LEGAL)
    expected[CellSpec("field", "endpoint", "rewrite-ungranted")] = Expected(
        Outcome.ILLEGAL, mac="field:body", detected_by="endpoint"
    )
    expected[CellSpec("field", "endpoint", "flip-field-region")] = Expected(
        Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="endpoint"
    )
    # mdTLS delegation rows: a forged, expired or scope-widened warrant
    # fails the handshake, attributed to the right party and reason.
    # The "server"/"client" rows route the defect past the middlebox (an
    # on-path flip after it, or a colluding middlebox that skips its own
    # checks), proving endpoint detection is independent of relay honesty.
    for detector, mutation, reason in _WARRANT_ROWS:
        expected[CellSpec("warrant", detector, mutation)] = Expected(
            Outcome.HANDSHAKE_FAILED, detected_by=detector, reason=reason
        )
    return expected


def all_cells() -> List[CellSpec]:
    return list(expected_matrix().keys())


def run_matrix(
    seed: int = SEED, burst: bool = False, suite=None
) -> Dict[CellSpec, CellResult]:
    """Run every cell; deterministic for a fixed seed."""
    return {spec: run_cell(spec, seed, burst=burst, suite=suite) for spec in all_cells()}


__all__ = [
    "CellResult",
    "CellSpec",
    "Expected",
    "Outcome",
    "PAYLOAD_1",
    "PAYLOAD_2",
    "PAYLOAD_3",
    "SEED",
    "VARIANTS",
    "Variant",
    "all_cells",
    "build_cell",
    "expected_matrix",
    "failure_info",
    "run_cell",
    "run_matrix",
]
