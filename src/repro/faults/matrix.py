"""Executable Table 1: the (role × permission × mutation) fault matrix.

Each :class:`CellSpec` is one cell of the paper's §3.4 detection table —
an attacker role (third party on the wire, a reader middlebox, a writer
middlebox, or a handshake-time tamperer), a detecting party (the
receiving endpoint, a reader middlebox, a writer middlebox, or the
handshake itself), a mutation, and the session :class:`Variant` it runs
under.  One per-party table says where a cell's attacker and honest
middleboxes sit and which grant each holds.  :func:`build_cell` builds
the cell from it on the experiment harness's own 512-bit
:class:`~repro.experiments.harness.TestBed` (topology, endpoints and
honest hops from the bed), with the attacker in its slot: a
:class:`TamperProxy`, :class:`MaliciousReader` or rewriting writer, or a
warrant-abusing endpoint or middlebox built from the bed's configs.
:func:`oracle` walks the same table: a record or field row's outcome
follows from the MAC keys its attacker holds and the verifiers past it.
:func:`expected_matrix` is the oracle over those rows, plus the
handshake and warrant rows written out as data.  :func:`run_cell`
pumps the handshake through the harness's one driver,
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
transport (DHE or RSA) and a handshake kind (full or cache-resumed).
The 36 record rows run under all 8 variants; the handshake, field and
warrant rows keep the default session (mcTLS, DHE, full), since their
mutators target messages a resumed handshake never sends — 301 cells.

The whole matrix is deterministic for a fixed seed: mutation positions
come from ``random.Random(seed)`` and payload lengths are fixed, so two
consecutive :func:`run_matrix` calls must produce identical outcomes
(asserted by ``tests/test_fault_matrix.py``).

Sessions use 512-bit RSA/DH test parameters and the harness's record
suite, ``TestBed.suite`` (SHA-CTR).  A stream suite matters: it
preserves byte positions, so the bit-flip mutators can address the
payload and each individual MAC slot inside the ciphertext.  (CBC
garbles whole blocks: under 0x0067 the third-party truncate and
context-swap rows collapse into a padding failure, ``MALFORMED`` with no
MAC — EXPERIMENTS.md.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed, drive_handshake
from repro.faults.attacker import MaliciousReader, TamperPlan, TamperProxy
from repro.faults.mutations import (
    SWAP_CONTEXT_ID,
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
    handshake: str = "full"  # or "cache" (resumed from the session cache)

    def __str__(self) -> str:
        return f"{self.mode.value}/{self.key_transport.name}/{self.handshake}"


VARIANTS = tuple(
    Variant(mode, key_transport, handshake)
    for mode in (Mode.MCTLS, Mode.MCTLS_CKD)
    for key_transport in (KeyTransport.DHE, KeyTransport.RSA)
    for handshake in ("full", "cache")
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
        """Exact: outcome, MAC, detecting party and reason all equal."""
        return all(getattr(result, f.name) == getattr(self, f.name) for f in fields(self))


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
def _bed(key_transport: KeyTransport) -> TestBed:
    """One cached bed per key transport: key generation is the expensive
    part, so every cell of a run shares it."""
    return TestBed(key_bits=KEY_BITS, dh_group=GROUP_TEST_512, key_transport=key_transport)


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
_FIELD_RANGES = {"hdr": (0, 8), "body": (8, 38)}

_FIELD_SCHEMA = FieldSchema(
    context_id=1,
    fields=(FieldDef("hdr", *_FIELD_RANGES["hdr"]), FieldDef("body", 8, 64)),
    write_grants={"hdr": (1,)},
)

# The field each field row changes: the writer rewrites its granted
# "hdr" or its ungranted "body"; a third party past it flips a bit in
# "body".  Field MACs refine an insider's attribution; the record MACs
# still catch a key-less third party first.
_FIELD_ROWS = {
    "rewrite-granted": "hdr",
    "rewrite-ungranted": "body",
    "flip-field-region": "body",
}


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


# -- the per-party table -------------------------------------------------------

_R, _W = Permission.READ, Permission.WRITE

# The record rows' attacker grant, and the honest middlebox past it that
# each detector column names.
_INSIDER = {"third-party": None, "reader": _R, "writer": _W}
_PAST = {"endpoint": (), "reader-mbox": (_R,), "writer-mbox": (_W,)}


def _path(spec: CellSpec):
    """The per-party table: a cell's parties between client and server,
    in path order — the honest middleboxes ahead of the attacker, the
    attacker's grant (``None``: a key-less third party, no middlebox id)
    and the honest middleboxes past it.  :func:`build_cell` builds the
    topology from it, :func:`oracle` walks it.  Grants apply to every
    context: 1 and ``SWAP_CONTEXT_ID`` (the context-swap's live target),
    or only 1 on a field row, whose one schema describes it."""
    if spec.attacker in _INSIDER:
        return (), _INSIDER[spec.attacker], _PAST[spec.detector]
    if spec.attacker == "field":
        if spec.mutation == "flip-field-region":
            return (_W,), None, ()
        return (), _W, ()
    # One READ middlebox: the handshake tamperer's neighbour, and the
    # ceiling the widening warrant rows must not be able to exceed (the
    # warrant rows choose their own attackers).
    return (), None, (_R,)


def _resumption(bed: TestBed, mode: Mode, topology, handshake: str):
    """Client and server keyword arguments for a handshake kind.  The
    resumed kind's stores are seeded by one honest full handshake."""
    if handshake == "full":
        return {}, {}
    client_kw = {"session_store": ClientSessionStore()}
    server_kw = {"session_cache": SessionCache()}
    drive_handshake(
        bed.make_client(mode, topology, **client_kw),
        bed.make_relays(mode, len(topology.middleboxes)),
        bed.make_server(mode, **server_kw),
    )
    return client_kw, server_kw


def build_cell(spec: CellSpec, seed: int = SEED, record_index: int = 0):
    """Fresh ``(client, relays, server)`` for one cell."""
    variant = spec.variant
    bed = _bed(variant.key_transport)
    upstream, attacker, downstream = _path(spec)
    grants = upstream + (() if attacker is None else (attacker,)) + downstream
    permissions = dict(enumerate(grants, 1))
    topology = bed.topology(
        len(grants),
        contexts=[
            ContextDefinition(ctx_id, f"context-{ctx_id}", dict(permissions))
            for ctx_id in ((1,) if spec.attacker == "field" else (1, SWAP_CONTEXT_ID))
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

    slot = len(upstream)
    if attacker is None:
        # A key-less third party takes a hop between two parties.
        relays.insert(slot, TamperProxy(_plan_for(spec, seed, record_index)))
        return client, relays, server
    # An insider takes its middlebox's slot.
    identity = bed.middlebox_identities(slot + 1)[slot]
    config = bed.mbox_tls_config(identity)
    if attacker is _R:
        relays[slot] = MaliciousReader(identity.name, config)
    else:
        transform = _writer_transform
        if spec.attacker == "field":
            transform = _field_rewrite(*_FIELD_RANGES[_FIELD_ROWS[spec.mutation]])
        relays[slot] = McTLSMiddlebox(identity.name, config, transformer=transform)
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
        mutator = FlipFieldRegionBit(*_FIELD_RANGES[_FIELD_ROWS[spec.mutation]])
    else:
        mutator = standard_record_mutators()[spec.mutation]
    return TamperPlan(seed=seed, record_mutator=mutator, record_index=record_index)


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


def run_cell(spec: CellSpec, seed: int = SEED, burst: bool = False) -> CellResult:
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
    client, relays, server = build_cell(spec, seed, record_index=1 if burst else 0)
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


# -- the oracle ----------------------------------------------------------------

# The record MACs a grant's holder can recompute (§3.4): a reader holds
# K_readers, a writer K_readers and K_writers; no middlebox holds
# K_endpoints.
_KEYS = {
    _R: frozenset({mrec.MAC_READERS}),
    _W: frozenset({mrec.MAC_READERS, mrec.MAC_WRITERS}),
}

# The one record MAC a middlebox verifies: a writer checks MAC_writers
# only, a reader MAC_readers (MiddleboxRecordProcessor.open_record).
_CHECKS = {_R: mrec.MAC_READERS, _W: mrec.MAC_WRITERS}


def oracle(spec: CellSpec) -> Expected:
    """Table 1's rule over key sets for a record or field row (§3.4).

    A slot flip makes that MAC stale; any change to a record's content
    or sequence makes every record MAC stale, plus, on a field row, the
    MAC of the field it touches (a field MAC covers the header prefix
    and its own bytes).  The attacker refreshes the stale MACs it holds
    keys for.  The first verifier past it that checks a MAC still stale
    rejects the record: each middlebox in path order, then the endpoint,
    which checks MAC_writers and each field MAC in schema order but never
    MAC_readers.  A stale MAC_endpoints alone is exactly the signal a
    legal writer rewrite leaves, so the endpoint flags it.  A forging
    reader thus passes every reader past it (the documented limitation);
    a version rewrite is malformed at the first party past the attacker.
    """
    upstream, attacker, downstream = _path(spec)
    if spec.mutation == "version-confusion":
        where = "middlebox" if downstream else "endpoint"
        return Expected(Outcome.MALFORMED, detected_by=where)
    schema = _FIELD_SCHEMA.fields if spec.attacker == "field" else ()
    keys = _KEYS.get(attacker, frozenset())
    if schema and attacker is not None:
        # A field row's writer also holds the keys of the fields its
        # middlebox id is granted.
        mbox_id = len(upstream) + 1
        grants = _FIELD_SCHEMA.write_grants.items()
        keys |= {f"field:{name}" for name, ids in grants if mbox_id in ids}
    if spec.mutation.startswith("flip-mac-"):
        stale = {spec.mutation[len("flip-mac-"):]}
    else:
        stale = {mrec.MAC_ENDPOINTS, mrec.MAC_WRITERS, mrec.MAC_READERS}
        if schema:
            stale.add(f"field:{_FIELD_ROWS[spec.mutation]}")
    stale -= keys
    for grant in downstream:
        if _CHECKS[grant] in stale:
            return Expected(Outcome.ILLEGAL, mac=_CHECKS[grant], detected_by="middlebox")
    for mac in (mrec.MAC_WRITERS, *(f"field:{f.name}" for f in schema)):
        if mac in stale:
            return Expected(Outcome.ILLEGAL, mac=mac, detected_by="endpoint")
    return Expected(Outcome.LEGAL if mrec.MAC_ENDPOINTS in stale else Outcome.ACCEPTED)


# -- the full matrix -----------------------------------------------------------

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


def expected_matrix() -> Dict[CellSpec, Expected]:
    """Table 1 as data: what every cell must produce.  The record rows,
    in every session variant, and the field rows are :func:`oracle`'s;
    the handshake and warrant rows are written out, since no key-set
    rule gives their outcomes."""
    record_rows = [("third-party", m) for m in standard_record_mutators()]
    record_rows += [("reader", "forge"), ("writer", "transform")]
    specs = [
        CellSpec(attacker, detector, mutation, variant)
        for variant in VARIANTS
        for attacker, mutation in record_rows
        for detector in _PAST
    ]
    expected = {spec: oracle(spec) for spec in specs}
    for mutation in _HS_MUTATIONS:
        expected[CellSpec("handshake", "handshake", mutation)] = Expected(
            Outcome.HANDSHAKE_FAILED
        )
    for mutation in _FIELD_ROWS:
        spec = CellSpec("field", "endpoint", mutation)
        expected[spec] = oracle(spec)
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


def run_matrix(seed: int = SEED, burst: bool = False) -> Dict[CellSpec, CellResult]:
    """Run every cell; deterministic for a fixed seed."""
    return {spec: run_cell(spec, seed, burst=burst) for spec in all_cells()}


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
    "oracle",
    "run_cell",
    "run_matrix",
]
