"""Executable Table 1: the (role × permission × mutation) fault matrix.

Each :class:`CellSpec` is one cell of the paper's §3.4 detection table —
an attacker role (third party on the wire, a reader middlebox, a writer
middlebox, or a handshake-time tamperer), a detecting party (the
receiving endpoint, a reader middlebox, a writer middlebox, or the
handshake itself), and a mutation.  :func:`run_cell` builds a fresh
mcTLS session with exactly that topology, injects the mutation
mid-session through the attacker machinery in
:mod:`repro.faults.attacker`, and classifies what happened:

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

The whole matrix is deterministic for a fixed seed: mutation positions
come from ``random.Random(seed)`` and payload lengths are fixed, so two
consecutive :func:`run_matrix` calls must produce identical outcomes
(asserted by ``tests/test_fault_matrix.py``).

Sessions use 512-bit RSA/DH test parameters and the SHA-CTR stream
suite.  The stream suite matters: it preserves byte positions, so the
bit-flip mutators can address the payload and each individual MAC slot
inside the ciphertext.  (CBC would garble whole blocks and every flip
would collapse into the same padding/decryption failure.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.crypto.certs import CertificateAuthority, Identity
from repro.crypto.dh import GROUP_TEST_512
from repro.faults.attacker import MaliciousReader, TamperPlan, TamperProxy
from repro.faults.mutations import (
    DropHandshakeMessage,
    EscalatePermission,
    FlipFieldRegionBit,
    FlipHandshakeBit,
    HandshakeMutator,
    standard_record_mutators,
)
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.faults.mutations import HandshakeMutator as _HandshakeMutatorBase
from repro.mctls import keys as mk
from repro.mctls import record as mrec
from repro.mctls.session import McTLSApplicationData
from repro.mdtls import MdTLSClient, MdTLSMiddlebox, MdTLSServer
from repro.mdtls import warrants as mdw
from repro.tls import messages as tls_msgs
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256
from repro.tls.connection import TLSConfig, TLSError
from repro.transport import Chain

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
class CellSpec:
    """One cell: who attacks, who should notice, with which mutation."""

    attacker: str  # "third-party" | "reader" | "writer" | "handshake" | "warrant"
    detector: str  # "endpoint" | "reader-mbox" | "writer-mbox" | "handshake"
    #                 (warrant rows: "client" | "server" | "middlebox")
    mutation: str  # mutator name, or "forge" / "transform"


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


# -- cached crypto material ---------------------------------------------------

_FIXTURE: Dict[str, object] = {}


def _fixture():
    """CA + server + two middlebox identities (key generation is the
    expensive part; every cell shares one set)."""
    if not _FIXTURE:
        ca = CertificateAuthority.create_root("Fault Harness CA", key_bits=KEY_BITS)
        _FIXTURE["ca"] = ca
        _FIXTURE["server"] = Identity.issued_by(ca, "server.example", key_bits=KEY_BITS)
        _FIXTURE["mboxes"] = [
            Identity.issued_by(ca, f"mbox{i}.example", key_bits=KEY_BITS)
            for i in (1, 2)
        ]
    return _FIXTURE["ca"], _FIXTURE["server"], _FIXTURE["mboxes"]


def _config(suite=None, **kwargs) -> TLSConfig:
    return TLSConfig(
        dh_group=GROUP_TEST_512,
        cipher_suites=(suite or SUITE_DHE_RSA_SHACTR_SHA256,),
        **kwargs,
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


def _field_schema():
    from repro.mctls.contexts import FieldDef, FieldSchema

    return FieldSchema(
        context_id=1,
        fields=(
            FieldDef("hdr", *_FIELD_HDR),
            FieldDef("body", _FIELD_BODY[0], 64),
        ),
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


class _FlipWarrantSignature(_HandshakeMutatorBase):
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


def _delegation_fixture():
    """The shared fixture plus client and rogue identities (mdTLS clients
    sign warrants, so the client is certified too)."""
    ca, server_identity, mbox_identities = _fixture()
    if "client" not in _FIXTURE:
        _FIXTURE["client"] = Identity.issued_by(ca, "client.example", key_bits=KEY_BITS)
        _FIXTURE["rogue"] = Identity.issued_by(ca, "rogue.example", key_bits=KEY_BITS)
    return ca, server_identity, mbox_identities, _FIXTURE["client"], _FIXTURE["rogue"]


def _build_delegation_session(spec: CellSpec, seed: int, suite=None):
    """Fresh mdTLS client / relays / server for one warrant cell.

    One READ middlebox on both contexts — READ is the ceiling the
    widening rows must not be able to exceed."""
    ca, server_identity, mbox_identities, client_identity, rogue = (
        _delegation_fixture()
    )
    mbox_identity = mbox_identities[0]
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, mbox_identity.name)],
        contexts=tuple(
            ContextDefinition(ctx_id, f"context-{ctx_id}", {1: Permission.READ})
            for ctx_id in (1, 2)
        ),
    )

    client_cls, client_kwargs = MdTLSClient, {}
    server_cls = MdTLSServer
    mbox_cls = MdTLSMiddlebox
    proxy_near_server = proxy_near_client = None

    key = (spec.detector, spec.mutation)
    if key == ("middlebox", "forged-signature"):
        client_cls, client_kwargs = _RogueKeyClient, {"rogue_key": rogue.key}
    elif key == ("middlebox", "expired-window"):
        client_cls = _ExpiredWarrantClient
    elif key == ("middlebox", "widened-scope"):
        client_cls = _WideningClient
    elif key == ("server", "forged-onpath"):
        proxy_near_server = TamperProxy(
            TamperPlan(
                seed=seed, handshake_mutator=_FlipWarrantSignature(), direction=mk.C2S
            )
        )
    elif key == ("server", "widened-scope"):
        client_cls, mbox_cls = _WideningClient, _ColludingMiddlebox
    elif key == ("client", "forged-onpath"):
        proxy_near_client = TamperProxy(
            TamperPlan(
                seed=seed, handshake_mutator=_FlipWarrantSignature(), direction=mk.S2C
            )
        )
    elif key == ("client", "expired-window"):
        server_cls, mbox_cls = _ExpiredWarrantServer, _ColludingMiddlebox
    else:
        raise KeyError(f"unknown warrant cell {spec}")

    client = client_cls(
        _config(
            suite=suite,
            identity=client_identity,
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
        ),
        topology=topology,
        **client_kwargs,
    )
    server = server_cls(
        _config(suite=suite, identity=server_identity, trusted_roots=[ca.certificate])
    )
    relays: List[object] = []
    if proxy_near_client is not None:
        relays.append(proxy_near_client)
    relays.append(
        mbox_cls(
            mbox_identity.name,
            _config(suite=suite, identity=mbox_identity, trusted_roots=[ca.certificate]),
        )
    )
    if proxy_near_server is not None:
        relays.append(proxy_near_server)
    return client, relays, server, Chain(client, relays, server)


def _build_field_session(
    spec: CellSpec, seed: int, record_index: int = 0, suite=None
):
    """Fresh compact-framed session for one per-field sub-context cell.

    One record-level WRITE middlebox, one context, one field schema
    granting it the "hdr" field only.  The "field" attacker is that
    middlebox abusing (or honouring) its field grants; the
    "flip-field-region" row is instead a key-less third party after the
    middlebox, flipping ciphertext inside the "body" byte range.
    """
    ca, server_identity, mbox_identities = _fixture()
    identity = mbox_identities[0]
    schema = _field_schema()
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, identity.name)],
        contexts=(ContextDefinition(1, "context-1", {1: Permission.WRITE}),),
    )
    client = McTLSClient(
        _config(
            suite=suite,
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            framing="mctls-compact",
            field_schemas=(schema,),
        ),
        topology=topology,
    )
    server = McTLSServer(
        _config(suite=suite, identity=server_identity, trusted_roots=[ca.certificate])
    )
    mbox_config = _config(suite=suite, identity=identity, trusted_roots=[ca.certificate])

    relays: List[object] = []
    if spec.mutation == "flip-field-region":
        relays.append(McTLSMiddlebox(identity.name, mbox_config))
        relays.append(
            TamperProxy(
                TamperPlan(
                    seed=seed,
                    record_mutator=FlipFieldRegionBit(*_FIELD_BODY),
                    record_index=record_index,
                    direction=mk.C2S,
                )
            )
        )
    else:
        lo, hi = _FIELD_HDR if spec.mutation == "rewrite-granted" else _FIELD_BODY
        relays.append(
            McTLSMiddlebox(identity.name, mbox_config, transformer=_field_rewrite(lo, hi))
        )
    return client, relays, server, Chain(client, relays, server)


# -- per-cell topology --------------------------------------------------------

# Permission grants per (attacker, detector): a list of per-middlebox
# permissions, applied to BOTH contexts (context 2 exists so the
# context-swap mutator has a live target).
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
}


def _build_session(spec: CellSpec, seed: int, record_index: int = 0, suite=None):
    """Fresh client / relays / server wired into a Chain for one cell.

    ``suite`` selects the record cipher suite every party negotiates
    (default SHA-CTR); Table 1 attribution is suite-independent because
    detection rides on the three HMAC-SHA256 record MACs, not the bulk
    cipher — re-running the matrix under the OpenSSL suites proves it.
    """
    ca, server_identity, mbox_identities = _fixture()
    grants = _GRANTS[(spec.attacker, spec.detector)]
    identities = mbox_identities[: len(grants)]

    middleboxes = [
        MiddleboxInfo(i + 1, identity.name) for i, identity in enumerate(identities)
    ]
    permissions = {i + 1: grant for i, grant in enumerate(grants)}
    contexts = tuple(
        ContextDefinition(ctx_id, f"context-{ctx_id}", dict(permissions))
        for ctx_id in (1, 2)
    )
    topology = SessionTopology(middleboxes=middleboxes, contexts=contexts)

    client = McTLSClient(
        _config(
            suite=suite,
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
        ),
        topology=topology,
    )
    server = McTLSServer(
        _config(suite=suite, identity=server_identity, trusted_roots=[ca.certificate])
    )

    relays: List[object] = []
    if spec.attacker in ("third-party", "handshake"):
        relays.append(TamperProxy(_plan_for(spec, seed, record_index)))
    for i, identity in enumerate(identities):
        config = _config(suite=suite, identity=identity, trusted_roots=[ca.certificate])
        if spec.attacker == "reader" and i == 0:
            relays.append(MaliciousReader(identity.name, config, target_context=1))
        elif spec.attacker == "writer" and i == 0:
            relays.append(
                McTLSMiddlebox(identity.name, config, transformer=_writer_transform)
            )
        else:
            relays.append(McTLSMiddlebox(identity.name, config))

    return client, relays, server, Chain(client, relays, server)


def _handshake_mutator(name: str) -> Tuple[HandshakeMutator, str]:
    """Fresh (mutator, direction) — handshake mutators are stateful."""
    if name == "hs-drop-client-key-exchange":
        return DropHandshakeMessage(tls_msgs.CLIENT_KEY_EXCHANGE), mk.C2S
    if name == "hs-flip-server-key-exchange":
        return FlipHandshakeBit(tls_msgs.SERVER_KEY_EXCHANGE), mk.S2C
    if name == "hs-escalate-permission":
        return EscalatePermission(mbox_id=1, context_id=1), mk.C2S
    raise KeyError(name)


def _plan_for(spec: CellSpec, seed: int, record_index: int = 0) -> TamperPlan:
    if spec.attacker == "handshake":
        mutator, direction = _handshake_mutator(spec.mutation)
        return TamperPlan(seed=seed, handshake_mutator=mutator, direction=direction)
    record_mutator = standard_record_mutators(swap_to=2)[spec.mutation]
    return TamperPlan(
        seed=seed,
        record_mutator=record_mutator,
        record_index=record_index,
        direction=mk.C2S,
    )


# -- running cells -------------------------------------------------------------


def _classify_failure(exc: TLSError) -> CellResult:
    info = failure_info(exc)
    if isinstance(info, mrec.MacVerificationError):
        return CellResult(Outcome.ILLEGAL, mac=info.mac, detected_by=info.where)
    return CellResult(Outcome.MALFORMED, detected_by=getattr(info, "where", None))


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
    if spec.attacker == "warrant":
        return _run_warrant_cell(spec, seed, suite=suite)
    builder = _build_field_session if spec.attacker == "field" else _build_session
    client, relays, server, chain = builder(
        spec, seed, record_index=1 if burst else 0, suite=suite
    )
    server_events: List[object] = []
    chain.on_server_event = server_events.append

    client.start_handshake()
    try:
        chain.pump()
    except TLSError:
        if spec.attacker == "handshake":
            return CellResult(Outcome.HANDSHAKE_FAILED)
        raise
    if spec.attacker == "handshake":
        if client.handshake_complete and server.handshake_complete:
            return CellResult(Outcome.ACCEPTED)
        return CellResult(Outcome.HANDSHAKE_FAILED)
    if not (client.handshake_complete and server.handshake_complete):
        raise RuntimeError(f"handshake did not complete for {spec}")

    try:
        if burst:
            client.send_application_data(PAYLOAD_1, context_id=1)
            client.send_application_data(PAYLOAD_2, context_id=1)
            client.send_application_data(PAYLOAD_3, context_id=1)
            chain.pump()
        else:
            client.send_application_data(PAYLOAD_1, context_id=1)
            chain.pump()
            client.send_application_data(PAYLOAD_2, context_id=1)
            chain.pump()
    except TLSError as exc:
        return _classify_failure(exc)

    app = [e for e in server_events if isinstance(e, McTLSApplicationData)]
    legal = any(e.legally_modified for e in app)
    return CellResult(
        Outcome.LEGAL if legal else Outcome.ACCEPTED,
        delivered=tuple(e.data for e in app),
        legally_modified=legal,
    )


def _run_warrant_cell(spec: CellSpec, seed: int, suite=None) -> CellResult:
    """Run one mdTLS warrant cell: the handshake must fail, and the
    ``WarrantError`` in the cause chain attributes who detected what."""
    client, relays, server, chain = _build_delegation_session(spec, seed, suite=suite)
    client.start_handshake()
    try:
        chain.pump()
    except TLSError as exc:
        info = failure_info(exc)
        return CellResult(
            Outcome.HANDSHAKE_FAILED,
            detected_by=getattr(info, "where", None),
            reason=getattr(info, "reason", None),
        )
    if client.handshake_complete and server.handshake_complete:
        return CellResult(Outcome.ACCEPTED)
    return CellResult(Outcome.HANDSHAKE_FAILED)


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

# Per-field sub-context rows (compact framing; attacker "field").
_FIELD_MUTATIONS = (
    "rewrite-granted",
    "rewrite-ungranted",
    "flip-field-region",
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
    """Table 1 as data: what every cell must produce."""
    expected: Dict[CellSpec, Expected] = {}
    for mutation in _RECORD_MUTATIONS:
        for detector in _DETECTORS:
            expected[CellSpec("third-party", detector, mutation)] = (
                _third_party_expected(mutation, detector)
            )
    # A malicious reader forges MAC_readers only.  Downstream readers
    # accept the forgery (the documented limitation — detected_by ==
    # "endpoint" in the reader-mbox cell proves the middlebox passed
    # it); the first writer or endpoint rejects via MAC_writers.
    expected[CellSpec("reader", "endpoint", "forge")] = Expected(
        Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="endpoint"
    )
    expected[CellSpec("reader", "reader-mbox", "forge")] = Expected(
        Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="endpoint"
    )
    expected[CellSpec("reader", "writer-mbox", "forge")] = Expected(
        Outcome.ILLEGAL, mac=mrec.MAC_WRITERS, detected_by="middlebox"
    )
    # A writer's modification is legal: flagged by the endpoint via
    # MAC_endpoints, accepted by every downstream party.
    for detector in _DETECTORS:
        expected[CellSpec("writer", detector, "transform")] = Expected(Outcome.LEGAL)
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
    "all_cells",
    "expected_matrix",
    "failure_info",
    "run_cell",
    "run_matrix",
]
