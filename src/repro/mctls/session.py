"""Shared mcTLS session machinery: events, modes, transcripts, base class.

:class:`McTLSConnectionBase` holds what client and server share of the
handshake, down to the table rows of the middlebox flights.

**Transcript canonicalisation.** In TLS the Finished hash covers handshake
messages in the order sent.  In mcTLS, middleboxes inject their flights
into different positions of the client-bound and server-bound streams, so
the two endpoints would observe different orders.  Our implementation
hashes messages in a *canonical* order derived from the session topology
(hellos, server flight, middlebox flights in path order, client key
exchange, key material in target order) — both endpoints can assemble it
independently of arrival order.  This is an implementation choice the
paper leaves open; it preserves the property the Finished exchange is for
(both endpoints saw the same messages).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Sequence

from repro import framing as frm
from repro.core.endpoint import table
from repro.core.events import ApplicationData, HandshakeComplete
from repro.crypto.certs import Certificate
from repro.crypto.hmaccache import CachedHmacSha256
from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import record as mrec
from repro.mctls.contexts import (
    ENDPOINT_CONTEXT_ID,
    ENDPOINT_TARGET,
    Permission,
    SessionTopology,
)
from repro.tls import keyschedule as ks
from repro.tls import messages as tls_msgs
from repro.tls import record as rec
from repro.tls.ciphersuites import CipherError, CipherSuite
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    ALERT_DECRYPT_ERROR,
    TAG_CLIENT_FINISHED,
    TAG_CLIENT_HELLO,
    TAG_CLIENT_KE,
    TAG_SERVER_CERT,
    TAG_SERVER_FINISHED,
    TAG_SERVER_HELLO,
    TAG_SERVER_HELLO_DONE,
    TAG_SERVER_KE,
    TLSConfig,
    TLSConnectionBase,
    TLSError,
    verify_peer_chain,
)


class HandshakeMode(IntEnum):
    """mcTLS handshake modes (§3.6), plus the mdTLS delegation mode."""

    DEFAULT = mm.MODE_DEFAULT
    CLIENT_KEY_DIST = mm.MODE_CLIENT_KEY_DIST
    DELEGATION = mm.MODE_DELEGATION


class KeyTransport(IntEnum):
    """How MiddleboxKeyMaterial is protected.

    ``DHE`` — pairwise ephemeral Diffie-Hellman with each middlebox
    (the paper's design, Figure 1; forward secret).
    ``RSA`` — hybrid encryption under the middlebox's certificate key
    (the paper's evaluated prototype, §5; no forward secrecy, but the
    middlebox does no DH work and sends no signed key exchanges).
    """

    DHE = mm.KT_DHE
    RSA = mm.KT_RSA


# The one-byte hello extension each enum travels in, and its name in errors.
_EXTENSIONS = {
    HandshakeMode: (mm.EXT_MCTLS_MODE, "mcTLS mode"),
    KeyTransport: (mm.EXT_MCTLS_KEY_TRANSPORT, "key transport"),
}


def negotiated(hello, kind, default=None):
    """A hello's :class:`HandshakeMode` or :class:`KeyTransport` byte
    (``default`` if absent), for all three roles: a bad one is a
    :class:`TLSError` wherever it arrives."""
    ext_type, what = _EXTENSIONS[kind]
    ext = hello.find_extension(ext_type)
    if ext is None and default is not None:
        return default
    if ext is None or len(ext) != 1:
        raise TLSError(f"missing or malformed {what} extension")
    try:
        return kind(ext[0])
    except ValueError:
        raise TLSError(f"unknown {what} {ext[0]}") from None


def proposed_topology(hello) -> SessionTopology:
    """The middlebox list and contexts a ClientHello proposes, read the
    same way by the server and by every middlebox on the path."""
    ext = hello.find_extension(tls_msgs.EXT_MIDDLEBOX_LIST)
    if ext is None:
        raise TLSError("ClientHello lacks the MiddleboxListExtension")
    return SessionTopology.decode(ext)


@dataclass(frozen=True)
class FramingOffer:
    """A decoded framing extension: the client's offer, or the server's
    verbatim echo of it (``raw``), which accepts it."""

    framing: frm.RecordFraming
    schemas: tuple
    raw: bytes


def framing_offer(hello) -> Optional[FramingOffer]:
    """A hello's framing extension (None if absent), for the server
    reading the offer and a middlebox reading the echo alike: an unknown
    framing, or one that cannot carry mcTLS records, is a
    :class:`TLSError` wherever it arrives."""
    ext = hello.find_extension(mm.EXT_MCTLS_FRAMING)
    if ext is None:
        return None
    framing_id, schemas = mm.decode_framing_offer(ext)
    try:
        framing = frm.framing_by_id(framing_id)
    except frm.FramingError as exc:
        raise TLSError(str(exc)) from None
    if not framing.carries_context_id:
        raise TLSError("offered framing cannot carry mcTLS records")
    return FramingOffer(framing, schemas, bytes(ext))


@dataclass
class McTLSHandshakeComplete(HandshakeComplete):
    """The mcTLS refinement of the shared :class:`HandshakeComplete`.

    Subclassing keeps generic drivers working —
    ``isinstance(event, HandshakeComplete)`` matches both — while adding
    the session's negotiated ``mode`` and middlebox/context ``topology``.
    Both are always set by the stack; the defaults exist only because the
    parent class has defaulted fields.
    """

    mode: HandshakeMode = None
    topology: SessionTopology = None


@dataclass
class McTLSSessionState:
    """Everything a resumed mcTLS session must reproduce exactly.

    Remembered server-side in a :class:`repro.tls.sessioncache.SessionCache`
    keyed by session id, and client-side keyed by endpoint name.  Beyond
    the plain-TLS master secret, an mcTLS session is defined by its
    middlebox/context topology, handshake mode and key transport — a
    resumption is honored only when all of them match, so a resumed
    session can never widen (or silently change) middlebox access.

    ``middlebox_certs`` is populated wherever key material is re-sealed
    on resumption (the client; the mdTLS server): the abbreviated flow has
    no DH exchange to derive pairwise keys from, so fresh context keys
    are sealed to each middlebox's certificate key.
    """

    session_id: bytes
    endpoint_secret: bytes
    cipher_suite_id: int
    mode: int
    key_transport: int
    topology_bytes: bytes
    middlebox_certs: Dict[int, Certificate] = field(default_factory=dict)

    store_namespace = "mctls"


@dataclass
class McTLSApplicationData(ApplicationData):
    """Application data received in one context.

    Subclasses the shared :class:`ApplicationData` so generic drivers
    match it.  ``legally_modified`` is True when the endpoint MAC did not
    match — i.e. a writer middlebox (legally) modified the record in
    flight.
    """

    legally_modified: bool = False


# -- transcript -------------------------------------------------------------
#
# The tags of the base handshake's messages (TAG_CLIENT_HELLO ...
# TAG_SERVER_FINISHED) are the handshake core's, in repro.tls.connection;
# these are the middlebox flights' and the key material's.


def tag_mbox_hello(mbox_id: int) -> str:
    return f"mbox_hello:{mbox_id}"


def tag_mbox_cert(mbox_id: int) -> str:
    return f"mbox_cert:{mbox_id}"


def tag_mbox_ke(mbox_id: int, direction: int) -> str:
    return f"mbox_ke:{mbox_id}:{direction}"


def tag_client_mkm(target: int) -> str:
    return f"client_mkm:{target}"


def tag_server_mkm(target: int) -> str:
    return f"server_mkm:{target}"


class TranscriptStore:
    """Raw handshake messages keyed by canonical tag."""

    def __init__(self) -> None:
        self._messages: Dict[str, bytes] = {}

    def add(self, tag: Optional[str], raw: bytes) -> None:
        # Untagged messages (the full handshake's Finished) stay out of
        # the canonical orders.
        if tag is None:
            return
        if tag in self._messages:
            raise TLSError(f"duplicate handshake message for {tag}")
        self._messages[tag] = raw

    def has(self, tag: str) -> bool:
        return tag in self._messages

    def hash_over(self, tags: List[str]) -> bytes:
        """SHA-256 over the concatenation of the tagged messages.

        Raises if any expected message is missing — an endpoint must have
        seen every message the canonical order requires.
        """
        missing = [t for t in tags if t not in self._messages]
        if missing:
            raise TLSError(f"transcript missing messages: {missing}")
        return hashlib.sha256(b"".join(self._messages[t] for t in tags)).digest()


@dataclass(frozen=True)
class TranscriptOrders:
    """The four canonical message orders a stack's Finished hashes cover.

    Each is a function ``(topology, mode, key_transport) -> tags``; a
    stack names its instance once (``McTLSConnectionBase.orders``) and
    client and server read the same one, so the two ends of a handshake
    cannot disagree about what a Finished covers.
    """

    full_client: Callable[..., List[str]]  # the client's Finished, full handshake
    full_server: Callable[..., List[str]]  # the server's Finished after it
    resumed_server: Callable[..., List[str]]  # abbreviated flow: server first
    resumed_client: Callable[..., List[str]]

    def covering(self, label: bytes, resumed: bool) -> Callable[..., List[str]]:
        """The order the Finished carrying ``label`` hashes."""
        if label == ks.LABEL_CLIENT_FINISHED:
            return self.resumed_client if resumed else self.full_client
        return self.resumed_server if resumed else self.full_server


def full_order_client_finished(
    topology: SessionTopology, mode: HandshakeMode, key_transport: KeyTransport
) -> List[str]:
    """Canonical message order covered by the client's Finished."""
    tags = [
        TAG_CLIENT_HELLO,
        TAG_SERVER_HELLO,
        TAG_SERVER_CERT,
        TAG_SERVER_KE,
        TAG_SERVER_HELLO_DONE,
    ]
    for mbox in topology.middleboxes:
        tags.append(tag_mbox_hello(mbox.mbox_id))
        tags.append(tag_mbox_cert(mbox.mbox_id))
        if key_transport is KeyTransport.DHE:
            tags.append(tag_mbox_ke(mbox.mbox_id, mm.TOWARD_CLIENT))
            if mode is HandshakeMode.DEFAULT:
                tags.append(tag_mbox_ke(mbox.mbox_id, mm.TOWARD_SERVER))
    tags.append(TAG_CLIENT_KE)
    for mbox in topology.middleboxes:
        tags.append(tag_client_mkm(mbox.mbox_id))
    tags.append(tag_client_mkm(ENDPOINT_TARGET))
    return tags


def full_order_server_finished(
    topology: SessionTopology, mode: HandshakeMode, key_transport: KeyTransport
) -> List[str]:
    """Canonical message order covered by the server's Finished."""
    tags = full_order_client_finished(topology, mode, key_transport)
    tags.append(TAG_CLIENT_FINISHED)
    if mode is HandshakeMode.DEFAULT:
        for mbox in topology.middleboxes:
            tags.append(tag_server_mkm(mbox.mbox_id))
        tags.append(tag_server_mkm(ENDPOINT_TARGET))
    return tags


def resumed_order_server_finished(
    topology: SessionTopology, mode: HandshakeMode, key_transport: KeyTransport
) -> List[str]:
    """Messages covered by the server's Finished in the abbreviated flow.

    The server finishes immediately after its ServerHello — no
    certificates, key exchanges or middlebox flights exist to cover.
    """
    return [TAG_CLIENT_HELLO, TAG_SERVER_HELLO]


def resumed_order_client_finished(
    topology: SessionTopology, mode: HandshakeMode, key_transport: KeyTransport
) -> List[str]:
    """Messages covered by the client's Finished in the abbreviated flow.

    Covers the server's Finished plus the fresh per-middlebox key
    material the client re-distributed, so the server detects any
    tampering with (or suppression of) the re-keying messages.
    """
    tags = [TAG_CLIENT_HELLO, TAG_SERVER_HELLO, TAG_SERVER_FINISHED]
    for mbox in topology.middleboxes:
        tags.append(tag_client_mkm(mbox.mbox_id))
    return tags


MCTLS_ORDERS = TranscriptOrders(
    full_client=full_order_client_finished,
    full_server=full_order_server_finished,
    resumed_server=resumed_order_server_finished,
    resumed_client=resumed_order_client_finished,
)


def make_secret() -> bytes:
    return os.urandom(48)


# -- connection base ---------------------------------------------------------


@dataclass
class MiddleboxState:
    """Everything an endpoint learns about one middlebox in a handshake."""

    mbox_id: int
    name: str
    random: Optional[bytes] = None
    chain: Sequence[Certificate] = ()
    ke_to_client: Optional[mm.MiddleboxKeyExchange] = None
    ke_to_server: Optional[mm.MiddleboxKeyExchange] = None
    pairwise: Optional[mk.PairwiseKeys] = None


class McTLSConnectionBase(TLSConnectionBase):
    """The mcTLS endpoint: the TLS handshake core
    (:class:`~repro.tls.connection.TLSConnectionBase`) over the three-MAC
    record layer and the canonical transcript store, plus the middlebox
    flights and the context keys.

    The base DHE-RSA steps — hellos, server flight, chain and
    ServerKeyExchange checks, ClientKeyExchange, ChangeCipherSpec and
    Finished — are the core's; this class overrides what mcTLS does
    differently with them: the premaster becomes the endpoint secret
    S_C-S, a Finished hashes one of :attr:`orders`, and the record layer
    arms per direction.  §3.5 / Fig. 1 is symmetric: client and server
    each authenticate every middlebox, run one DH with it, generate half
    of every context key and seal ``MiddleboxKeyMaterial``.  That work
    lives here once; ``is_client`` picks the direction-dependent argument
    (which random, which key exchange, which half goes first).  The role
    classes keep what only one side does: the hello extensions, the
    acceptance check of resumption (its one path is
    :mod:`repro.tls.sessioncache`'s), the order of their flights.
    """

    # Which messages each Finished covers, and what resumption remembers;
    # the delegation stack names its own of both.
    orders = MCTLS_ORDERS
    SessionState = McTLSSessionState
    # Whether remembered session state keeps the middlebox certificates
    # (whoever re-seals key material on resumption needs them).
    _keeps_middlebox_certs = False

    def __init__(self, config: TLSConfig, is_client: bool, verify_middleboxes: bool):
        super().__init__(
            config, is_client, mrec.McTLSRecordLayer(is_client=is_client), TranscriptStore()
        )
        self.verify_middleboxes = verify_middleboxes
        self.mode: HandshakeMode = HandshakeMode.DEFAULT
        self.key_transport: KeyTransport = KeyTransport.DHE
        # ``topology`` is what the client proposed; ``approved_topology``
        # what this endpoint itself grants (the client's own proposal,
        # the server's policy-clamped view of it).
        self.topology: Optional[SessionTopology] = None
        self.approved_topology: Optional[SessionTopology] = None
        self._secret = make_secret()  # own contribution: S_C / S_S
        # ``_dh`` (the core's) is the one ephemeral key pair for all peers.
        self._endpoint_secret: Optional[bytes] = None  # S_C-S
        # S_C-S's one HMAC key schedule: every block derived from it.
        self._endpoint_prf: Optional[CachedHmacSha256] = None
        self._endpoint_keys: Optional[mk.EndpointKeys] = None
        self._mboxes: Dict[int, MiddleboxState] = {}
        # Own partial keys per context (default mode), and the peer's
        # halves opened from its endpoint-addressed key material.
        self._reader_halves: Dict[int, bytes] = {}
        self._writer_halves: Dict[int, bytes] = {}
        self._peer_reader_halves: Dict[int, bytes] = {}
        self._peer_writer_halves: Dict[int, bytes] = {}
        # Full per-context keys, set once per handshake by
        # _establish_endpoint_keys outside a full default-mode handshake:
        # what CKD and mdTLS distribute, and both ends' resumption keys.
        self._ckd_keys: Dict[int, mk.ContextKeys] = {}
        # Record-framing negotiation: the client offers in its hello,
        # the server accepts by echoing the offer verbatim, and the
        # negotiated framing takes effect at the CCS boundary.
        self.negotiated_framing = frm.MCTLS_DEFAULT
        self._field_schemas: Sequence = ()
        # context_id -> per-field MAC blocks (tuple, schema order).
        self._field_keys: Dict[int, tuple] = {}

    # -- records -----------------------------------------------------------

    def send_application_data(self, data: bytes, context_id: int = 1) -> None:
        super().send_application_data(data, context_id)

    def _application_record(self, data: bytes, context_id: int) -> tuple:
        if context_id == ENDPOINT_CONTEXT_ID:
            raise TLSError("context 0 is reserved for the endpoints")
        return rec.APPLICATION_DATA, data, context_id

    def _dispatch_record(self, record: mrec.UnprotectedRecord) -> None:
        if record.content_type != rec.APPLICATION_DATA:
            self._dispatch_control_record(record.content_type, record.payload)
        elif not self.handshake_complete:
            raise TLSError("application data before handshake completion")
        else:
            self._emit(
                McTLSApplicationData(
                    data=record.payload,
                    context_id=record.context_id,
                    legally_modified=record.legally_modified,
                )
            )

    def _on_change_cipher_spec(self, message, raw) -> None:
        self.records.activate_read()

    def _activate_write(self) -> None:
        self.records.activate_write()

    # -- middlebox flights ---------------------------------------------------

    def _set_topology(self, proposed: SessionTopology, approved: SessionTopology) -> None:
        self.topology = proposed
        self.approved_topology = approved
        self._mboxes = {
            m.mbox_id: MiddleboxState(mbox_id=m.mbox_id, name=m.name)
            for m in proposed.middleboxes
        }

    def _mbox(self, mbox_id: int) -> MiddleboxState:
        try:
            return self._mboxes[mbox_id]
        except KeyError:
            raise TLSError(f"message from undeclared middlebox {mbox_id}") from None

    def _verifies_middleboxes(self) -> bool:
        # In client-key-distribution mode the server has relinquished
        # middlebox control entirely (Table 3: server Asym Verify = 0).
        return (
            self.verify_middleboxes
            and (self.is_client or self.mode is not HandshakeMode.CLIENT_KEY_DIST)
        )

    def _on_middlebox_hello(self, hello: mm.MiddleboxHello, raw) -> None:
        self._mbox(hello.mbox_id).random = hello.random

    def _on_middlebox_certificate(self, message: mm.MiddleboxCertificateMessage, raw) -> None:
        state = self._mbox(message.mbox_id)
        if not message.chain:
            raise TLSError("middlebox sent an empty certificate chain", ALERT_BAD_CERTIFICATE)
        if self._verifies_middleboxes():
            verify_peer_chain(
                message.chain,
                self.config.trusted_roots,
                f"middlebox {state.name!r} certificate verification failed",
                expected_subject=state.name,
                alert=ALERT_BAD_CERTIFICATE,
            )
        state.chain = message.chain

    def _on_middlebox_key_exchange(self, ke: mm.MiddleboxKeyExchange, raw) -> None:
        if self.key_transport is KeyTransport.RSA:
            raise TLSError("unexpected middlebox key exchange in RSA transport")
        state = self._mbox(ke.mbox_id)
        if state.random is None or not state.chain:
            raise TLSError("middlebox key exchange before its hello/certificate")
        toward_client = ke.direction == mm.TOWARD_CLIENT
        if self._verifies_middleboxes():
            endpoint_random = self._client_random if toward_client else self._server_random
            signed = ke.signed_bytes(state.random, endpoint_random)
            if not state.chain[0].public_key.verify(signed, ke.signature):
                raise TLSError(
                    f"middlebox {state.name!r} key exchange signature invalid",
                    ALERT_DECRYPT_ERROR,
                )
        if toward_client:
            state.ke_to_client = ke
        else:
            state.ke_to_server = ke

    @staticmethod
    def middlebox_flight(state) -> dict:
        """The rows of the middlebox flights, which reach an endpoint in
        ``state`` and leave it there."""
        base = McTLSConnectionBase
        # fmt: off
        return table(
            (state, mm.MiddleboxHello, base._on_middlebox_hello,
             state, lambda m: tag_mbox_hello(m.mbox_id)),
            (state, mm.MiddleboxCertificateMessage, base._on_middlebox_certificate,
             state, lambda m: tag_mbox_cert(m.mbox_id)),
            (state, mm.MiddleboxKeyExchange, base._on_middlebox_key_exchange,
             state, lambda m: tag_mbox_ke(m.mbox_id, m.direction)),
        )
        # fmt: on

    def _check_middlebox_flights_complete(self) -> None:
        for state in self._mboxes.values():
            if state.random is None or not state.chain:
                raise TLSError(f"incomplete handshake flight from middlebox {state.mbox_id}")
            if self.key_transport is KeyTransport.RSA:
                continue  # no key exchanges in RSA transport
            if state.ke_to_client is None:
                raise TLSError(f"incomplete handshake flight from middlebox {state.mbox_id}")
            if self.mode is HandshakeMode.DEFAULT and state.ke_to_server is None:
                raise TLSError(
                    f"middlebox {state.mbox_id} sent no server-directed key exchange"
                )

    # -- endpoint secret, framing, Finished ----------------------------------

    def _use_suite(self, suite: CipherSuite) -> None:
        super()._use_suite(suite)
        self.records.set_suite(suite)

    def _use_premaster(self, premaster: bytes) -> None:
        """mcTLS: S_C-S from the premaster keys the endpoint channel; the
        negotiated framing takes its field keys from it."""
        self._establish_endpoint_keys(
            mk.derive_pairwise(premaster, self._client_random, self._server_random).secret
        )
        self._setup_negotiated_framing()

    def _adopt_session(self, cached: McTLSSessionState) -> None:
        """Resumed: the cached S_C-S, and fresh context keys from it and
        the fresh randoms; the peer derives the same ones independently,
        and the client re-distributes them to the middleboxes."""
        self._establish_endpoint_keys(cached.endpoint_secret)
        self._install_context_keys(self._ckd_keys)

    def _establish_endpoint_keys(self, endpoint_secret: bytes) -> None:
        """Adopt S_C-S (fresh from the DH exchange, or cached on
        resumption) and key the endpoint channel from it.  Unless both
        endpoints contribute halves (a full default-mode handshake),
        every context's full keys come from it too, here and only here."""
        self._endpoint_secret = endpoint_secret
        self._endpoint_prf = CachedHmacSha256(endpoint_secret)
        self._endpoint_keys = mk.derive_endpoint_keys(
            self._endpoint_prf, self._client_random, self._server_random
        )
        self.records.set_endpoint_keys(self._endpoint_keys)
        if not self._combines_halves():
            self._ckd_keys = self._full_context_keys()

    def _combines_halves(self) -> bool:
        """Both endpoints contribute key halves (default mode, full
        handshake); otherwise context keys are full blocks from S_C-S."""
        return self.mode is HandshakeMode.DEFAULT and not self.resumed

    def _setup_negotiated_framing(self) -> None:
        """Derive per-field MAC keys and arm the negotiated framing.

        Field keys are derived from the *endpoint* secret — only the two
        endpoints hold it, so a middlebox granted one field can never
        forge another field's MAC — and take effect (with the framing)
        at the CCS boundary, exactly like cipher activation.
        """
        if self.negotiated_framing is frm.MCTLS_DEFAULT:
            return
        if self.negotiated_framing.field_macs:
            for schema in self._field_schemas:
                self._field_keys[schema.context_id] = mk.derive_field_keys(
                    self._endpoint_prf,
                    self._client_random,
                    self._server_random,
                    schema,
                )
        self.records.set_framing(
            self.negotiated_framing, self._field_schemas, self._field_keys
        )

    def _verify_data(self, label: bytes, received: bool = False) -> bytes:
        """verify_data over the canonical order of :attr:`orders` that the
        Finished carrying ``label`` covers (arrival order does not count)."""
        order = self.orders.covering(label, self.resumed)
        tags = order(self.topology, self.mode, self.key_transport)
        return ks.finished_verify_data(
            self._endpoint_prf, label, self.transcript.hash_over(tags)
        )

    def _emit_handshake_complete(self) -> None:
        self.handshake_complete = True
        self._emit(
            McTLSHandshakeComplete(
                cipher_suite=self.negotiated_suite.name,
                mode=self.mode,
                topology=self.topology,
                peer_certificate=self.peer_certificate,
                resumed=self.resumed,
            )
        )

    def _session_state(self, session_id: bytes) -> McTLSSessionState:
        """What a later resumption of this (completed) session needs."""
        certs = {}
        if self._keeps_middlebox_certs:
            certs = {
                mbox_id: state.chain[0]
                for mbox_id, state in self._mboxes.items()
                if state.chain
            }
        return self.SessionState(
            session_id=session_id,
            endpoint_secret=self._endpoint_secret,
            cipher_suite_id=self.negotiated_suite.suite_id,
            mode=int(self.mode),
            key_transport=int(self.key_transport),
            topology_bytes=self.topology.encode(),
            middlebox_certs=certs,
        )

    # -- context key material ------------------------------------------------

    def _generate_partial_keys(self) -> None:
        """This endpoint's half of every context key (default mode), all
        under one key schedule of its own secret."""
        own = CachedHmacSha256(self._secret)
        for ctx_id in self.topology.context_ids:
            self._reader_halves[ctx_id] = mk.partial_reader_key(own, self._random, ctx_id)
            self._writer_halves[ctx_id] = mk.partial_writer_key(own, self._random, ctx_id)

    def _full_context_keys(self) -> Dict[int, mk.ContextKeys]:
        """Full per-context keys straight from the endpoint secret:
        resumption labels in the abbreviated flow, CKD labels otherwise."""
        derive = mk.resumption_context_keys if self.resumed else mk.ckd_context_keys
        return {
            ctx_id: derive(
                self._endpoint_prf, self._client_random, self._server_random, ctx_id
            )
            for ctx_id in self.topology.context_ids
        }

    def _install_context_keys(self, keys_by_context: Dict[int, mk.ContextKeys]) -> None:
        for ctx_id, keys in keys_by_context.items():
            self.records.install_context_keys(ctx_id, keys)

    def _install_combined_context_keys(self) -> None:
        for ctx_id in self.topology.context_ids:
            if not self._peer_reader_halves.get(ctx_id):
                raise TLSError(f"{self._peer} sent no key material for context {ctx_id}")
            own = (self._reader_halves[ctx_id], self._writer_halves[ctx_id])
            peer = (self._peer_reader_halves[ctx_id], self._peer_writer_halves[ctx_id])
            (c_reader, c_writer), (s_reader, s_writer) = (
                (own, peer) if self.is_client else (peer, own)
            )
            keys = mk.combine_context_keys(
                c_reader,
                s_reader,
                c_writer,
                s_writer,
                self._client_random,
                self._server_random,
            )
            self.records.install_context_keys(ctx_id, keys)

    def _shares_for_middlebox(self, mbox_id: int) -> List[mm.ContextKeyShare]:
        """Material for the contexts this endpoint grants ``mbox_id``."""
        shares = []
        for ctx in self.approved_topology.contexts:
            permission = ctx.permission_for(mbox_id)
            if permission.can_read:
                shares.append(self._context_share(ctx.context_id, permission))
        return shares

    def _context_share(self, ctx_id: int, permission: Permission) -> mm.ContextKeyShare:
        """The material this endpoint distributes for one context to a
        holder of ``permission``: its halves when the endpoints combine
        halves, otherwise the context's key blocks as the PRF emitted
        them."""
        if self._combines_halves():
            reader, writer = self._reader_halves[ctx_id], self._writer_halves[ctx_id]
        else:
            keys = self._ckd_keys[ctx_id]
            reader, writer = keys.reader_block, keys.writer_block
        return mm.ContextKeyShare(
            context_id=ctx_id,
            reader_material=reader,
            writer_material=writer if permission.can_write else b"",
        )

    def _field_keys_for_middlebox(self, mbox_id: int) -> Dict[int, Dict[int, bytes]]:
        """Per-context field keys for exactly the fields granted to
        ``mbox_id`` — holding a field key *is* the write grant.  They
        ride only the client's key material: they derive from the
        endpoint secret, so one distributor suffices."""
        granted: Dict[int, Dict[int, bytes]] = {}
        if not self.is_client:
            return granted
        for schema in self._field_schemas:
            keys = self._field_keys.get(schema.context_id)
            if keys is None:
                continue
            indexes = schema.writable_fields(mbox_id)
            if indexes:
                granted[schema.context_id] = {i: keys[i] for i in indexes}
        return granted

    def _seal(self, seal, *args) -> bytes:
        """``seal(suite, *args)`` — ``mk.authenc_seal`` or
        ``mk.rsa_hybrid_seal`` under the negotiated suite.  A cipher that
        fails here fails the handshake: the :class:`TLSError` closes the
        connection with one fatal alert."""
        try:
            return seal(self.negotiated_suite, *args)
        except CipherError as exc:
            raise TLSError(f"key material failed to seal: {exc}") from exc

    def _seal_for_middlebox(self, state: MiddleboxState, shares: bytes) -> bytes:
        """Seal encoded key shares for one middlebox: under the pairwise
        key from this endpoint's DH exchange with it (the paper's
        design), or to its certificate key (RSA transport, hybrid)."""
        if self.key_transport is KeyTransport.RSA:
            return self._seal(mk.rsa_hybrid_seal, state.chain[0].public_key, shares)
        ke = state.ke_to_client if self.is_client else state.ke_to_server
        ps = self._dh.combine(self._group.public_from_bytes(ke.dh_public))
        state.pairwise = mk.derive_pairwise(ps, self._random, state.random)
        return self._seal(mk.authenc_seal, state.pairwise.enc, state.pairwise.mac, shares)

    def _send_key_material_message(self, target: int, sealed: bytes) -> None:
        sender, tag = (
            (mm.SENDER_CLIENT, tag_client_mkm)
            if self.is_client
            else (mm.SENDER_SERVER, tag_server_mkm)
        )
        self._send_handshake(
            mm.MiddleboxKeyMaterial(sender=sender, target=target, sealed=sealed),
            tag=tag(target),
        )

    def _send_key_material(self) -> None:
        """One sealed ``MiddleboxKeyMaterial`` per middlebox, then the
        opposite endpoint's copy (every context) under the endpoint keys."""
        for mbox in self.topology.middleboxes:
            shares = mm.encode_key_shares(
                self._shares_for_middlebox(mbox.mbox_id),
                self._field_keys_for_middlebox(mbox.mbox_id),
            )
            self._send_key_material_message(
                mbox.mbox_id, self._seal_for_middlebox(self._mboxes[mbox.mbox_id], shares)
            )
        all_shares = [
            self._context_share(ctx_id, Permission.WRITE)
            for ctx_id in self.topology.context_ids
        ]
        keys = self._endpoint_keys
        own_dir = keys.c2s if self.is_client else keys.s2c
        sealed = self._seal(
            mk.authenc_seal, own_dir.enc, own_dir.mac, mm.encode_key_shares(all_shares)
        )
        self._send_key_material_message(ENDPOINT_TARGET, sealed)

    def _open_peer_key_material(self, mkm: mm.MiddleboxKeyMaterial) -> None:
        """The peer's endpoint-addressed key material: its context halves."""
        keys = self._endpoint_keys
        peer_dir = keys.s2c if self.is_client else keys.c2s
        try:
            plaintext = mk.authenc_open(
                self.negotiated_suite, peer_dir.enc, peer_dir.mac, mkm.sealed
            )
        except CipherError as exc:
            raise TLSError(f"{self._peer} key material failed to open: {exc}") from exc
        for share in mm.decode_key_shares(plaintext):
            self._peer_reader_halves[share.context_id] = share.reader_material
            self._peer_writer_halves[share.context_id] = share.writer_material
