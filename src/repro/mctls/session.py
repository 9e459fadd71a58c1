"""Shared mcTLS session machinery: events, modes, transcripts, base class.

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
from typing import Dict, List, Optional

from repro.crypto.certs import Certificate
from repro.mctls import messages as mm
from repro.mctls import record as mrec
from repro.mctls.contexts import (
    ENDPOINT_CONTEXT_ID,
    ENDPOINT_TARGET,
    SessionTopology,
)
from repro.tls import messages as tls_msgs
from repro.tls import record as rec
from repro.tls.ciphersuites import CipherSuite
from repro.core.events import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    Event,
    HandshakeComplete,
)
from repro.core.instrument import record_event
from repro.tls.connection import (
    ALERT_BAD_RECORD_MAC,
    ALERT_CLOSE_NOTIFY,
    ALERT_LEVEL_FATAL,
    ALERT_LEVEL_WARNING,
    TLSConfig,
    TLSError,
)
from repro.wire import DecodeError


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

    Stored server-side in a :class:`repro.tls.sessioncache.SessionCache`
    keyed by session id, and client-side keyed by endpoint name.  Beyond
    the plain-TLS master secret, an mcTLS session is defined by its
    middlebox/context topology, handshake mode and key transport — a
    resumption is honored only when all of them match, so a resumed
    session can never widen (or silently change) middlebox access.

    ``middlebox_certs`` is populated client-side only: on resumption the
    client re-distributes fresh context keys by sealing them to each
    middlebox's certificate key (there is no DH exchange to derive
    pairwise keys from in the abbreviated flow).
    """

    session_id: bytes
    endpoint_secret: bytes
    cipher_suite_id: int
    mode: int
    key_transport: int
    topology_bytes: bytes
    middlebox_certs: Dict[int, Certificate] = field(default_factory=dict)


def encode_ticket_state(state: McTLSSessionState) -> bytes:
    """Serialize what an mcTLS session ticket seals: the endpoint secret
    and — the security-critical part — the *full granted topology*, mode
    and key transport.  The server re-checks all of them against the new
    ClientHello before honoring the ticket, so a stateless resumption is
    exactly as narrow as the original grant.  ``middlebox_certs`` are
    deliberately absent: they are the *client's* material (needed to
    re-distribute fresh context keys) and never travel in the ticket."""
    from repro.wire import Writer

    w = Writer()
    w.vec8(state.endpoint_secret)
    w.u16(state.cipher_suite_id)
    w.u8(state.mode)
    w.u8(state.key_transport)
    w.vec16(state.topology_bytes)
    return w.bytes()


def decode_ticket_state(payload: bytes) -> McTLSSessionState:
    from repro.tls.tickets import TicketError
    from repro.wire import Reader

    try:
        r = Reader(payload)
        endpoint_secret = r.vec8()
        cipher_suite_id = r.u16()
        mode = r.u8()
        key_transport = r.u8()
        topology_bytes = r.vec16()
        r.expect_end()
    except DecodeError as exc:
        raise TicketError(f"malformed mcTLS ticket payload: {exc}") from exc
    return McTLSSessionState(
        session_id=b"",
        endpoint_secret=endpoint_secret,
        cipher_suite_id=cipher_suite_id,
        mode=mode,
        key_transport=key_transport,
        topology_bytes=topology_bytes,
    )


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

TAG_CLIENT_HELLO = "client_hello"
TAG_SERVER_HELLO = "server_hello"
TAG_SERVER_CERT = "server_cert"
TAG_SERVER_KE = "server_ke"
TAG_SERVER_HELLO_DONE = "server_hello_done"
TAG_CLIENT_KE = "client_ke"
TAG_CLIENT_FINISHED = "client_finished"
# Only the abbreviated flow tags the server's Finished: there the server
# finishes *first*, so the client's Finished must cover it.
TAG_SERVER_FINISHED = "server_finished"


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

    def add(self, tag: str, raw: bytes) -> None:
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


def canonical_order_t1(
    topology: SessionTopology,
    mode: HandshakeMode,
    key_transport: "KeyTransport" = None,
) -> List[str]:
    """Canonical message order covered by the client's Finished."""
    if key_transport is None:
        key_transport = KeyTransport.DHE
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


def canonical_order_t2(
    topology: SessionTopology,
    mode: HandshakeMode,
    key_transport: "KeyTransport" = None,
) -> List[str]:
    """Canonical message order covered by the server's Finished."""
    tags = canonical_order_t1(topology, mode, key_transport)
    tags.append(TAG_CLIENT_FINISHED)
    if mode is HandshakeMode.DEFAULT:
        for mbox in topology.middleboxes:
            tags.append(tag_server_mkm(mbox.mbox_id))
        tags.append(tag_server_mkm(ENDPOINT_TARGET))
    return tags


def resumed_order_server_finished() -> List[str]:
    """Messages covered by the server's Finished in the abbreviated flow.

    The server finishes immediately after its ServerHello — no
    certificates, key exchanges or middlebox flights exist to cover.
    """
    return [TAG_CLIENT_HELLO, TAG_SERVER_HELLO]


def resumed_order_client_finished(topology: SessionTopology) -> List[str]:
    """Messages covered by the client's Finished in the abbreviated flow.

    Covers the server's Finished plus the fresh per-middlebox key
    material the client re-distributed, so the server detects any
    tampering with (or suppression of) the re-keying messages.
    """
    tags = [TAG_CLIENT_HELLO, TAG_SERVER_HELLO, TAG_SERVER_FINISHED]
    for mbox in topology.middleboxes:
        tags.append(tag_client_mkm(mbox.mbox_id))
    return tags


def make_random() -> bytes:
    return os.urandom(tls_msgs.RANDOM_LEN)


def make_secret() -> bytes:
    return os.urandom(48)


# -- connection base ---------------------------------------------------------


class McTLSConnectionBase:
    """Common endpoint machinery over the mcTLS record layer."""

    def __init__(self, config: TLSConfig, is_client: bool):
        self.config = config
        self.records = mrec.McTLSRecordLayer(is_client=is_client)
        self._handshake_buf = tls_msgs.HandshakeBuffer()
        self.transcript = TranscriptStore()
        # Outgoing bytes as a chunk list: encoders append whole records,
        # data_to_send_views() hands the chunks to scatter-gather writers
        # (sendmsg/writelines) without an intermediate join.
        self._out: List[bytes] = []
        self._events: List[Event] = []
        self.handshake_complete = False
        self.closed = False
        self.resumed = False
        self.negotiated_suite: Optional[CipherSuite] = None
        self.peer_certificate: Optional[Certificate] = None
        # Instrumentation plane: None (the default) costs one attribute
        # load per hook site; attach a repro.core.Instruments to enable.
        self.instruments = None

    # -- transport-facing API ---------------------------------------------

    def start_handshake(self) -> None:
        """Passive side by default; the client subclass overrides."""

    def data_to_send(self) -> bytes:
        data = b"".join(self._out)
        self._out.clear()
        return data

    def data_to_send_views(self) -> List[bytes]:
        """Pending output as a list of buffers for scatter-gather writes.

        The concatenation equals what :meth:`data_to_send` would have
        returned; transports may pass the list straight to
        ``socket.sendmsg`` / ``StreamWriter.writelines``.
        """
        views, self._out = self._out, []
        return views

    def receive_data(self, data: bytes) -> List[Event]:
        if self.closed:
            return self._drain_events()
        self.records.feed(data)
        try:
            for record in self.records.read_all():
                self._dispatch_record(record)
        except (mrec.McTLSRecordError, DecodeError) as exc:
            if getattr(exc, "where", None) is None:
                exc.where = "endpoint"
            self._count_failure(exc)
            failure = TLSError(str(exc), ALERT_BAD_RECORD_MAC)
            failure.__cause__ = exc  # keep the detection outcome reachable
            self._fail(failure)
        except TLSError as exc:
            self._count_failure(exc)
            self._fail(exc)
        return self._drain_events()

    def receive_bytes(self, data: bytes) -> List[Event]:
        """Historical name for :meth:`receive_data`."""
        return self.receive_data(data)

    def _count_failure(self, exc: Exception) -> None:
        if self.instruments is None:
            return
        self.instruments.inc("errors.fatal")
        if not self.handshake_complete:
            self.instruments.inc("handshake.failed")
        mac = getattr(exc, "mac", None)
        if mac is not None:
            self.instruments.inc(f"mac.fail.{mac}")

    def send_application_data(self, data: bytes, context_id: int = 1) -> None:
        if not self.handshake_complete:
            raise TLSError("cannot send application data before handshake")
        if self.closed:
            raise TLSError("connection is closed")
        if context_id == ENDPOINT_CONTEXT_ID:
            raise TLSError("context 0 is reserved for the endpoints")
        if self.instruments is not None:
            self.instruments.inc("records.out")
            self.instruments.inc(f"context.{context_id}.bytes_out", len(data))
        self._out.append(self.records.encode(rec.APPLICATION_DATA, data, context_id))

    def close(self) -> None:
        if not self.closed:
            self._send_alert(ALERT_LEVEL_WARNING, ALERT_CLOSE_NOTIFY)
            self.closed = True

    # -- internals -----------------------------------------------------------

    def _drain_events(self) -> List[Event]:
        events, self._events = self._events, []
        return events

    def _emit(self, event: Event) -> None:
        if self.instruments is not None:
            record_event(self.instruments, event)
        self._events.append(event)

    def _fail(self, exc: TLSError) -> None:
        if not self.closed:
            self._send_alert(ALERT_LEVEL_FATAL, exc.alert)
            self.closed = True
        raise exc

    def _send_alert(self, level: int, description: int) -> None:
        self._out.append(
            self.records.encode(rec.ALERT, bytes([level, description]), ENDPOINT_CONTEXT_ID)
        )

    def _dispatch_record(self, record: mrec.UnprotectedRecord) -> None:
        if record.content_type == rec.HANDSHAKE:
            self._handshake_buf.feed(record.payload)
            while True:
                message = self._handshake_buf.next_message()
                if message is None:
                    break
                msg_type, body, raw = message
                if self.instruments is not None:
                    self.instruments.inc("handshake.messages_in")
                self._handle_handshake_message(msg_type, body, raw)
        elif record.content_type == rec.CHANGE_CIPHER_SPEC:
            if record.payload != b"\x01":
                raise TLSError("malformed ChangeCipherSpec")
            self._handle_change_cipher_spec()
        elif record.content_type == rec.ALERT:
            self._handle_alert(record.payload)
        elif record.content_type == rec.APPLICATION_DATA:
            if not self.handshake_complete:
                raise TLSError("application data before handshake completion")
            self._emit(
                McTLSApplicationData(
                    data=record.payload,
                    context_id=record.context_id,
                    legally_modified=record.legally_modified,
                )
            )
        else:  # pragma: no cover
            raise TLSError(f"unexpected content type {record.content_type}")

    def _handle_alert(self, payload: bytes) -> None:
        if len(payload) != 2:
            raise TLSError("malformed alert")
        level, description = payload
        self._emit(AlertReceived(level=level, description=description))
        if description == ALERT_CLOSE_NOTIFY or level == ALERT_LEVEL_FATAL:
            self.closed = True
            self._emit(ConnectionClosed())

    def _send_handshake(self, message, tag: Optional[str] = None) -> bytes:
        raw = tls_msgs.frame(message.msg_type, message.encode())
        if tag is not None:
            self.transcript.add(tag, raw)
        if self.instruments is not None:
            self.instruments.inc("handshake.messages_out")
        self._out.append(self.records.encode(rec.HANDSHAKE, raw, ENDPOINT_CONTEXT_ID))
        return raw

    def _send_change_cipher_spec(self) -> None:
        self._out.append(
            self.records.encode(rec.CHANGE_CIPHER_SPEC, b"\x01", ENDPOINT_CONTEXT_ID)
        )

    # -- subclass hooks --------------------------------------------------------

    def _handle_handshake_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        raise NotImplementedError

    def _handle_change_cipher_spec(self) -> None:
        raise NotImplementedError
