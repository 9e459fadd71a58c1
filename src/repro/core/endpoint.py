"""The shared halves of the sans-I/O seam: one endpoint, one relay base.

:class:`Endpoint` is the :class:`~repro.core.interface.Connection`
plumbing every stack used to write out for itself — the out-queue
behind ``data_to_send`` / ``data_to_send_views``, ``receive_data`` with
its fail-once / fatal-alert / ``errors.fatal`` + ``handshake.failed``
accounting, handshake reassembly, alert handling, ``close`` and the
event seam.  ``TLSConnectionBase``, ``McTLSConnectionBase`` (hence
mdTLS) and ``PlainConnection`` extend it and supply only what differs:
the record layer, which record errors map to ``bad_record_mac``,
``_dispatch_record`` and ``send_application_data``.

It is also the one handshake engine: each role is a :func:`table` keyed
by ``(state, msg_type)``, and a message without a row is one
``unexpected_message`` failure.

:class:`RelayQueues` is the matching half of
:class:`~repro.core.interface.RelayProcessor`: the client-bound and
server-bound out-queues behind ``data_to_client/_server(_views)``.

The per-record path (``receive_data`` → ``read_all`` →
``_dispatch_record``) reaches a stack's own methods by inheritance only
— no wrapper object and no hook hop sits between a record and its
handler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.events import AlertReceived, ConnectionClosed, Event
from repro.core.instrument import record_event
from repro.framing import ALERT, CHANGE_CIPHER_SPEC, HANDSHAKE

# Alert descriptions (RFC 5246 §7.2).
ALERT_CLOSE_NOTIFY = 0
ALERT_UNEXPECTED_MESSAGE = 10
ALERT_BAD_RECORD_MAC = 20
ALERT_HANDSHAKE_FAILURE = 40
ALERT_BAD_CERTIFICATE = 42
ALERT_DECRYPT_ERROR = 51

ALERT_LEVEL_WARNING = 1
ALERT_LEVEL_FATAL = 2


class TLSError(Exception):
    """Fatal protocol failure; the connection is unusable afterwards."""

    def __init__(self, message: str, alert: int = ALERT_HANDSHAKE_FAILURE):
        super().__init__(message)
        self.alert = alert


# -- handshake framing -------------------------------------------------------


def frame(msg_type: int, body: bytes) -> bytes:
    """Add the handshake header: type(1) || length(3) || body."""
    if len(body) >= 1 << 24:
        raise ValueError("handshake message too long")
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


class HandshakeBuffer:
    """Reassembles handshake messages from record fragments."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    def next_message(self) -> Optional[Tuple[int, bytes, bytes]]:
        """Return (msg_type, body, raw_framed_bytes) or None if incomplete."""
        if len(self._buf) < 4:
            return None
        msg_type = self._buf[0]
        length = int.from_bytes(self._buf[1:4], "big")
        if len(self._buf) < 4 + length:
            return None
        raw = bytes(self._buf[: 4 + length])
        body = raw[4:]
        del self._buf[: 4 + length]
        return msg_type, body, raw

    @property
    def has_partial(self) -> bool:
        return bool(self._buf)


# -- transition tables -------------------------------------------------------

# Table keys that are not handshake message types: the ChangeCipherSpec
# record and a client's ``start_handshake()`` call.  Their rows decode
# and transcribe nothing.
CCS = "ChangeCipherSpec"
START = "start_handshake"


def table(*rows) -> Dict[tuple, tuple]:
    """``{(state, msg_type): (decoder, tag, tag function, handler, next)}``
    from ``(state, message, handler, next[, tag])`` rows.

    ``message`` is a message class (its ``msg_type`` the key, its
    ``decode`` the decoder) or :data:`CCS` / :data:`START`;
    ``handler(endpoint, message, raw)`` may return the next state, one of
    a tuple ``next``; ``tag`` is a transcript tag, ``None`` or a function
    of the decoded message.
    """
    transitions = {}
    for state, message, handler, next_state, *tag in rows:
        tag = tag[0] if tag else None
        sentinel = message in (CCS, START)
        transitions[(state, message if sentinel else message.msg_type)] = (
            None if sentinel else message,
            None if callable(tag) else tag,
            tag if callable(tag) else None,
            handler,
            next_state,
        )
    return transitions


# -- the endpoint base -------------------------------------------------------


class Endpoint:
    """Common machinery: out-queue, record intake, handshake buffer, events.

    ``records`` is the stack's record layer (``feed`` / ``read_all`` /
    ``encode``); the plaintext baseline has none and overrides
    ``receive_data``.  A stack with a handshake also sets ``transcript``,
    whose ``add(tag, raw)`` takes every message sent or received with its
    row's transcript tag.
    """

    # Record-layer exceptions this stack reports to the peer as
    # ``bad_record_mac`` (a TLSError keeps its own alert).
    _record_errors: Tuple[type, ...] = ()
    # The role's handshake: a :func:`table`; its constructor sets the
    # first ``_state``, and only the engine moves it afterwards.
    TRANSITIONS: Dict[tuple, tuple] = {}

    def __init__(self, records=None):
        self.records = records
        self._handshake_buf = HandshakeBuffer()
        # Outgoing bytes as a chunk list: encoders append whole records,
        # data_to_send_views() hands the chunks to scatter-gather writers
        # (sendmsg/writelines) without an intermediate join.
        self._out: List[bytes] = []
        self._events: List[Event] = []
        self.handshake_complete = False
        self.closed = False
        self.resumed = False
        # Instrumentation plane: None (the default) costs one attribute
        # load per hook site; attach a repro.core.Instruments to enable.
        self.instruments = None

    # -- transport-facing API ------------------------------------------

    def start_handshake(self) -> None:
        """Passive side by default; clients run their table's START row."""

    def data_to_send(self) -> bytes:
        data = b"".join(self._out)
        self._out.clear()
        return data

    def data_to_send_views(self) -> List[bytes]:
        """Pending output as a list of buffers for scatter-gather writes.

        The concatenation equals what :meth:`data_to_send` would have
        returned; transports may pass the list straight to
        ``socket.sendmsg`` / ``transport.writelines``.
        """
        views, self._out = self._out, []
        return views

    def receive_data(self, data: bytes) -> List[Event]:
        """Feed transport bytes; returns the events they produced."""
        if self.closed:
            return self._drain_events()
        self.records.feed(data)
        try:
            for record in self.records.read_all():
                self._dispatch_record(record)
        except self._record_errors as exc:
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

    def close(self) -> None:
        """Mark the connection closed and send close_notify."""
        if not self.closed:
            self.closed = True
            self._send_alert(ALERT_LEVEL_WARNING, ALERT_CLOSE_NOTIFY)

    # -- internals -------------------------------------------------------

    def _count_failure(self, exc: Exception) -> None:
        if self.instruments is None:
            return
        self.instruments.inc("errors.fatal")
        if not self.handshake_complete:
            self.instruments.inc("handshake.failed")
        mac = getattr(exc, "mac", None)
        if mac is not None:
            self.instruments.inc(f"mac.fail.{mac}")

    def _drain_events(self) -> List[Event]:
        events, self._events = self._events, []
        return events

    def _emit(self, event: Event) -> None:
        if self.instruments is not None:
            record_event(self.instruments, event)
        self._events.append(event)

    def _fail(self, exc: TLSError) -> None:
        if not self.closed:
            self.closed = True
            self._send_alert(ALERT_LEVEL_FATAL, exc.alert)
        raise exc

    def _send_alert(self, level: int, description: int) -> None:
        """Queue an alert — or drop it when the record layer cannot
        protect it (a cipher that keeps failing): the caller has already
        closed the connection, and only the alert is lost."""
        try:
            self._out.append(self.records.encode(ALERT, bytes([level, description])))
        except self._record_errors:
            pass

    def _send_record(self, *encode_args) -> None:
        """Encode and queue one application write.  A record error here
        has spent the write sequence number, so the connection is closed
        (without an alert, which would carry the wrong one) and the error
        raised to the writer."""
        try:
            self._out.append(self.records.encode(*encode_args))
        except self._record_errors:
            self.closed = True
            raise

    def _dispatch_control_record(self, content_type: int, payload: bytes) -> None:
        """Everything but application data: what ``_dispatch_record``
        falls through to once its own content type did not match."""
        if content_type == HANDSHAKE:
            self._handshake_buf.feed(payload)
            while True:
                message = self._handshake_buf.next_message()
                if message is None:
                    break
                msg_type, body, raw = message
                if self.instruments is not None:
                    self.instruments.inc("handshake.messages_in")
                self._handle_handshake_message(msg_type, body, raw)
        elif content_type == CHANGE_CIPHER_SPEC:
            if payload != b"\x01":
                raise TLSError("malformed ChangeCipherSpec")
            self._handle_handshake_message(CCS, payload, payload)
        elif content_type == ALERT:
            self._handle_alert(payload)
        else:  # pragma: no cover - the record layers already validate
            raise TLSError(f"unexpected content type {content_type}")

    def _handle_alert(self, payload: bytes) -> None:
        if len(payload) != 2:
            raise TLSError("malformed alert")
        level, description = payload
        self._emit(AlertReceived(level=level, description=description))
        if description == ALERT_CLOSE_NOTIFY or level == ALERT_LEVEL_FATAL:
            self.closed = True
            self._emit(ConnectionClosed())

    # -- the handshake engine ------------------------------------------------

    def _handle_handshake_message(self, msg_type, body, raw) -> None:
        """Look ``(state, msg_type)`` up in the role's table; on a hit
        decode, add to the transcript, run the handler and take the next
        state."""
        try:
            decoder, tag, tag_of, handler, next_state = self.TRANSITIONS[
                (self._state, msg_type)
            ]
        except KeyError:
            if msg_type is START:
                raise TLSError("handshake already started") from None
            what = CCS if msg_type is CCS else f"handshake message {msg_type}"
            raise TLSError(
                f"unexpected {what} in state {self._state.name}",
                ALERT_UNEXPECTED_MESSAGE,
            ) from None
        message = None
        if decoder is not None:
            message = decoder.decode(body)
            self.transcript.add(tag if tag_of is None else tag_of(message), raw)
        state = handler(self, message, raw)
        self._state = next_state if state is None else state

    # -- handshake helpers -------------------------------------------------

    def _send_handshake(self, message, tag: Optional[str] = None) -> None:
        """Frame, transcribe, record-encode and queue a handshake message."""
        raw = frame(message.msg_type, message.encode())
        self.transcript.add(tag, raw)
        if self.instruments is not None:
            self.instruments.inc("handshake.messages_out")
        self._out.append(self.records.encode(HANDSHAKE, raw))

    def _send_change_cipher_spec(self) -> None:
        self._out.append(self.records.encode(CHANGE_CIPHER_SPEC, b"\x01"))

    # -- subclass hooks ------------------------------------------------------

    def _dispatch_record(self, record) -> None:
        raise NotImplementedError


# -- the relay base ----------------------------------------------------------


class RelayQueues:
    """The two out-queues of a :class:`~repro.core.RelayProcessor`.

    Relays append whole chunks (one per forwarded record or read) to
    ``_to_client`` / ``_to_server``; the bytes and the views form of a
    side drain the same queue.
    """

    def __init__(self) -> None:
        self._to_client: List[bytes] = []
        self._to_server: List[bytes] = []

    def data_to_client(self) -> bytes:
        out = b"".join(self._to_client)
        self._to_client.clear()
        return out

    def data_to_server(self) -> bytes:
        out = b"".join(self._to_server)
        self._to_server.clear()
        return out

    def data_to_client_views(self) -> List[bytes]:
        """Pending client-bound output as buffers for scatter-gather writes."""
        views, self._to_client = self._to_client, []
        return views

    def data_to_server_views(self) -> List[bytes]:
        """Pending server-bound output as buffers for scatter-gather writes."""
        views, self._to_server = self._to_server, []
        return views
