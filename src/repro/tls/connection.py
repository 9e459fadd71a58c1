"""Sans-I/O connection base shared by the TLS client and server.

A connection consumes raw transport bytes (``receive_data``) and produces
(1) raw bytes to write to the transport (``data_to_send``) and (2) a list
of high-level events (handshake completion, application data, alerts,
closure).  Nothing here ever touches a socket; transports live elsewhere.
The surface is the formal :class:`repro.core.Connection` protocol; the
event classes live in :mod:`repro.core.events` and are re-exported here
for compatibility.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.events import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    Event,
    HandshakeComplete,
    SessionClosed,
)
from repro.core.instrument import record_event
from repro.crypto.certs import Certificate, Identity
from repro.crypto.dh import DHGroup, GROUP_MODP_2048
from repro.tls import messages as msgs
from repro.tls import record as rec
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    CipherSuite,
)
from repro.wire import DecodeError

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


# -- configuration --------------------------------------------------------


@dataclass
class TLSConfig:
    """Static configuration shared by clients, servers and middleboxes."""

    identity: Optional[Identity] = None
    trusted_roots: Sequence[Certificate] = ()
    cipher_suites: Sequence[CipherSuite] = (SUITE_DHE_RSA_AES128_CBC_SHA256,)
    dh_group: DHGroup = GROUP_MODP_2048
    server_name: Optional[str] = None
    verify_certificates: bool = True
    # Record-framing negotiation (mcTLS stacks only; plain TLS ignores
    # both).  ``framing`` names a :mod:`repro.framing` instance the
    # client offers / the server accepts ("mctls-default" or
    # "mctls-compact"); ``field_schemas`` are the per-field sub-context
    # declarations (``repro.mctls.contexts.FieldSchema``) the compact
    # framing carries.
    framing: str = "mctls-default"
    field_schemas: Sequence = ()

    def suite_ids(self) -> List[int]:
        return [s.suite_id for s in self.cipher_suites]

    def suite_for_id(self, suite_id: int) -> Optional[CipherSuite]:
        for suite in self.cipher_suites:
            if suite.suite_id == suite_id:
                return suite
        return None


def make_random() -> bytes:
    return os.urandom(msgs.RANDOM_LEN)


# -- the connection base ---------------------------------------------------


class TLSConnectionBase:
    """Common machinery: record layer, handshake buffer, transcript, events."""

    def __init__(self, config: TLSConfig):
        self.config = config
        self.records = rec.RecordLayer()
        self._handshake_buf = msgs.HandshakeBuffer()
        self._transcript: List[bytes] = []
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

    # -- transport-facing API ------------------------------------------

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
        """Feed transport bytes; returns the events they produced."""
        if self.closed:
            return self._drain_events()
        self.records.feed(data)
        try:
            for content_type, plaintext in self.records.read_all():
                self._dispatch_record(content_type, plaintext)
        except (rec.RecordError, DecodeError) as exc:
            self._count_failure()
            self._fail(TLSError(str(exc), ALERT_BAD_RECORD_MAC))
        except TLSError as exc:
            self._count_failure()
            self._fail(exc)
        return self._drain_events()

    def receive_bytes(self, data: bytes) -> List[Event]:
        """Historical name for :meth:`receive_data`."""
        return self.receive_data(data)

    def _count_failure(self) -> None:
        if self.instruments is not None:
            self.instruments.inc("errors.fatal")
            if not self.handshake_complete:
                self.instruments.inc("handshake.failed")

    def send_application_data(self, data: bytes, context_id: int = 0) -> None:
        if not self.handshake_complete:
            raise TLSError("cannot send application data before handshake")
        if self.closed:
            raise TLSError("connection is closed")
        if self.instruments is not None:
            self.instruments.inc("records.out")
            self.instruments.inc(f"context.{context_id}.bytes_out", len(data))
        self._out.append(self.records.encode(rec.APPLICATION_DATA, data))

    def close(self) -> None:
        """Send close_notify and mark the connection closed."""
        if not self.closed:
            self._send_alert(ALERT_LEVEL_WARNING, ALERT_CLOSE_NOTIFY)
            self.closed = True

    # -- internals -------------------------------------------------------

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
        self._out.append(self.records.encode(rec.ALERT, bytes([level, description])))

    def _dispatch_record(self, content_type: int, plaintext: bytes) -> None:
        if content_type == rec.HANDSHAKE:
            self._handshake_buf.feed(plaintext)
            while True:
                message = self._handshake_buf.next_message()
                if message is None:
                    break
                msg_type, body, raw = message
                if self.instruments is not None:
                    self.instruments.inc("handshake.messages_in")
                self._handle_handshake_message(msg_type, body, raw)
        elif content_type == rec.CHANGE_CIPHER_SPEC:
            if plaintext != b"\x01":
                raise TLSError("malformed ChangeCipherSpec")
            self._handle_change_cipher_spec()
        elif content_type == rec.ALERT:
            self._handle_alert(plaintext)
        elif content_type == rec.APPLICATION_DATA:
            if not self.handshake_complete:
                raise TLSError("application data before handshake completion")
            self._emit(ApplicationData(data=plaintext))
        else:  # pragma: no cover - RecordLayer already validates
            raise TLSError(f"unexpected content type {content_type}")

    def _handle_alert(self, payload: bytes) -> None:
        if len(payload) != 2:
            raise TLSError("malformed alert")
        level, description = payload
        self._emit(AlertReceived(level=level, description=description))
        if description == ALERT_CLOSE_NOTIFY or level == ALERT_LEVEL_FATAL:
            self.closed = True
            self._emit(ConnectionClosed())

    # -- handshake helpers -------------------------------------------------

    def _send_handshake(self, message, transcript: bool = True) -> bytes:
        """Frame, record-encode and transmit a handshake message."""
        raw = msgs.frame(message.msg_type, message.encode())
        if transcript:
            self._transcript.append(raw)
        if self.instruments is not None:
            self.instruments.inc("handshake.messages_out")
        self._out.append(self.records.encode(rec.HANDSHAKE, raw))
        return raw

    def _send_change_cipher_spec(self) -> None:
        self._out.append(self.records.encode(rec.CHANGE_CIPHER_SPEC, b"\x01"))

    def _transcript_hash(self) -> bytes:
        return hashlib.sha256(b"".join(self._transcript)).digest()

    # -- subclass hooks ------------------------------------------------------

    def _handle_handshake_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        raise NotImplementedError

    def _handle_change_cipher_spec(self) -> None:
        raise NotImplementedError
