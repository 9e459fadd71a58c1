"""Sans-I/O connection base shared by the TLS client and server.

A connection consumes raw transport bytes (``receive_data``) and produces
(1) raw bytes to write to the transport (``data_to_send``) and (2) a list
of high-level events (handshake completion, application data, alerts,
closure).  Nothing here ever touches a socket; transports live elsewhere.
The surface is the formal :class:`repro.core.Connection` protocol and
its plumbing is the shared :class:`repro.core.endpoint.Endpoint`; the
alert codes, :class:`TLSError` and the event classes live under
:mod:`repro.core` and are re-exported here, where every stack imports
them from.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.endpoint import (
    ALERT_BAD_CERTIFICATE,
    ALERT_BAD_RECORD_MAC,
    ALERT_CLOSE_NOTIFY,
    ALERT_DECRYPT_ERROR,
    ALERT_HANDSHAKE_FAILURE,
    ALERT_LEVEL_FATAL,
    ALERT_LEVEL_WARNING,
    ALERT_UNEXPECTED_MESSAGE,
    Endpoint,
    TLSError,
)
from repro.core.events import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    Event,
    HandshakeComplete,
    SessionClosed,
)
from repro.crypto.certs import Certificate, CertificateError, Identity, verify_chain
from repro.crypto.dh import DHGroup, GROUP_MODP_2048
from repro.tls import messages as msgs
from repro.tls import record as rec
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    CipherSuite,
)
from repro.tls.sessioncache import TLSSessionState
from repro.wire import DecodeError

# -- configuration --------------------------------------------------------


@dataclass
class TLSConfig:
    """Static configuration shared by clients, servers and middleboxes."""

    identity: Optional[Identity] = None
    trusted_roots: Sequence[Certificate] = ()
    cipher_suites: Sequence[CipherSuite] = (SUITE_DHE_RSA_AES128_CBC_SHA256,)
    dh_group: DHGroup = GROUP_MODP_2048
    server_name: Optional[str] = None
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

    def first_supported(self, suite_ids: Sequence[int]) -> Optional[CipherSuite]:
        """The first of a peer's ``suite_ids`` this config supports."""
        return next(filter(None, map(self.suite_for_id, suite_ids)), None)


def make_random() -> bytes:
    return os.urandom(msgs.RANDOM_LEN)


class Transcript(list):
    """TLS's transcript: every handshake message, in the order sent or
    received (``add`` ignores the tag mcTLS's canonical store keys on)."""

    def add(self, tag: Optional[str], raw: bytes) -> None:
        self.append(raw)

    def digest(self, end: Optional[int] = None) -> bytes:
        """SHA-256 over the messages before index ``end`` (all of them by
        default)."""
        return hashlib.sha256(b"".join(self[:end])).digest()


def verify_peer_chain(
    chain: Sequence[Certificate],
    trusted_roots: Iterable[Certificate],
    what: str,
    expected_subject: Optional[str] = None,
    error=TLSError,
    **error_args,
) -> None:
    """The one certificate-chain check of every handshake.

    A chain that does not validate raises the caller's typed error —
    ``error(f"{what}: <reason>", **error_args)``, by default a
    :class:`TLSError` — which the connection reports to the peer.  Only
    :class:`CertificateError` is translated: anything else raised inside
    :func:`verify_chain` is a defect here, not a bad certificate, and
    propagates.
    """
    try:
        verify_chain(chain, trusted_roots, expected_subject=expected_subject)
    except CertificateError as exc:
        raise error(f"{what}: {exc}", **error_args) from exc


# -- the connection base ---------------------------------------------------


class TLSConnectionBase(Endpoint):
    """The TLS instance of the shared endpoint: the single-MAC record
    layer, the in-order transcript, and TLS's one-context records."""

    _record_errors = (rec.RecordError, DecodeError)
    SessionState = TLSSessionState  # what resumption remembers

    def __init__(self, config: TLSConfig):
        super().__init__(rec.RecordLayer())
        self.config = config
        self.transcript = Transcript()
        self.negotiated_suite: Optional[CipherSuite] = None
        self.peer_certificate: Optional[Certificate] = None

    def _session_state(self, session_id: bytes) -> TLSSessionState:
        """What a later resumption of this (completed) session needs."""
        return TLSSessionState(
            session_id=session_id,
            master_secret=self._master_secret,
            cipher_suite_id=self.negotiated_suite.suite_id,
            server_name=self.config.server_name or "",
        )

    def send_application_data(self, data: bytes, context_id: int = 0) -> None:
        if not self.handshake_complete:
            raise TLSError("cannot send application data before handshake")
        if self.closed:
            raise TLSError("connection is closed")
        if self.instruments is not None:
            self.instruments.inc("records.out")
            self.instruments.inc(f"context.{context_id}.bytes_out", len(data))
        self._send_record(rec.APPLICATION_DATA, data)

    def _dispatch_record(self, record) -> None:
        content_type, plaintext = record
        if content_type != rec.APPLICATION_DATA:
            self._dispatch_control_record(content_type, plaintext)
        elif not self.handshake_complete:
            raise TLSError("application data before handshake completion")
        else:
            self._emit(ApplicationData(data=plaintext))
