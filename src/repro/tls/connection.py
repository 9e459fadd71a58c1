"""The TLS 1.2 handshake core: the sans-I/O connection base of the TLS
client and server, which the mcTLS endpoints extend.

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
import hmac
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
    START,
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
from repro.tls import keyschedule as ks
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

# Canonical transcript tags of the messages every DHE-RSA handshake has.
# TLS's list transcript ignores them; mcTLS's ``TranscriptStore`` keys
# its canonical Finished orders on them.
TAG_CLIENT_HELLO = "client_hello"
TAG_SERVER_HELLO = "server_hello"
TAG_SERVER_CERT = "server_cert"
TAG_SERVER_KE = "server_ke"
TAG_SERVER_HELLO_DONE = "server_hello_done"
TAG_CLIENT_KE = "client_ke"
TAG_CLIENT_FINISHED = "client_finished"
TAG_SERVER_FINISHED = "server_finished"


class TLSConnectionBase(Endpoint):
    """The TLS 1.2 DHE-RSA handshake core, on TLS's single-MAC record
    layer and in-order transcript by default.

    Every step of the base handshake lives here once, for TLS and for
    mcTLS (whose :class:`~repro.mctls.session.McTLSConnectionBase`
    passes in its own record layer and transcript store): the hello
    randoms and suite selection, the server's flight and its resumed
    ServerHello echo, the client's chain and ServerKeyExchange checks,
    the ClientKeyExchange, and ChangeCipherSpec + Finished in both
    directions.  A stack overrides only what differs: what the premaster
    or a cached session turns into (:meth:`_use_premaster`,
    :meth:`_adopt_session`), what a Finished hashes
    (:meth:`_verify_data`), how a direction's protection is armed, and
    the hello extensions.  The role classes keep their transition
    tables and resumption rules; the server steps expect
    :class:`~repro.tls.sessioncache.ServerResumption` beside this base,
    the client steps :class:`~repro.tls.sessioncache.ClientResumption`.
    """

    _record_errors = (rec.RecordError, DecodeError)
    SessionState = TLSSessionState  # what resumption remembers

    def __init__(self, config: TLSConfig, is_client: bool, records=None, transcript=None):
        super().__init__(records if records is not None else rec.RecordLayer())
        self.config = config
        self.is_client = is_client
        self._peer = "server" if is_client else "client"  # for error texts
        self.transcript = transcript if transcript is not None else Transcript()
        self.negotiated_suite: Optional[CipherSuite] = None
        self.peer_certificate: Optional[Certificate] = None
        self._random = make_random()  # own hello random
        self._client_random: Optional[bytes] = self._random if is_client else None
        self._server_random: Optional[bytes] = None if is_client else self._random
        self._group: Optional[DHGroup] = None  # DH group of the server's key exchange
        self._dh = None  # own ephemeral key pair
        self._server_dh_public: Optional[int] = None
        self._master_secret: Optional[bytes] = None
        self._key_block: Optional[ks.KeyBlock] = None

    def _session_state(self, session_id: bytes) -> TLSSessionState:
        """What a later resumption of this (completed) session needs."""
        return TLSSessionState(
            session_id=session_id,
            master_secret=self._master_secret,
            cipher_suite_id=self.negotiated_suite.suite_id,
            server_name=self.config.server_name or "",
        )

    # -- records -----------------------------------------------------------

    def send_application_data(self, data: bytes, context_id: int = 0) -> None:
        if not self.handshake_complete:
            raise TLSError("cannot send application data before handshake")
        if self.closed:
            raise TLSError("connection is closed")
        record = self._application_record(data, context_id)
        if self.instruments is not None:
            self.instruments.inc("records.out")
            self.instruments.inc(f"context.{context_id}.bytes_out", len(data))
        self._send_record(*record)

    def _application_record(self, data: bytes, context_id: int) -> tuple:
        """``encode`` arguments for one application write: TLS has one
        context and ignores ``context_id``."""
        return rec.APPLICATION_DATA, data

    def _dispatch_record(self, record) -> None:
        content_type, plaintext = record
        if content_type != rec.APPLICATION_DATA:
            self._dispatch_control_record(content_type, plaintext)
        elif not self.handshake_complete:
            raise TLSError("application data before handshake completion")
        else:
            self._emit(ApplicationData(data=plaintext))

    # -- both roles ----------------------------------------------------------

    def start_handshake(self) -> None:
        """A client runs its table's START row; a server waits."""
        if self.is_client:
            self._handle_handshake_message(START, b"", b"")

    def _use_suite(self, suite: CipherSuite) -> None:
        self.negotiated_suite = suite

    def _use_premaster(self, premaster: bytes) -> None:
        """TLS: the master secret and, from it, the key block."""
        self._master_secret = ks.master_secret(
            premaster, self._client_random, self._server_random
        )
        self._derive_key_block()

    def _adopt_session(self, cached) -> None:
        """Resumed: the cached master secret, re-keyed by the fresh randoms
        (RFC 5246 §7.3), so record keys never repeat across sessions."""
        self._master_secret = cached.master_secret
        self._derive_key_block()

    def _derive_key_block(self) -> None:
        suite = self.negotiated_suite
        self._key_block = ks.derive_key_block(
            self._master_secret,
            self._client_random,
            self._server_random,
            suite.mac_key_length,
            suite.key_length,
        )

    def _verify_data(self, label: bytes, received: bool = False) -> bytes:
        """verify_data of the Finished carrying ``label``: over every
        message so far, or (``received``) all but the Finished the engine
        just added."""
        return ks.finished_verify_data(
            self._master_secret, label, self.transcript.digest(-1 if received else None)
        )

    def _protect(self, state: rec.DirectionState, client_writes: bool) -> None:
        """Key one direction from the key block and arm it."""
        suite, block = self.negotiated_suite, self._key_block
        enc, mac = (
            (block.client_enc_key, block.client_mac_key)
            if client_writes
            else (block.server_enc_key, block.server_mac_key)
        )
        state.activate(suite, suite.new_cipher(enc), mac)

    def _activate_write(self) -> None:
        self._protect(self.records.write_state, self.is_client)

    def _on_change_cipher_spec(self, message, raw) -> None:
        """Every role's ChangeCipherSpec row: arm the read side."""
        self._protect(self.records.read_state, not self.is_client)

    def _send_finished(self) -> None:
        """ChangeCipherSpec, arm the write side, then this end's Finished.
        Only the first Finished of a handshake is tagged: the second one's
        hash covers it (the client's in a full handshake, the server's in
        an abbreviated one)."""
        label, tag = (
            (ks.LABEL_CLIENT_FINISHED, TAG_CLIENT_FINISHED)
            if self.is_client
            else (ks.LABEL_SERVER_FINISHED, TAG_SERVER_FINISHED)
        )
        self._send_change_cipher_spec()
        self._activate_write()
        verify = self._verify_data(label)
        self._send_handshake(
            msgs.Finished(verify_data=verify),
            tag=tag if self.is_client != self.resumed else None,
        )

    def _check_finished(self, finished: msgs.Finished) -> None:
        label = ks.LABEL_SERVER_FINISHED if self.is_client else ks.LABEL_CLIENT_FINISHED
        if not hmac.compare_digest(finished.verify_data, self._verify_data(label, True)):
            raise TLSError(f"{self._peer} Finished verification failed", ALERT_DECRYPT_ERROR)

    def _emit_handshake_complete(self) -> None:
        self.handshake_complete = True
        self._emit(
            HandshakeComplete(
                cipher_suite=self.negotiated_suite.name,
                peer_certificate=self.peer_certificate,
                resumed=self.resumed,
            )
        )

    # -- the server's steps ----------------------------------------------------

    def _answer_client_hello(self, hello: msgs.ClientHello) -> bool:
        """Read a ClientHello and answer it: the resumed ServerHello echo
        and this end's Finished, or the full server flight.  True when it
        resumed."""
        self._client_hello = hello
        self._client_random = hello.random
        self._read_client_hello(hello)
        suite = self.config.first_supported(hello.cipher_suites)
        if suite is None:
            raise TLSError("no mutually supported cipher suite")
        self._use_suite(suite)
        remembered = self._remembered(hello)
        if remembered is not None:
            self._resume_session(remembered)
            return True
        self._issue_session_id()
        self._send_server_flight()
        return False

    def _read_client_hello(self, hello: msgs.ClientHello) -> None:
        """Hook: a stack's hello extensions, read before suite selection."""

    def _server_hello_extensions(self) -> list:
        return []

    def _send_server_hello(self) -> None:
        """Issued id (full handshake) or the client's echoed (resumed)."""
        self._send_handshake(
            msgs.ServerHello(
                random=self._server_random,
                session_id=self._session_id,
                cipher_suite=self.negotiated_suite.suite_id,
                extensions=self._server_hello_extensions(),
            ),
            tag=TAG_SERVER_HELLO,
        )

    def _send_server_flight(self) -> None:
        self._send_server_hello()
        self._send_handshake(
            msgs.CertificateMessage(chain=self.config.identity.chain), tag=TAG_SERVER_CERT
        )
        self._send_server_key_exchange()
        self._send_handshake(msgs.ServerHelloDone(), tag=TAG_SERVER_HELLO_DONE)

    def _send_server_key_exchange(self) -> None:
        group = self._group = self.config.dh_group
        self._dh = group.generate_keypair()
        kx = msgs.ServerKeyExchange(
            dh_p=group.p, dh_g=group.g, dh_public=self._dh.public_bytes, signature=b""
        )
        signed = kx.signed_bytes(self._client_random, self._server_random)
        kx.signature = self.config.identity.key.sign(signed)
        self._send_handshake(kx, tag=TAG_SERVER_KE)

    def _resume_session(self, cached) -> None:
        """Abbreviated handshake: echo the id, skip certificates and key
        exchange, and finish first."""
        self.resumed = True
        self._session_id = cached.session_id
        self._use_suite(self.config.suite_for_id(cached.cipher_suite_id))
        self._adopt_session(cached)
        self._send_server_hello()
        self._send_resumption_flight()
        self._send_finished()

    def _send_resumption_flight(self) -> None:
        """Hook: messages the abbreviated flow adds before the server's
        Finished (the delegation stack's warrants and key material)."""

    def _on_client_key_exchange(self, kx: msgs.ClientKeyExchange, raw) -> None:
        self._use_premaster(self._dh.combine(self._group.public_from_bytes(kx.dh_public)))

    # -- the client's steps ----------------------------------------------------

    def _client_hello_extensions(self) -> list:
        return []

    def _send_client_hello(self, message, raw) -> None:
        hello = msgs.ClientHello(
            random=self._client_random,
            session_id=self._offer(),
            cipher_suites=self.config.suite_ids(),
            extensions=self._client_hello_extensions(),
        )
        self._send_handshake(hello, tag=TAG_CLIENT_HELLO)

    def _accept_server_hello(self, hello: msgs.ServerHello) -> bool:
        """Take the ServerHello's suite and random; True when it echoes
        the offered session id, which resumes that session."""
        suite = self.config.suite_for_id(hello.cipher_suite)
        if suite is None:
            raise TLSError("server selected a cipher suite we did not offer")
        self._use_suite(suite)
        self._server_random = hello.random
        self._read_server_hello(hello)
        if not self._echoes_offer(hello):
            # Full handshake: an empty id means "not resumable".
            self._issued_id = hello.session_id
            return False
        if hello.cipher_suite != self._offered.cipher_suite_id:
            raise TLSError("resumed session must keep its original cipher suite")
        self.resumed = True
        self._adopt_session(self._offered)
        return True

    def _read_server_hello(self, hello: msgs.ServerHello) -> None:
        """Hook: a stack's ServerHello extensions."""

    def _on_server_certificate(self, message: msgs.CertificateMessage, raw) -> None:
        if not message.chain:
            raise TLSError("server sent an empty certificate chain", ALERT_BAD_CERTIFICATE)
        verify_peer_chain(
            message.chain,
            self.config.trusted_roots,
            "server certificate verification failed",
            expected_subject=self.config.server_name,
            alert=ALERT_BAD_CERTIFICATE,
        )
        self.peer_certificate = message.chain[0]

    def _on_server_key_exchange(self, kx: msgs.ServerKeyExchange, raw) -> None:
        signed = kx.signed_bytes(self._client_random, self._server_random)
        if not self.peer_certificate.public_key.verify(signed, kx.signature):
            raise TLSError("ServerKeyExchange signature invalid", ALERT_DECRYPT_ERROR)
        self._group = DHGroup(name="negotiated", p=kx.dh_p, g=kx.dh_g)
        self._server_dh_public = self._group.public_from_bytes(kx.dh_public)

    def _send_client_key_exchange(self) -> None:
        self._dh = self._group.generate_keypair()
        self._send_handshake(
            msgs.ClientKeyExchange(dh_public=self._dh.public_bytes), tag=TAG_CLIENT_KE
        )
        self._use_premaster(self._dh.combine(self._server_dh_public))
