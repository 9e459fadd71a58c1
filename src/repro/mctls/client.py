"""The mcTLS client state machine (§3.5, Figure 1).

The client drives the handshake: it declares the middlebox list and the
encryption contexts in its ClientHello, authenticates the server and every
middlebox, performs a Diffie-Hellman exchange with each of them using a
single ephemeral key pair, generates its half of every context key (or the
full keys in client-key-distribution mode) and distributes the material in
``MiddleboxKeyMaterial`` messages.  :attr:`McTLSClient.TRANSITIONS` is
that sequence as a table, run by the shared engine in
:mod:`repro.core.endpoint`.
"""

from __future__ import annotations

from enum import IntEnum, auto
from typing import Optional

from repro import framing as frm
from repro.core.endpoint import CCS, START, table
from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import ENDPOINT_TARGET, SessionTopology
from repro.tls import messages as tls_msgs
from repro.tls.connection import TLSConfig, TLSError
from repro.tls.sessioncache import ClientResumption, ClientSessionStore


class _State(IntEnum):
    START = auto()
    WAIT_SERVER_HELLO = auto()
    WAIT_CERTIFICATE = auto()
    WAIT_SERVER_KEY_EXCHANGE = auto()
    WAIT_HELLO_DONE = auto()  # middlebox flights arrive here too
    WAIT_SERVER_FLIGHT = auto()  # server MKMs, then CCS
    WAIT_SERVER_FINISHED = auto()
    WAIT_RESUMED_SERVER_FLIGHT = auto()  # CCS (mdTLS: warrants + DKMs first)
    WAIT_RESUMED_SERVER_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with
core = ms.McTLSConnectionBase


class McTLSClient(ClientResumption, ms.McTLSConnectionBase):
    """A sans-I/O mcTLS client.

    ``topology`` declares the middleboxes and contexts for this session;
    ``verify_middleboxes`` controls whether middlebox certificates are
    checked (the paper's R1 lets clients choose).
    """

    # Re-keying the middleboxes of a resumed session seals to their
    # certificate keys, remembered from the original handshake.
    _keeps_middlebox_certs = True
    # The modes this client runs; a ServerHello choosing another fails.
    _modes = tuple(ms.HandshakeMode)

    def __init__(
        self,
        config: TLSConfig,
        topology: SessionTopology,
        verify_middleboxes: bool = True,
        key_transport: ms.KeyTransport = None,
        session_store: Optional[ClientSessionStore] = None,
    ):
        super().__init__(config, is_client=True, verify_middleboxes=verify_middleboxes)
        self._set_topology(topology, topology)
        if key_transport is not None:
            self.key_transport = key_transport
        self._session_store = session_store
        self._state = S.START
        # The framing offer goes in the ClientHello; default framing
        # needs no extension at all (bit-identical legacy handshakes).
        self._requested_framing = frm.framing_by_name(config.framing)
        self._field_schemas = tuple(config.field_schemas)
        self._framing_offer: Optional[bytes] = None

    # -- hello --------------------------------------------------------------

    def _client_hello_extensions(self) -> list:
        extensions = [
            (tls_msgs.EXT_MIDDLEBOX_LIST, self.topology.encode()),
            (mm.EXT_MCTLS_KEY_TRANSPORT, bytes([int(self.key_transport)])),
        ]
        if self._requested_framing is not frm.MCTLS_DEFAULT:
            self._framing_offer = mm.encode_framing_offer(
                self._requested_framing.framing_id, self._field_schemas
            )
            extensions.append((mm.EXT_MCTLS_FRAMING, self._framing_offer))
        return extensions

    def _matches(self, state) -> bool:
        """Offer a remembered session only while this session's suite,
        key transport and topology still match it exactly: a full
        handshake is the only way to renegotiate them."""
        return (
            state.cipher_suite_id in self.config.suite_ids()
            and state.key_transport == self.key_transport
            and state.topology_bytes == self.topology.encode()
        )

    # -- server flight 1 --------------------------------------------------------

    def _on_server_hello(self, hello: tls_msgs.ServerHello, raw) -> S:
        if self._accept_server_hello(hello):
            return S.WAIT_RESUMED_SERVER_FLIGHT
        return S.WAIT_CERTIFICATE

    def _read_server_hello(self, hello: tls_msgs.ServerHello) -> None:
        self.mode = ms.negotiated(hello, ms.HandshakeMode)
        if self.mode not in self._modes:
            raise TLSError(f"server chose mcTLS mode {self.mode.name}, not ours")
        framing_ext = hello.find_extension(mm.EXT_MCTLS_FRAMING)
        if framing_ext is None:
            return
        if self._echoes_offer(hello):
            # Abbreviated handshakes never negotiate a framing: field
            # keys travel in the full handshake's key material flight,
            # which resumption skips, so the session falls back to the
            # default framing even if the offer went out.
            raise TLSError("server echoed a framing offer in a resumed handshake")
        if self._framing_offer is None or framing_ext != self._framing_offer:
            raise TLSError("server echoed a framing offer we did not make")
        self.negotiated_framing = self._requested_framing

    def _adopt_session(self, cached) -> None:
        if int(self.mode) != cached.mode:
            raise TLSError("resumed session must keep its original mcTLS mode")
        super()._adopt_session(cached)

    # -- client flight ------------------------------------------------------------

    def _on_server_hello_done(self, message, raw) -> None:
        self._check_middlebox_flights_complete()
        self._send_client_key_exchange()
        if self.mode is ms.HandshakeMode.DEFAULT:
            self._generate_partial_keys()
        self._send_key_material()
        self._send_finished()
        if self.mode is not ms.HandshakeMode.DEFAULT:
            # Full keys straight from the endpoint secret; nothing partial.
            self._install_context_keys(self._ckd_keys)

    # -- server flight 2 -------------------------------------------------------------

    def _on_server_key_material(self, mkm: mm.MiddleboxKeyMaterial, raw) -> None:
        if mkm.sender != mm.SENDER_SERVER:
            raise TLSError("client received its own key material back")
        if self.mode is not ms.HandshakeMode.DEFAULT:
            raise TLSError("server sent key material outside default mode")
        if mkm.target != ENDPOINT_TARGET:
            return  # middlebox-addressed; transcript only
        self._open_peer_key_material(mkm)

    def _on_server_finished(self, finished: tls_msgs.Finished, raw) -> None:
        self._check_finished(finished)
        if self.mode is ms.HandshakeMode.DEFAULT:
            self._install_combined_context_keys()
        self._remember()
        self._emit_handshake_complete()

    def _on_resumed_server_finished(self, finished: tls_msgs.Finished, raw) -> None:
        """Verify the server's (first) Finished, then send our abbreviated
        flight: fresh middlebox key material + CCS + Finished."""
        self._check_finished(finished)
        self._redistribute_context_keys()
        self._send_finished()
        self._emit_handshake_complete()

    def _redistribute_context_keys(self) -> None:
        """Send each middlebox its fresh context keys for this session.

        There is no DH exchange (and hence no pairwise key) in the
        abbreviated flow, so the material is sealed to the middlebox's
        certificate key remembered from the original session — the same
        hybrid construction the RSA key transport uses.
        """
        for mbox in self.topology.middleboxes:
            cert = self._offered.middlebox_certs.get(mbox.mbox_id)
            if cert is None:
                raise TLSError(
                    f"no cached certificate for middlebox {mbox.mbox_id}; "
                    "cannot re-key a resumed session"
                )
            shares = mm.encode_key_shares(self._shares_for_middlebox(mbox.mbox_id))
            sealed = self._seal(mk.rsa_hybrid_seal, cert.public_key, shares)
            self._send_key_material_message(mbox.mbox_id, sealed)

    # (state, message, handler, next state, transcript tag).  A resumed
    # session waits for the server's CCS + Finished.
    # fmt: off
    TRANSITIONS = {**core.middlebox_flight(S.WAIT_HELLO_DONE), **table(
        (S.START, START, core._send_client_hello, S.WAIT_SERVER_HELLO),
        (S.WAIT_SERVER_HELLO, tls_msgs.ServerHello, _on_server_hello,
         (S.WAIT_CERTIFICATE, S.WAIT_RESUMED_SERVER_FLIGHT), ms.TAG_SERVER_HELLO),
        (S.WAIT_CERTIFICATE, tls_msgs.CertificateMessage, core._on_server_certificate,
         S.WAIT_SERVER_KEY_EXCHANGE, ms.TAG_SERVER_CERT),
        (S.WAIT_SERVER_KEY_EXCHANGE, tls_msgs.ServerKeyExchange, core._on_server_key_exchange,
         S.WAIT_HELLO_DONE, ms.TAG_SERVER_KE),
        (S.WAIT_HELLO_DONE, tls_msgs.ServerHelloDone, _on_server_hello_done,
         S.WAIT_SERVER_FLIGHT, ms.TAG_SERVER_HELLO_DONE),
        (S.WAIT_SERVER_FLIGHT, mm.MiddleboxKeyMaterial, _on_server_key_material,
         S.WAIT_SERVER_FLIGHT, lambda m: ms.tag_server_mkm(m.target)),
        (S.WAIT_SERVER_FLIGHT, CCS, core._on_change_cipher_spec,
         S.WAIT_SERVER_FINISHED),
        (S.WAIT_SERVER_FINISHED, tls_msgs.Finished, _on_server_finished, S.CONNECTED),
        (S.WAIT_RESUMED_SERVER_FLIGHT, CCS, core._on_change_cipher_spec,
         S.WAIT_RESUMED_SERVER_FINISHED),
        (S.WAIT_RESUMED_SERVER_FINISHED, tls_msgs.Finished, _on_resumed_server_finished,
         S.CONNECTED, ms.TAG_SERVER_FINISHED),
    )}
    # fmt: on
