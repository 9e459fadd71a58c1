"""The TLS 1.2 client state machine (DHE-RSA): its transition table is
:attr:`TLSClient.TRANSITIONS`, run by the shared engine in
:mod:`repro.core.endpoint`."""

from __future__ import annotations

import hmac
from enum import IntEnum, auto
from typing import Optional

from repro.core.endpoint import CCS, START, table
from repro.crypto.dh import DHGroup, DHKeyPair
from repro.tls import keyschedule as ks
from repro.tls import messages as msgs
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    ALERT_DECRYPT_ERROR,
    HandshakeComplete,
    TLSConfig,
    TLSConnectionBase,
    TLSError,
    make_random,
    verify_peer_chain,
)
from repro.tls.sessioncache import ClientResumption, ClientSessionStore


class _State(IntEnum):
    START = auto()
    WAIT_SERVER_HELLO = auto()
    WAIT_CERTIFICATE = auto()
    WAIT_SERVER_KEY_EXCHANGE = auto()
    WAIT_SERVER_HELLO_DONE = auto()
    WAIT_CCS = auto()
    WAIT_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with


class TLSClient(ClientResumption, TLSConnectionBase):
    """A sans-I/O TLS 1.2 client.

    Usage::

        client = TLSClient(TLSConfig(trusted_roots=[...], server_name="s"))
        client.start_handshake()
        transport.write(client.data_to_send())
        events = client.receive_data(transport.read())
    """

    def __init__(
        self,
        config: TLSConfig,
        session_store: Optional[ClientSessionStore] = None,
    ):
        super().__init__(config)
        self._state = S.START
        self._client_random = make_random()
        self._server_random: Optional[bytes] = None
        self._dh_keypair: Optional[DHKeyPair] = None
        self._server_dh_public: Optional[int] = None
        self._server_kx_group: Optional[DHGroup] = None
        self._master_secret: Optional[bytes] = None
        self._session_store = session_store
        self.resumed = False

    # -- driving the handshake -------------------------------------------

    def start_handshake(self) -> None:
        self._handle_handshake_message(START, b"", b"")

    def _send_client_hello(self, message, raw) -> None:
        hello = msgs.ClientHello(
            random=self._client_random,
            session_id=self._offer(),
            cipher_suites=self.config.suite_ids(),
        )
        self._send_handshake(hello)

    def _matches(self, state) -> bool:
        """A remembered session stays offerable while its suite does."""
        return state.cipher_suite_id in self.config.suite_ids()

    # -- message handling ---------------------------------------------------

    def _on_server_hello(self, hello: msgs.ServerHello, raw) -> S:
        suite = self.config.suite_for_id(hello.cipher_suite)
        if suite is None:
            raise TLSError("server selected a cipher suite we did not offer")
        self.negotiated_suite = suite
        self._server_random = hello.random
        if self._offered_id and hello.session_id == self._offered_id:
            self._begin_resumption(hello, suite)
            return S.WAIT_CCS
        # Full handshake: an empty id means "not resumable".
        self._issued_id = hello.session_id
        return S.WAIT_CERTIFICATE

    def _begin_resumption(self, hello: msgs.ServerHello, suite) -> None:
        """Server echoed our offered session id: abbreviated handshake."""
        cached = self._offered
        if hello.cipher_suite != cached.cipher_suite_id:
            raise TLSError("resumed session must keep its original cipher suite")
        self.resumed = True
        self._master_secret = cached.master_secret
        self._key_block = ks.resume_key_block(
            self._master_secret, self._client_random, self._server_random, suite
        )
        # Server sends CCS + Finished next; our own flight goes out after
        # we verify it (see _on_finished).

    def _on_certificate(self, message: msgs.CertificateMessage, raw) -> None:
        if not message.chain:
            raise TLSError("server sent an empty certificate chain", ALERT_BAD_CERTIFICATE)
        verify_peer_chain(
            message.chain,
            self.config.trusted_roots,
            "certificate verification failed",
            expected_subject=self.config.server_name,
            alert=ALERT_BAD_CERTIFICATE,
        )
        self.peer_certificate = message.chain[0]

    def _on_server_key_exchange(self, kx: msgs.ServerKeyExchange, raw) -> None:
        assert self.peer_certificate is not None and self._server_random is not None
        signed = self._client_random + self._server_random + kx.params_bytes()
        if not self.peer_certificate.public_key.verify(signed, kx.signature):
            raise TLSError("ServerKeyExchange signature invalid", ALERT_DECRYPT_ERROR)
        group = DHGroup(name="negotiated", p=kx.dh_p, g=kx.dh_g)
        self._server_kx_group = group
        self._server_dh_public = group.public_from_bytes(kx.dh_public)

    def _on_server_hello_done(self, message, raw) -> None:
        assert self._server_kx_group is not None and self._server_dh_public is not None
        self._dh_keypair = self._server_kx_group.generate_keypair()
        self._send_handshake(msgs.ClientKeyExchange(dh_public=self._dh_keypair.public_bytes))

        premaster = self._dh_keypair.combine(self._server_dh_public)
        self._master_secret = ks.master_secret(
            premaster, self._client_random, self._server_random
        )

        self._activate_write_protection()
        self._send_finished()

    def _activate_write_protection(self) -> None:
        suite = self.negotiated_suite
        block = ks.derive_key_block(
            self._master_secret,
            self._client_random,
            self._server_random,
            suite.mac_key_length,
            suite.key_length,
        )
        self._key_block = block
        self._send_change_cipher_spec()
        self.records.write_state.activate(
            suite, suite.new_cipher(block.client_enc_key), block.client_mac_key
        )

    def _send_finished(self) -> None:
        verify = ks.finished_verify_data(
            self._master_secret, ks.LABEL_CLIENT_FINISHED, self.transcript.digest()
        )
        self._send_handshake(msgs.Finished(verify_data=verify))

    def _on_change_cipher_spec(self, message, raw) -> None:
        suite = self.negotiated_suite
        block = self._key_block
        self.records.read_state.activate(
            suite, suite.new_cipher(block.server_enc_key), block.server_mac_key
        )

    def _on_finished(self, finished: msgs.Finished, raw: bytes) -> None:
        # The transcript for the server's Finished includes everything up to
        # but not including that Finished; the engine added it before this
        # handler ran, so hash without the final entry.
        expected = ks.finished_verify_data(
            self._master_secret, ks.LABEL_SERVER_FINISHED, self.transcript.digest(-1)
        )
        if not hmac.compare_digest(finished.verify_data, expected):
            raise TLSError("server Finished verification failed", ALERT_DECRYPT_ERROR)
        if self.resumed:
            # Abbreviated flow: the server finishes first; now we send our
            # CCS + Finished (covering the server's Finished as well).
            self._activate_write_protection()
            self._send_finished()
        else:
            self._remember()
        self.handshake_complete = True
        self._emit(
            HandshakeComplete(
                cipher_suite=self.negotiated_suite.name,
                peer_certificate=self.peer_certificate,
                resumed=self.resumed,
            )
        )

    # (state, message, handler, next state).  Resumed, the server
    # finishes first and _on_finished sends our CCS + Finished.
    # fmt: off
    TRANSITIONS = table(
        (S.START, START, _send_client_hello, S.WAIT_SERVER_HELLO),
        (S.WAIT_SERVER_HELLO, msgs.ServerHello, _on_server_hello,
         (S.WAIT_CERTIFICATE, S.WAIT_CCS)),
        (S.WAIT_CERTIFICATE, msgs.CertificateMessage, _on_certificate,
         S.WAIT_SERVER_KEY_EXCHANGE),
        (S.WAIT_SERVER_KEY_EXCHANGE, msgs.ServerKeyExchange, _on_server_key_exchange,
         S.WAIT_SERVER_HELLO_DONE),
        (S.WAIT_SERVER_HELLO_DONE, msgs.ServerHelloDone, _on_server_hello_done, S.WAIT_CCS),
        (S.WAIT_CCS, CCS, _on_change_cipher_spec, S.WAIT_FINISHED),
        (S.WAIT_FINISHED, msgs.Finished, _on_finished, S.CONNECTED),
    )
    # fmt: on
