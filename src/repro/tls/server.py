"""The TLS 1.2 server state machine (DHE-RSA): its transition table is
:attr:`TLSServer.TRANSITIONS`, run by the shared engine in
:mod:`repro.core.endpoint`."""

from __future__ import annotations

import hmac
from enum import IntEnum, auto
from typing import Optional

from repro.core.endpoint import CCS, table
from repro.crypto.dh import DHKeyPair
from repro.tls import keyschedule as ks
from repro.tls import messages as msgs
from repro.tls.connection import (
    ALERT_DECRYPT_ERROR,
    HandshakeComplete,
    TLSConfig,
    TLSConnectionBase,
    TLSError,
    make_random,
)
from repro.tls.sessioncache import ServerResumption, SessionCache


class _State(IntEnum):
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_KEY_EXCHANGE = auto()
    WAIT_CCS = auto()
    WAIT_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with


class TLSServer(ServerResumption, TLSConnectionBase):
    """A sans-I/O TLS 1.2 server.

    Requires ``config.identity`` (certificate chain + RSA key).  The server
    waits passively: feed it bytes, drain ``data_to_send()``.

    With a ``session_cache``, full handshakes are issued a fresh session id
    and cached on completion; a ClientHello carrying a cached id gets the
    abbreviated flow (no certificates, no key exchange — zero public-key
    operations at the server).  Any other id — unknown, expired, evicted —
    is silently a full handshake.
    """

    def __init__(
        self,
        config: TLSConfig,
        session_cache: Optional[SessionCache] = None,
    ):
        if config.identity is None:
            raise TLSError("server requires an identity (certificate + key)")
        super().__init__(config)
        self._state = S.WAIT_CLIENT_HELLO
        self._server_random = make_random()
        self._client_random: Optional[bytes] = None
        self._dh_keypair: Optional[DHKeyPair] = None
        self._master_secret: Optional[bytes] = None
        self._client_hello: Optional[msgs.ClientHello] = None
        self._session_cache = session_cache
        self.resumed = False

    # -- message handling ---------------------------------------------------

    def _on_client_hello(self, hello: msgs.ClientHello, raw) -> S:
        self._client_hello = hello
        self._client_random = hello.random

        remembered = self._remembered(hello)
        if remembered is not None:
            self._resume_session(remembered)
            return S.WAIT_CCS

        suite = self.config.first_supported(hello.cipher_suites)
        if suite is None:
            raise TLSError("no mutually supported cipher suite")
        self.negotiated_suite = suite
        self._issue_session_id()

        self._send_handshake(
            msgs.ServerHello(
                random=self._server_random,
                session_id=self._session_id,
                cipher_suite=suite.suite_id,
            )
        )
        self._send_handshake(msgs.CertificateMessage(chain=self.config.identity.chain))
        self._send_server_key_exchange()
        self._send_handshake(msgs.ServerHelloDone())
        return S.WAIT_CLIENT_KEY_EXCHANGE

    # -- resumption ---------------------------------------------------------

    def _resumable(self, state) -> bool:
        """Resume only under a suite the client still offers and this
        server still supports."""
        return (
            state.cipher_suite_id in self._client_hello.cipher_suites
            and self.config.suite_for_id(state.cipher_suite_id) is not None
        )

    def _resume_session(self, cached) -> None:
        """Abbreviated handshake: echo the id, skip certs and key exchange."""
        self.resumed = True
        self._session_id = cached.session_id
        suite = self.config.suite_for_id(cached.cipher_suite_id)
        self.negotiated_suite = suite
        self._master_secret = cached.master_secret

        self._send_handshake(
            msgs.ServerHello(
                random=self._server_random,
                session_id=cached.session_id,  # explicit echo = resumption
                cipher_suite=suite.suite_id,
            )
        )
        self._key_block = ks.resume_key_block(
            self._master_secret, self._client_random, self._server_random, suite
        )
        # Server finishes first in the abbreviated flow: its Finished covers
        # just [ClientHello, ServerHello].
        verify = ks.finished_verify_data(
            self._master_secret, ks.LABEL_SERVER_FINISHED, self.transcript.digest()
        )
        self._send_change_cipher_spec()
        self.records.write_state.activate(
            suite,
            suite.new_cipher(self._key_block.server_enc_key),
            self._key_block.server_mac_key,
        )
        self._send_handshake(msgs.Finished(verify_data=verify))

    def _send_server_key_exchange(self) -> None:
        group = self.config.dh_group
        self._dh_keypair = group.generate_keypair()
        params = msgs.ServerKeyExchange(
            dh_p=group.p,
            dh_g=group.g,
            dh_public=self._dh_keypair.public_bytes,
            signature=b"",
        )
        signed = self._client_random + self._server_random + params.params_bytes()
        params.signature = self.config.identity.key.sign(signed)
        self._send_handshake(params)

    def _on_client_key_exchange(self, kx: msgs.ClientKeyExchange, raw) -> None:
        group = self.config.dh_group
        client_public = group.public_from_bytes(kx.dh_public)
        premaster = self._dh_keypair.combine(client_public)
        self._master_secret = ks.master_secret(
            premaster, self._client_random, self._server_random
        )
        suite = self.negotiated_suite
        self._key_block = ks.derive_key_block(
            self._master_secret,
            self._client_random,
            self._server_random,
            suite.mac_key_length,
            suite.key_length,
        )

    def _on_change_cipher_spec(self, message, raw) -> None:
        suite = self.negotiated_suite
        self.records.read_state.activate(
            suite,
            suite.new_cipher(self._key_block.client_enc_key),
            self._key_block.client_mac_key,
        )

    def _on_finished(self, finished: msgs.Finished, raw) -> None:
        expected = ks.finished_verify_data(
            self._master_secret, ks.LABEL_CLIENT_FINISHED, self.transcript.digest(-1)
        )
        if not hmac.compare_digest(finished.verify_data, expected):
            raise TLSError("client Finished verification failed", ALERT_DECRYPT_ERROR)

        if self.resumed:
            # Abbreviated flow: our CCS + Finished already went out with the
            # ServerHello; the client's Finished closes the handshake.
            self.handshake_complete = True
            self._emit(
                HandshakeComplete(cipher_suite=self.negotiated_suite.name, resumed=True)
            )
            return

        self._remember()
        suite = self.negotiated_suite
        self._send_change_cipher_spec()
        self.records.write_state.activate(
            suite,
            suite.new_cipher(self._key_block.server_enc_key),
            self._key_block.server_mac_key,
        )
        verify = ks.finished_verify_data(
            self._master_secret, ks.LABEL_SERVER_FINISHED, self.transcript.digest()
        )
        self._send_handshake(msgs.Finished(verify_data=verify))
        self.handshake_complete = True
        self._emit(HandshakeComplete(cipher_suite=suite.name))

    # (state, message, handler, next state).  Resumed, our CCS + Finished
    # went out with the ServerHello.
    # fmt: off
    TRANSITIONS = table(
        (S.WAIT_CLIENT_HELLO, msgs.ClientHello, _on_client_hello,
         (S.WAIT_CLIENT_KEY_EXCHANGE, S.WAIT_CCS)),
        (S.WAIT_CLIENT_KEY_EXCHANGE, msgs.ClientKeyExchange, _on_client_key_exchange,
         S.WAIT_CCS),
        (S.WAIT_CCS, CCS, _on_change_cipher_spec, S.WAIT_FINISHED),
        (S.WAIT_FINISHED, msgs.Finished, _on_finished, S.CONNECTED),
    )
    # fmt: on
