"""The TLS 1.2 client state machine (DHE-RSA): its transition table is
:attr:`TLSClient.TRANSITIONS`, run by the shared engine in
:mod:`repro.core.endpoint`; its steps are the handshake core's in
:mod:`repro.tls.connection`."""

from __future__ import annotations

from enum import IntEnum, auto
from typing import Optional

from repro.core.endpoint import CCS, START, table
from repro.tls import messages as msgs
from repro.tls.connection import TLSConfig, TLSConnectionBase
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
core = TLSConnectionBase


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
        super().__init__(config, is_client=True)
        self._state = S.START
        self._session_store = session_store

    def _matches(self, state) -> bool:
        """A remembered session stays offerable while its suite does."""
        return state.cipher_suite_id in self.config.suite_ids()

    # -- message handling ---------------------------------------------------

    def _on_server_hello(self, hello: msgs.ServerHello, raw) -> S:
        if self._accept_server_hello(hello):
            # The server sends CCS + Finished next; our own flight goes
            # out after we verify it (see _on_finished).
            return S.WAIT_CCS
        return S.WAIT_CERTIFICATE

    def _on_server_hello_done(self, message, raw) -> None:
        self._send_client_key_exchange()
        self._send_finished()

    def _on_finished(self, finished: msgs.Finished, raw: bytes) -> None:
        self._check_finished(finished)
        if self.resumed:
            # Abbreviated flow: the server finishes first; now we send our
            # CCS + Finished (covering the server's Finished as well).
            self._send_finished()
        else:
            self._remember()
        self._emit_handshake_complete()

    # (state, message, handler, next state).  Resumed, the server
    # finishes first and _on_finished sends our CCS + Finished.
    # fmt: off
    TRANSITIONS = table(
        (S.START, START, core._send_client_hello, S.WAIT_SERVER_HELLO),
        (S.WAIT_SERVER_HELLO, msgs.ServerHello, _on_server_hello,
         (S.WAIT_CERTIFICATE, S.WAIT_CCS)),
        (S.WAIT_CERTIFICATE, msgs.CertificateMessage, core._on_server_certificate,
         S.WAIT_SERVER_KEY_EXCHANGE),
        (S.WAIT_SERVER_KEY_EXCHANGE, msgs.ServerKeyExchange, core._on_server_key_exchange,
         S.WAIT_SERVER_HELLO_DONE),
        (S.WAIT_SERVER_HELLO_DONE, msgs.ServerHelloDone, _on_server_hello_done, S.WAIT_CCS),
        (S.WAIT_CCS, CCS, core._on_change_cipher_spec, S.WAIT_FINISHED),
        (S.WAIT_FINISHED, msgs.Finished, _on_finished, S.CONNECTED),
    )
    # fmt: on
