"""The TLS 1.2 server state machine (DHE-RSA): its transition table is
:attr:`TLSServer.TRANSITIONS`, run by the shared engine in
:mod:`repro.core.endpoint`; its steps are the handshake core's in
:mod:`repro.tls.connection`."""

from __future__ import annotations

from enum import IntEnum, auto
from typing import Optional

from repro.core.endpoint import CCS, table
from repro.tls import messages as msgs
from repro.tls.connection import TLSConfig, TLSConnectionBase, TLSError
from repro.tls.sessioncache import ServerResumption, SessionCache


class _State(IntEnum):
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_KEY_EXCHANGE = auto()
    WAIT_CCS = auto()
    WAIT_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with
core = TLSConnectionBase


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
        super().__init__(config, is_client=False)
        self._state = S.WAIT_CLIENT_HELLO
        self._session_cache = session_cache

    def _resumable(self, state) -> bool:
        """Resume only under a suite the client still offers and this
        server still supports."""
        return (
            state.cipher_suite_id in self._client_hello.cipher_suites
            and self.config.suite_for_id(state.cipher_suite_id) is not None
        )

    # -- message handling ---------------------------------------------------

    def _on_client_hello(self, hello: msgs.ClientHello, raw) -> S:
        if self._answer_client_hello(hello):
            return S.WAIT_CCS
        return S.WAIT_CLIENT_KEY_EXCHANGE

    def _on_finished(self, finished: msgs.Finished, raw) -> None:
        self._check_finished(finished)
        if not self.resumed:
            # Resumed, our CCS + Finished already went out with the
            # ServerHello; the client's Finished closes the handshake.
            self._remember()
            self._send_finished()
        self._emit_handshake_complete()

    # (state, message, handler, next state).  Resumed, our CCS + Finished
    # went out with the ServerHello.
    # fmt: off
    TRANSITIONS = table(
        (S.WAIT_CLIENT_HELLO, msgs.ClientHello, _on_client_hello,
         (S.WAIT_CLIENT_KEY_EXCHANGE, S.WAIT_CCS)),
        (S.WAIT_CLIENT_KEY_EXCHANGE, msgs.ClientKeyExchange, core._on_client_key_exchange,
         S.WAIT_CCS),
        (S.WAIT_CCS, CCS, core._on_change_cipher_spec, S.WAIT_FINISHED),
        (S.WAIT_FINISHED, msgs.Finished, _on_finished, S.CONNECTED),
    )
    # fmt: on
