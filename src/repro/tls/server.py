"""The TLS 1.2 server state machine (DHE-RSA): its transition table is
:attr:`TLSServer.TRANSITIONS`, run by the shared engine in
:mod:`repro.core.endpoint`."""

from __future__ import annotations

import dataclasses
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
from repro.tls.sessioncache import SessionCache, TLSSessionState, new_session_id
from repro.tls.tickets import (
    KIND_TLS,
    TicketError,
    TicketKeyManager,
    decode_tls_ticket_state,
    encode_tls_ticket_state,
)


class _State(IntEnum):
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_KEY_EXCHANGE = auto()
    WAIT_CCS = auto()
    WAIT_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with


class TLSServer(TLSConnectionBase):
    """A sans-I/O TLS 1.2 server.

    Requires ``config.identity`` (certificate chain + RSA key).  The server
    waits passively: feed it bytes, drain ``data_to_send()``.

    With a ``session_cache``, full handshakes are issued a fresh session id
    and cached on completion; a ClientHello carrying a cached id gets the
    abbreviated flow (no certificates, no key exchange — zero public-key
    operations at the server).

    With a ``ticket_manager``, full handshakes additionally issue an RFC
    5077 NewSessionTicket to clients that signalled ticket support, and a
    ClientHello carrying a valid ticket resumes with **no server-side
    state at all** — any worker holding the same ticket key can honor it.
    A defective ticket (tampered, truncated, expired, rotated-out key,
    version skew) is silently ignored: the handshake proceeds in full.
    """

    def __init__(
        self,
        config: TLSConfig,
        session_cache: Optional[SessionCache] = None,
        ticket_manager: Optional[TicketKeyManager] = None,
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
        self._ticket_manager = ticket_manager
        self._client_ticket_support = False
        self._session_id = b""
        self.resumed = False

    # -- message handling ---------------------------------------------------

    def _on_client_hello(self, hello: msgs.ClientHello, raw) -> S:
        self._client_hello = hello
        self._client_random = hello.random

        if self._try_ticket_resumption(hello):
            return S.WAIT_CCS

        resumable = self._lookup_resumable_session(hello)
        if resumable is not None:
            self._resume_session(resumable)
            return S.WAIT_CCS

        suite = self.config.first_supported(hello.cipher_suites)
        if suite is None:
            raise TLSError("no mutually supported cipher suite")
        self.negotiated_suite = suite

        # On full handshakes the server never echoes the client-proposed
        # session id (RFC 5246 §7.4.1.3); it issues a fresh one if it is
        # willing to cache this session, or none at all.
        if self._session_cache is not None:
            self._session_id = new_session_id()

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

    def _try_ticket_resumption(self, hello: msgs.ClientHello) -> bool:
        """Resume from a client-presented ticket, if it checks out.

        Any defect in the ticket returns False (→ full handshake); the
        extension's mere presence — even empty — marks the client as
        ticket-capable, so a NewSessionTicket goes out on completion.
        RFC 5077 §3.4: the accepting server echoes the session id the
        client *proposed* alongside the ticket, which is how the client
        recognises acceptance without readable ticket contents.
        """
        ext = hello.find_extension(msgs.EXT_SESSION_TICKET)
        if ext is None:
            return False
        self._client_ticket_support = True
        if self._ticket_manager is None or not ext or not hello.session_id:
            return False
        try:
            kind, payload = self._ticket_manager.unseal(ext)
            if kind != KIND_TLS:
                raise TicketError("ticket sealed for a different protocol")
            state = decode_tls_ticket_state(payload)
        except TicketError:
            return False
        if state.cipher_suite_id not in hello.cipher_suites:
            return False
        if self.config.suite_for_id(state.cipher_suite_id) is None:
            return False
        self._resume_session(
            dataclasses.replace(state, session_id=bytes(hello.session_id))
        )
        return True

    def _maybe_send_new_session_ticket(self) -> None:
        """Issue a fresh ticket on a completing full handshake (sent after
        the client's Finished, before our ChangeCipherSpec)."""
        if self._ticket_manager is None or not self._client_ticket_support:
            return
        ticket = self._ticket_manager.seal(
            KIND_TLS,
            encode_tls_ticket_state(
                TLSSessionState(
                    session_id=b"",
                    master_secret=self._master_secret,
                    cipher_suite_id=self.negotiated_suite.suite_id,
                    server_name=self.config.server_name or "",
                )
            ),
        )
        self._send_handshake(
            msgs.NewSessionTicket(
                lifetime_hint=int(self._ticket_manager.lifetime), ticket=ticket
            )
        )

    def _lookup_resumable_session(
        self, hello: msgs.ClientHello
    ) -> Optional[TLSSessionState]:
        """Return cached state iff the proposed session id can be honored.

        Unknown, evicted or expired ids simply return None — the caller
        falls back to a full handshake, exactly as RFC 5246 prescribes.
        """
        if self._session_cache is None or not hello.session_id:
            return None
        cached = self._session_cache.get(bytes(hello.session_id))
        if not isinstance(cached, TLSSessionState):
            return None
        if cached.cipher_suite_id not in hello.cipher_suites:
            return None  # client no longer offers the original suite
        if self.config.suite_for_id(cached.cipher_suite_id) is None:
            return None  # we no longer support it either
        return cached

    def _resume_session(self, cached: TLSSessionState) -> None:
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

        self._maybe_send_new_session_ticket()
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
        self._cache_session()
        self._emit(HandshakeComplete(cipher_suite=suite.name))

    def _cache_session(self) -> None:
        """Make a completed full handshake resumable."""
        if self._session_cache is None or not self._session_id:
            return
        self._session_cache.put(
            self._session_id,
            TLSSessionState(
                session_id=self._session_id,
                master_secret=self._master_secret,
                cipher_suite_id=self.negotiated_suite.suite_id,
            ),
        )

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
