"""The mcTLS server state machine (§3.5, Figure 1).

The server learns the proposed middlebox/context topology from the
ClientHello's MiddleboxListExtension.  It may apply a *policy* that caps
each middlebox's permissions (the "server can say no" control of §4.2 —
e.g. online banking): the server simply withholds its half of any context
key it does not approve, so the middlebox can never reconstruct that key
even though the client granted its own half.

The server also chooses the handshake mode (§3.6): ``DEFAULT``
(contributory — both endpoints distribute half-keys) or
``CLIENT_KEY_DIST`` (the client alone distributes full keys, sparing the
server the per-middlebox public-key work).

:attr:`McTLSServer.TRANSITIONS` is the server's side of Figure 1 as a
table, run by the shared engine in :mod:`repro.core.endpoint`.
"""

from __future__ import annotations

from enum import IntEnum, auto
from typing import Callable, Optional

from repro import framing as frm
from repro.core.endpoint import CCS, table
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import ENDPOINT_TARGET, SessionTopology
from repro.tls import messages as tls_msgs
from repro.tls.connection import TLSConfig, TLSError
from repro.tls.sessioncache import ServerResumption, SessionCache


class _State(IntEnum):
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_KEY_EXCHANGE = auto()
    WAIT_CLIENT_FLIGHT = auto()  # middlebox flights + client MKMs, then CCS
    WAIT_CLIENT_FINISHED = auto()
    WAIT_RESUMED_CLIENT_FLIGHT = auto()  # re-keying MKMs (mdTLS: warrants), CCS
    WAIT_RESUMED_CLIENT_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with
core = ms.McTLSConnectionBase


class McTLSServer(ServerResumption, ms.McTLSConnectionBase):
    """A sans-I/O mcTLS server.

    ``mode`` selects the handshake variant; ``topology_policy`` (if given)
    maps the client-proposed :class:`SessionTopology` to the topology the
    server actually *approves* — the server distributes key halves
    according to the approved topology only.
    """

    def __init__(
        self,
        config: TLSConfig,
        mode: ms.HandshakeMode = ms.HandshakeMode.DEFAULT,
        topology_policy: Optional[Callable[[SessionTopology], SessionTopology]] = None,
        verify_middleboxes: bool = True,
        session_cache: Optional[SessionCache] = None,
    ):
        if config.identity is None:
            raise TLSError("mcTLS server requires an identity (certificate + key)")
        super().__init__(config, is_client=False, verify_middleboxes=verify_middleboxes)
        self.mode = mode
        self.topology_policy = topology_policy
        self._session_cache = session_cache
        self._state = S.WAIT_CLIENT_HELLO
        # A valid ClientHello framing offer is accepted by echoing it
        # verbatim in the ServerHello; resumed sessions always fall back
        # to the default framing (field keys travel only in the full
        # handshake's key material flight).
        self._client_framing: Optional[ms.FramingOffer] = None

    # -- flight 1 ---------------------------------------------------------------

    def _on_client_hello(self, hello: tls_msgs.ClientHello, raw) -> S:
        if self._answer_client_hello(hello):
            return S.WAIT_RESUMED_CLIENT_FLIGHT
        return S.WAIT_CLIENT_KEY_EXCHANGE

    def _read_client_hello(self, hello: tls_msgs.ClientHello) -> None:
        proposed = ms.proposed_topology(hello)
        self.key_transport = ms.negotiated(
            hello, ms.KeyTransport, default=self.key_transport
        )
        self._client_framing = ms.framing_offer(hello)
        self._set_topology(
            proposed,
            self.topology_policy(proposed) if self.topology_policy is not None else proposed,
        )

    def _send_server_flight(self) -> None:
        offer = self._client_framing
        if offer is not None and offer.framing is not frm.MCTLS_DEFAULT:
            # Accept by echoing the offer verbatim — the echo is also the
            # single point on the path where middleboxes learn the
            # session's framing and field schemas.
            self.negotiated_framing = offer.framing
            self._field_schemas = offer.schemas
        super()._send_server_flight()

    def _server_hello_extensions(self) -> list:
        extensions = [(mm.EXT_MCTLS_MODE, bytes([int(self.mode)]))]
        if self.negotiated_framing is not frm.MCTLS_DEFAULT:
            extensions.append((mm.EXT_MCTLS_FRAMING, self._client_framing.raw))
        return extensions

    # -- resumption --------------------------------------------------------------

    def _resumable(self, state) -> bool:
        """Resume only the session this ClientHello would negotiate in
        full: the same suite, mode and key transport, the same topology
        byte for byte, granted verbatim by the current policy.

        On resumption the client alone re-distributes (full) context
        keys, so a session where the policy withheld some grant must go
        through the full contributory handshake every time — otherwise
        resumption would widen middlebox access beyond what the server
        approves now, even for a session cached before a policy change.
        """
        proposed = self.topology.encode()
        return (
            state.cipher_suite_id == self.negotiated_suite.suite_id
            and state.mode == self.mode
            and state.key_transport == self.key_transport
            and state.topology_bytes == proposed
            and (
                self.approved_topology is self.topology
                or self.approved_topology.encode() == proposed
            )
        )

    # -- client flight ---------------------------------------------------------------

    def _on_client_key_material(self, mkm: mm.MiddleboxKeyMaterial, raw) -> None:
        if mkm.sender != mm.SENDER_CLIENT:
            raise TLSError("server received its own key material back")
        if mkm.target != ENDPOINT_TARGET:
            return  # addressed to a middlebox; transcript only
        if self.resumed:
            raise TLSError("endpoint key material has no place in a resumed handshake")
        self._open_peer_key_material(mkm)

    def _on_client_finished(self, finished: tls_msgs.Finished, raw) -> None:
        self._check_middlebox_flights_complete()
        self._check_finished(finished)
        self._finish_key_setup()
        self._remember()
        self._send_finished()
        self._emit_handshake_complete()

    def _on_resumed_client_finished(self, finished: tls_msgs.Finished, raw) -> None:
        """Close the abbreviated handshake (our CCS/Finished already went
        out with the ServerHello)."""
        self._check_finished(finished)
        self._emit_handshake_complete()

    def _finish_key_setup(self) -> None:
        """Distribute (if this mode requires it) and install context keys
        once the client's Finished has verified.  The delegation stack
        overrides this to send per-middlebox delegated key material."""
        if self.mode is ms.HandshakeMode.DEFAULT:
            self._generate_partial_keys()
            self._send_key_material()
            self._install_combined_context_keys()
        else:
            self._install_context_keys(self._ckd_keys)

    # (state, message, handler, next state, transcript tag).  A resumed
    # session waits for the re-keying flight, where key exchanges miss.
    # fmt: off
    TRANSITIONS = {**core.middlebox_flight(S.WAIT_CLIENT_FLIGHT), **table(
        (S.WAIT_CLIENT_HELLO, tls_msgs.ClientHello, _on_client_hello,
         (S.WAIT_CLIENT_KEY_EXCHANGE, S.WAIT_RESUMED_CLIENT_FLIGHT), ms.TAG_CLIENT_HELLO),
        (S.WAIT_CLIENT_KEY_EXCHANGE, tls_msgs.ClientKeyExchange, core._on_client_key_exchange,
         S.WAIT_CLIENT_FLIGHT, ms.TAG_CLIENT_KE),
        (S.WAIT_CLIENT_FLIGHT, mm.MiddleboxKeyMaterial, _on_client_key_material,
         S.WAIT_CLIENT_FLIGHT, lambda m: ms.tag_client_mkm(m.target)),
        (S.WAIT_CLIENT_FLIGHT, CCS, core._on_change_cipher_spec,
         S.WAIT_CLIENT_FINISHED),
        (S.WAIT_CLIENT_FINISHED, tls_msgs.Finished, _on_client_finished,
         S.CONNECTED, ms.TAG_CLIENT_FINISHED),
        (S.WAIT_RESUMED_CLIENT_FLIGHT, mm.MiddleboxKeyMaterial, _on_client_key_material,
         S.WAIT_RESUMED_CLIENT_FLIGHT, lambda m: ms.tag_client_mkm(m.target)),
        (S.WAIT_RESUMED_CLIENT_FLIGHT, CCS, core._on_change_cipher_spec,
         S.WAIT_RESUMED_CLIENT_FINISHED),
        (S.WAIT_RESUMED_CLIENT_FINISHED, tls_msgs.Finished, _on_resumed_client_finished,
         S.CONNECTED, ms.TAG_CLIENT_FINISHED),
    )}
    # fmt: on
