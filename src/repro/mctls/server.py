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

import dataclasses
from enum import IntEnum, auto
from typing import Callable, Optional

from repro import framing as frm
from repro.core.endpoint import CCS, table
from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import ENDPOINT_TARGET, SessionTopology
from repro.tls import keyschedule as ks
from repro.tls import messages as tls_msgs
from repro.tls.connection import TLSConfig, TLSError
from repro.tls.sessioncache import SessionCache, new_session_id
from repro.tls.tickets import KIND_MCTLS, TicketError, TicketKeyManager


class _State(IntEnum):
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_KEY_EXCHANGE = auto()
    WAIT_CLIENT_FLIGHT = auto()  # middlebox flights + client MKMs, then CCS
    WAIT_CLIENT_FINISHED = auto()
    WAIT_RESUMED_CLIENT_FLIGHT = auto()  # re-keying MKMs (mdTLS: warrants), CCS
    WAIT_RESUMED_CLIENT_FINISHED = auto()
    CONNECTED = auto()


S = _State  # the short name the transition table is written with


class McTLSServer(ms.McTLSConnectionBase):
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
        ticket_manager: Optional[TicketKeyManager] = None,
    ):
        if config.identity is None:
            raise TLSError("mcTLS server requires an identity (certificate + key)")
        super().__init__(config, is_client=False, verify_middleboxes=verify_middleboxes)
        self.mode = mode
        self.topology_policy = topology_policy
        self._session_cache = session_cache
        self._ticket_manager = ticket_manager
        self._client_ticket_support = False
        self._session_id = b""
        self._state = S.WAIT_CLIENT_HELLO
        # A valid ClientHello framing offer is accepted by echoing it
        # verbatim in the ServerHello; resumed sessions always fall back
        # to the default framing (field keys travel only in the full
        # handshake's key material flight).
        self._framing_echo: Optional[bytes] = None

    # -- flight 1 ---------------------------------------------------------------

    def _on_client_hello(self, hello: tls_msgs.ClientHello, raw) -> S:
        self._client_random = hello.random
        ext = hello.find_extension(tls_msgs.EXT_MIDDLEBOX_LIST)
        if ext is None:
            raise TLSError("ClientHello lacks the MiddleboxListExtension")
        self.key_transport = ms.negotiated(
            hello, ms.KeyTransport, default=self.key_transport
        )
        framing_ext = hello.find_extension(mm.EXT_MCTLS_FRAMING)
        offered_framing = None
        offered_schemas = ()
        if framing_ext is not None:
            framing_id, offered_schemas = mm.decode_framing_offer(framing_ext)
            try:
                offered_framing = frm.framing_by_id(framing_id)
            except frm.FramingError as exc:
                raise TLSError(str(exc)) from None
            if not offered_framing.carries_context_id:
                raise TLSError("offered framing cannot carry mcTLS records")
        proposed = SessionTopology.decode(ext)
        self._set_topology(
            proposed,
            self.topology_policy(proposed) if self.topology_policy is not None else proposed,
        )

        suite = self.config.first_supported(hello.cipher_suites)
        if suite is None:
            raise TLSError("no mutually supported cipher suite")
        self.negotiated_suite = suite
        self.records.set_suite(suite)

        if self._try_ticket_resumption(hello):
            return S.WAIT_RESUMED_CLIENT_FLIGHT

        cached = self._lookup_resumable_session(hello)
        if cached is not None:
            self._resume_session(cached)
            return S.WAIT_RESUMED_CLIENT_FLIGHT

        # Full handshake: never echo the client-proposed id; issue a fresh
        # one iff this session will be cacheable.
        if self._session_cache is not None and self._session_cacheable():
            self._session_id = new_session_id()

        extensions = [(mm.EXT_MCTLS_MODE, bytes([int(self.mode)]))]
        if offered_framing is not None and offered_framing is not frm.MCTLS_DEFAULT:
            # Accept by echoing the offer verbatim — the echo is also the
            # single point on the path where middleboxes learn the
            # session's framing and field schemas.
            self.negotiated_framing = offered_framing
            self._field_schemas = offered_schemas
            self._framing_echo = bytes(framing_ext)
            extensions.append((mm.EXT_MCTLS_FRAMING, self._framing_echo))
        self._send_handshake(
            tls_msgs.ServerHello(
                random=self._server_random,
                session_id=self._session_id,
                cipher_suite=suite.suite_id,
                extensions=extensions,
            ),
            tag=ms.TAG_SERVER_HELLO,
        )
        self._send_handshake(
            tls_msgs.CertificateMessage(chain=self.config.identity.chain),
            tag=ms.TAG_SERVER_CERT,
        )
        self._send_server_key_exchange()
        self._send_handshake(tls_msgs.ServerHelloDone(), tag=ms.TAG_SERVER_HELLO_DONE)
        return S.WAIT_CLIENT_KEY_EXCHANGE

    # -- resumption --------------------------------------------------------------

    def _session_cacheable(self) -> bool:
        """A session is resumable only if the server granted the client's
        topology verbatim.

        On resumption the client alone re-distributes (full) context keys,
        so a session where the policy withheld some grant must go through
        the full contributory handshake every time — otherwise resumption
        would widen middlebox access beyond what the server approved.
        """
        return self.approved_topology.encode() == self.topology.encode()

    def _try_ticket_resumption(self, hello: tls_msgs.ClientHello) -> bool:
        """Resume from a client-presented ticket, statelessly.

        The sealed state carries the originally *granted* topology, mode
        and key transport; every one of them — plus the current policy,
        via :meth:`_session_cacheable` — must match this ClientHello
        verbatim, so a ticket can never widen middlebox access, not even
        one minted before a policy change.  Any defect falls back to the
        full handshake silently.
        """
        ext = hello.find_extension(tls_msgs.EXT_SESSION_TICKET)
        if ext is None:
            return False
        self._client_ticket_support = True
        if self._ticket_manager is None or not ext or not hello.session_id:
            return False
        try:
            kind, payload = self._ticket_manager.unseal(ext)
            if kind != self._ticket_kind:
                raise TicketError("ticket sealed for a different protocol")
            state = self._decode_ticket_payload(payload)
        except TicketError:
            return False
        if state.cipher_suite_id != self.negotiated_suite.suite_id:
            return False
        if state.topology_bytes != self.topology.encode():
            return False
        if not self._session_cacheable():
            return False
        if state.mode != int(self.mode) or state.key_transport != int(
            self.key_transport
        ):
            return False
        self._resume_session(
            dataclasses.replace(state, session_id=bytes(hello.session_id))
        )
        return True

    def _maybe_send_new_session_ticket(self) -> None:
        """Issue a ticket on a completing full handshake — but only when
        the session would be cacheable at all (topology granted verbatim);
        a policy-narrowed session must renegotiate in full every time,
        whether resumption is stateful or stateless."""
        if self._ticket_manager is None or not self._client_ticket_support:
            return
        if not self._session_cacheable():
            return
        ticket = self._ticket_manager.seal(
            self._ticket_kind, self._encode_ticket_payload()
        )
        # Untagged: NewSessionTicket stays out of the canonical transcript
        # (the client mirrors this), so Finished hashes are unchanged.
        self._send_handshake(
            tls_msgs.NewSessionTicket(
                lifetime_hint=int(self._ticket_manager.lifetime), ticket=ticket
            )
        )

    # Which ticket kind this stack seals/accepts; the delegation stack
    # overrides all three so its tickets can never cross into mcTLS.
    _ticket_kind = KIND_MCTLS

    def _decode_ticket_payload(self, payload: bytes) -> ms.McTLSSessionState:
        return ms.decode_ticket_state(payload)

    def _encode_ticket_payload(self) -> bytes:
        return ms.encode_ticket_state(self._session_state(b""))

    def _lookup_resumable_session(
        self, hello: tls_msgs.ClientHello
    ) -> Optional[ms.McTLSSessionState]:
        """Cached state iff the proposed session id can be honored.

        Every mismatch — unknown/evicted/expired id, different suite,
        changed topology, changed policy, changed mode or key transport —
        returns None and the caller falls back to a full handshake.
        """
        if self._session_cache is None or not hello.session_id:
            return None
        cached = self._session_cache.get(bytes(hello.session_id))
        if not isinstance(cached, ms.McTLSSessionState):
            return None
        if cached.cipher_suite_id != self.negotiated_suite.suite_id:
            return None
        if cached.topology_bytes != self.topology.encode():
            return None  # client proposes a different middlebox/context setup
        if not self._session_cacheable():
            return None  # current policy no longer grants the full topology
        if cached.mode != int(self.mode) or cached.key_transport != int(
            self.key_transport
        ):
            return None
        return cached

    def _resume_session(self, cached: ms.McTLSSessionState) -> None:
        """Abbreviated handshake: echo the id, skip certs/key exchange and
        derive everything from the cached endpoint secret + fresh randoms."""
        self.resumed = True
        self._session_id = cached.session_id
        self._establish_endpoint_keys(cached.endpoint_secret)
        self._install_context_keys(self._full_context_keys(mk.resumption_context_keys))

        self._send_handshake(
            tls_msgs.ServerHello(
                random=self._server_random,
                session_id=cached.session_id,  # explicit echo = resumption
                cipher_suite=self.negotiated_suite.suite_id,
                extensions=[(mm.EXT_MCTLS_MODE, bytes([int(self.mode)]))],
            ),
            tag=ms.TAG_SERVER_HELLO,
        )
        # Anything the abbreviated flow must add before the server's
        # Finished (the delegation stack sends fresh warrants + key
        # material here); plain mcTLS sends nothing.
        self._send_resumption_flight()
        # Server finishes first in the abbreviated flow.
        verify = self._finished_verify_data(
            ks.LABEL_SERVER_FINISHED, self.orders.resumed_server
        )
        self._send_change_cipher_spec()
        self.records.activate_write()
        self._send_handshake(
            tls_msgs.Finished(verify_data=verify), tag=ms.TAG_SERVER_FINISHED
        )

    def _send_resumption_flight(self) -> None:
        """Subclass hook: extra abbreviated-flow messages after the
        ServerHello, covered by the (overridden) resumed order."""

    def _send_server_key_exchange(self) -> None:
        group = self._group = self.config.dh_group
        self._dh = group.generate_keypair()
        params = tls_msgs.ServerKeyExchange(
            dh_p=group.p,
            dh_g=group.g,
            dh_public=self._dh.public_bytes,
            signature=b"",
        )
        signed = self._client_random + self._server_random + params.params_bytes()
        params.signature = self.config.identity.key.sign(signed)
        self._send_handshake(params, tag=ms.TAG_SERVER_KE)

    # -- client flight ---------------------------------------------------------------

    def _on_client_key_exchange(self, kx: tls_msgs.ClientKeyExchange, raw) -> None:
        client_public = self._group.public_from_bytes(kx.dh_public)
        premaster = self._dh.combine(client_public)
        self._establish_endpoint_keys(
            mk.derive_pairwise(premaster, self._client_random, self._server_random).secret
        )
        self._setup_negotiated_framing()

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
        self._check_peer_finished(finished, ks.LABEL_CLIENT_FINISHED, self.orders.full_client)

        self._finish_key_setup()

        self._maybe_send_new_session_ticket()
        self._send_change_cipher_spec()
        self.records.activate_write()
        verify = self._finished_verify_data(ks.LABEL_SERVER_FINISHED, self.orders.full_server)
        self._send_handshake(tls_msgs.Finished(verify_data=verify))
        self._cache_session()
        self._emit_handshake_complete()

    def _on_resumed_client_finished(self, finished: tls_msgs.Finished, raw) -> None:
        """Close the abbreviated handshake (our CCS/Finished already went
        out with the ServerHello)."""
        self._check_peer_finished(
            finished, ks.LABEL_CLIENT_FINISHED, self.orders.resumed_client
        )
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
            self._install_context_keys(self._full_context_keys(mk.ckd_context_keys))

    def _cache_session(self) -> None:
        """Make a completed full handshake resumable."""
        if self._session_cache is None or not self._session_id:
            return
        self._session_cache.put(self._session_id, self._session_state(self._session_id))

    # (state, message, handler, next state, transcript tag).  A resumed
    # session waits for the re-keying flight, where key exchanges miss.
    # fmt: off
    TRANSITIONS = {**ms.McTLSConnectionBase.middlebox_flight(S.WAIT_CLIENT_FLIGHT), **table(
        (S.WAIT_CLIENT_HELLO, tls_msgs.ClientHello, _on_client_hello,
         (S.WAIT_CLIENT_KEY_EXCHANGE, S.WAIT_RESUMED_CLIENT_FLIGHT), ms.TAG_CLIENT_HELLO),
        (S.WAIT_CLIENT_KEY_EXCHANGE, tls_msgs.ClientKeyExchange, _on_client_key_exchange,
         S.WAIT_CLIENT_FLIGHT, ms.TAG_CLIENT_KE),
        (S.WAIT_CLIENT_FLIGHT, mm.MiddleboxKeyMaterial, _on_client_key_material,
         S.WAIT_CLIENT_FLIGHT, lambda m: ms.tag_client_mkm(m.target)),
        (S.WAIT_CLIENT_FLIGHT, CCS, ms.McTLSConnectionBase._on_change_cipher_spec,
         S.WAIT_CLIENT_FINISHED),
        (S.WAIT_CLIENT_FINISHED, tls_msgs.Finished, _on_client_finished,
         S.CONNECTED, ms.TAG_CLIENT_FINISHED),
        (S.WAIT_RESUMED_CLIENT_FLIGHT, mm.MiddleboxKeyMaterial, _on_client_key_material,
         S.WAIT_RESUMED_CLIENT_FLIGHT, lambda m: ms.tag_client_mkm(m.target)),
        (S.WAIT_RESUMED_CLIENT_FLIGHT, CCS, ms.McTLSConnectionBase._on_change_cipher_spec,
         S.WAIT_RESUMED_CLIENT_FINISHED),
        (S.WAIT_RESUMED_CLIENT_FINISHED, tls_msgs.Finished, _on_resumed_client_finished,
         S.CONNECTED, ms.TAG_CLIENT_FINISHED),
    )}
    # fmt: on
