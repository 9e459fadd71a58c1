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
"""

from __future__ import annotations

import dataclasses
import hmac
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Dict, Optional, Sequence

from repro import framing as frm
from repro.crypto.certs import Certificate, verify_chain
from repro.crypto.dh import DHKeyPair
from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import ENDPOINT_TARGET, SessionTopology
from repro.tls import keyschedule as ks
from repro.tls import messages as tls_msgs
from repro.tls.ciphersuites import CipherError
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    ALERT_DECRYPT_ERROR,
    ALERT_UNEXPECTED_MESSAGE,
    TLSConfig,
    TLSError,
)
from repro.tls.sessioncache import SessionCache, new_session_id
from repro.tls.tickets import KIND_MCTLS, TicketError, TicketKeyManager


class _State(Enum):
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_FLIGHT = auto()
    CONNECTED = auto()


@dataclass
class _MiddleboxState:
    mbox_id: int
    name: str
    random: Optional[bytes] = None
    chain: Sequence[Certificate] = ()
    ke_to_client: Optional[mm.MiddleboxKeyExchange] = None
    ke_to_server: Optional[mm.MiddleboxKeyExchange] = None
    pairwise: Optional[mk.PairwiseKeys] = None


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
        super().__init__(config, is_client=False)
        self.mode = mode
        self.topology_policy = topology_policy
        self.verify_middleboxes = verify_middleboxes
        self._session_cache = session_cache
        self._ticket_manager = ticket_manager
        self._client_ticket_support = False
        self._session_id = b""
        self.resumed = False
        self.key_transport: ms.KeyTransport = ms.KeyTransport.DHE
        self._state = _State.WAIT_CLIENT_HELLO
        self._server_random = ms.make_random()
        self._server_secret = ms.make_secret()  # S_S
        self._client_random: Optional[bytes] = None
        self._dh: Optional[DHKeyPair] = None
        self._endpoint_secret: Optional[bytes] = None
        self._endpoint_keys: Optional[mk.EndpointKeys] = None
        self.topology: Optional[SessionTopology] = None
        self.approved_topology: Optional[SessionTopology] = None
        self._mboxes: Dict[int, _MiddleboxState] = {}
        self._reader_halves: Dict[int, bytes] = {}
        self._writer_halves: Dict[int, bytes] = {}
        self._client_reader_halves: Dict[int, bytes] = {}
        self._client_writer_halves: Dict[int, bytes] = {}
        # Record-framing negotiation: a valid ClientHello offer is
        # accepted by echoing it verbatim in the ServerHello; resumed
        # sessions always fall back to the default framing (field keys
        # travel only in the full handshake's key material flight).
        self.negotiated_framing = frm.MCTLS_DEFAULT
        self._field_schemas: Sequence = ()
        self._framing_echo: Optional[bytes] = None
        # context_id -> per-field-index FieldKeys (tuple, schema order).
        self._field_keys: Dict[int, tuple] = {}

    # -- message handling -----------------------------------------------------

    def _handle_handshake_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if msg_type == tls_msgs.CLIENT_HELLO and self._state is _State.WAIT_CLIENT_HELLO:
            self.transcript.add(ms.TAG_CLIENT_HELLO, raw)
            self._on_client_hello(tls_msgs.ClientHello.decode(body))
        elif self._state is _State.WAIT_CLIENT_FLIGHT:
            self._on_client_flight_message(msg_type, body, raw)
        else:
            raise TLSError(
                f"unexpected handshake message {msg_type} in state {self._state.name}",
                ALERT_UNEXPECTED_MESSAGE,
            )

    def _on_client_flight_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if self.resumed and msg_type not in (
            tls_msgs.MIDDLEBOX_KEY_MATERIAL,
            tls_msgs.FINISHED,
        ):
            # The abbreviated client flight is key re-distribution +
            # Finished only; certs/key exchanges here mean confusion or
            # mischief.
            raise TLSError(
                f"unexpected handshake message {msg_type} in resumed client flight",
                ALERT_UNEXPECTED_MESSAGE,
            )
        if msg_type == tls_msgs.MIDDLEBOX_HELLO:
            hello = mm.MiddleboxHello.decode(body)
            self.transcript.add(ms.tag_mbox_hello(hello.mbox_id), raw)
            self._mbox(hello.mbox_id).random = hello.random
        elif msg_type == tls_msgs.MIDDLEBOX_CERTIFICATE:
            cert_msg = mm.MiddleboxCertificateMessage.decode(body)
            self.transcript.add(ms.tag_mbox_cert(cert_msg.mbox_id), raw)
            self._on_middlebox_certificate(cert_msg)
        elif msg_type == tls_msgs.MIDDLEBOX_KEY_EXCHANGE:
            ke = mm.MiddleboxKeyExchange.decode(body)
            self.transcript.add(ms.tag_mbox_ke(ke.mbox_id, ke.direction), raw)
            self._on_middlebox_key_exchange(ke)
        elif msg_type == tls_msgs.CLIENT_KEY_EXCHANGE:
            self.transcript.add(ms.TAG_CLIENT_KE, raw)
            self._on_client_key_exchange(tls_msgs.ClientKeyExchange.decode(body))
        elif msg_type == tls_msgs.MIDDLEBOX_KEY_MATERIAL:
            self._on_client_key_material(mm.MiddleboxKeyMaterial.decode(body), raw)
        elif msg_type == tls_msgs.FINISHED:
            self.transcript.add(ms.TAG_CLIENT_FINISHED, raw)
            self._on_client_finished(tls_msgs.Finished.decode(body))
        else:
            raise TLSError(
                f"unexpected handshake message {msg_type} in client flight",
                ALERT_UNEXPECTED_MESSAGE,
            )

    def _mbox(self, mbox_id: int) -> _MiddleboxState:
        try:
            return self._mboxes[mbox_id]
        except KeyError:
            raise TLSError(f"message from undeclared middlebox {mbox_id}") from None

    # -- flight 1 ---------------------------------------------------------------

    def _on_client_hello(self, hello: tls_msgs.ClientHello) -> None:
        self._client_random = hello.random
        ext = hello.find_extension(tls_msgs.EXT_MIDDLEBOX_LIST)
        if ext is None:
            raise TLSError("ClientHello lacks the MiddleboxListExtension")
        kt_ext = hello.find_extension(mm.EXT_MCTLS_KEY_TRANSPORT)
        if kt_ext is not None:
            if len(kt_ext) != 1:
                raise TLSError("malformed key transport extension")
            try:
                self.key_transport = ms.KeyTransport(kt_ext[0])
            except ValueError:
                raise TLSError(f"unknown key transport {kt_ext[0]}") from None
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
        self.topology = SessionTopology.decode(ext)
        self.approved_topology = (
            self.topology_policy(self.topology)
            if self.topology_policy is not None
            else self.topology
        )
        self._mboxes = {
            m.mbox_id: _MiddleboxState(mbox_id=m.mbox_id, name=m.name)
            for m in self.topology.middleboxes
        }

        suite = next(
            (
                self.config.suite_for_id(sid)
                for sid in hello.cipher_suites
                if self.config.suite_for_id(sid) is not None
            ),
            None,
        )
        if suite is None:
            raise TLSError("no mutually supported cipher suite")
        self.negotiated_suite = suite
        self.records.set_suite(suite)

        if self._try_ticket_resumption(hello):
            return

        cached = self._lookup_resumable_session(hello)
        if cached is not None:
            self._resume_session(cached)
            return

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
        self._state = _State.WAIT_CLIENT_FLIGHT

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
        return ms.encode_ticket_state(
            ms.McTLSSessionState(
                session_id=b"",
                endpoint_secret=self._endpoint_secret,
                cipher_suite_id=self.negotiated_suite.suite_id,
                mode=int(self.mode),
                key_transport=int(self.key_transport),
                topology_bytes=self.topology.encode(),
            )
        )

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
        self._endpoint_secret = cached.endpoint_secret
        self._endpoint_keys = mk.derive_endpoint_keys(
            self._endpoint_secret, self._client_random, self._server_random
        )
        self.records.set_endpoint_keys(self._endpoint_keys)
        for ctx_id in self.topology.context_ids:
            self.records.install_context_keys(
                ctx_id,
                mk.resumption_context_keys(
                    self._endpoint_secret,
                    self._client_random,
                    self._server_random,
                    ctx_id,
                ),
            )

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
        verify = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_SERVER_FINISHED,
            self.transcript.hash_over(self._resumed_order_server()),
        )
        self._send_change_cipher_spec()
        self.records.activate_write()
        self._send_handshake(
            tls_msgs.Finished(verify_data=verify), tag=ms.TAG_SERVER_FINISHED
        )
        self._state = _State.WAIT_CLIENT_FLIGHT

    def _send_resumption_flight(self) -> None:
        """Subclass hook: extra abbreviated-flow messages after the
        ServerHello, covered by the (overridden) resumed order."""

    # -- canonical transcript orders (delegation stack overrides) -----------

    def _order_t1(self) -> "list[str]":
        return ms.canonical_order_t1(self.topology, self.mode, self.key_transport)

    def _order_t2(self) -> "list[str]":
        return ms.canonical_order_t2(self.topology, self.mode, self.key_transport)

    def _resumed_order_server(self) -> "list[str]":
        return ms.resumed_order_server_finished()

    def _resumed_order_client(self) -> "list[str]":
        return ms.resumed_order_client_finished(self.topology)

    def _send_server_key_exchange(self) -> None:
        group = self.config.dh_group
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

    def _on_middlebox_certificate(self, message: mm.MiddleboxCertificateMessage) -> None:
        state = self._mbox(message.mbox_id)
        if not message.chain:
            raise TLSError("middlebox sent an empty certificate chain", ALERT_BAD_CERTIFICATE)
        if self._server_verifies_middleboxes():
            try:
                verify_chain(
                    message.chain,
                    self.config.trusted_roots,
                    expected_subject=state.name,
                )
            except Exception as exc:
                raise TLSError(
                    f"middlebox {state.name!r} certificate verification failed: {exc}",
                    ALERT_BAD_CERTIFICATE,
                ) from exc
        state.chain = message.chain

    def _server_verifies_middleboxes(self) -> bool:
        # In client-key-distribution mode the server has relinquished
        # middlebox control entirely (Table 3: server Asym Verify = 0).
        return (
            self.verify_middleboxes
            and self.config.verify_certificates
            and self.mode is not ms.HandshakeMode.CLIENT_KEY_DIST
        )

    def _on_middlebox_key_exchange(self, ke: mm.MiddleboxKeyExchange) -> None:
        state = self._mbox(ke.mbox_id)
        if state.random is None or not state.chain:
            raise TLSError("middlebox key exchange before its hello/certificate")
        endpoint_random = (
            self._client_random if ke.direction == mm.TOWARD_CLIENT else self._server_random
        )
        if self._server_verifies_middleboxes():
            signed = ke.signed_bytes(state.random, endpoint_random)
            if not state.chain[0].public_key.verify(signed, ke.signature):
                raise TLSError(
                    f"middlebox {state.name!r} key exchange signature invalid",
                    ALERT_DECRYPT_ERROR,
                )
        if ke.direction == mm.TOWARD_CLIENT:
            state.ke_to_client = ke
        else:
            state.ke_to_server = ke

    def _on_client_key_exchange(self, kx: tls_msgs.ClientKeyExchange) -> None:
        group = self.config.dh_group
        client_public = group.public_from_bytes(kx.dh_public)
        premaster = self._dh.combine(client_public)
        pairwise_es = mk.derive_pairwise(premaster, self._client_random, self._server_random)
        self._endpoint_secret = pairwise_es.secret
        self._endpoint_keys = mk.derive_endpoint_keys(
            self._endpoint_secret, self._client_random, self._server_random
        )
        self.records.set_endpoint_keys(self._endpoint_keys)
        self._setup_negotiated_framing()

    def _setup_negotiated_framing(self) -> None:
        """Derive per-field MAC keys (endpoint secret — middleboxes can
        never forge fields they were not granted) and arm the negotiated
        framing; both take effect at the CCS boundary."""
        if self.negotiated_framing is frm.MCTLS_DEFAULT:
            return
        if self.negotiated_framing.field_macs:
            for schema in self._field_schemas:
                self._field_keys[schema.context_id] = mk.derive_field_keys(
                    self._endpoint_secret,
                    self._client_random,
                    self._server_random,
                    schema,
                )
        self.records.set_framing(
            self.negotiated_framing, self._field_schemas, self._field_keys
        )

    def _on_client_key_material(self, mkm: mm.MiddleboxKeyMaterial, raw: bytes) -> None:
        if mkm.sender != mm.SENDER_CLIENT:
            raise TLSError("server received its own key material back")
        self.transcript.add(ms.tag_client_mkm(mkm.target), raw)
        if self.resumed:
            if mkm.target == ENDPOINT_TARGET:
                raise TLSError(
                    "endpoint key material has no place in a resumed handshake"
                )
            return  # middlebox re-keying; transcript only
        if mkm.target != ENDPOINT_TARGET:
            return  # addressed to a middlebox; transcript only
        if self._endpoint_keys is None:
            raise TLSError("client key material before ClientKeyExchange")
        endpoint_dir = self._endpoint_keys.c2s
        try:
            plaintext = mk.authenc_open(
                self.negotiated_suite, endpoint_dir.enc, endpoint_dir.mac, mkm.sealed
            )
        except CipherError as exc:
            raise TLSError(f"client key material failed to open: {exc}") from exc
        for share in mm.decode_key_shares(plaintext):
            self._client_reader_halves[share.context_id] = share.reader_material
            self._client_writer_halves[share.context_id] = share.writer_material

    def _handle_change_cipher_spec(self) -> None:
        if self._state is not _State.WAIT_CLIENT_FLIGHT or self._endpoint_keys is None:
            raise TLSError("unexpected ChangeCipherSpec", ALERT_UNEXPECTED_MESSAGE)
        self.records.activate_read()

    def _on_client_finished(self, finished: tls_msgs.Finished) -> None:
        if self.resumed:
            self._on_resumed_client_finished(finished)
            return
        self._check_middlebox_flights_complete()
        expected = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_CLIENT_FINISHED,
            self.transcript.hash_over(self._order_t1()),
        )
        if not hmac.compare_digest(finished.verify_data, expected):
            raise TLSError("client Finished verification failed", ALERT_DECRYPT_ERROR)

        self._finish_key_setup()

        self._maybe_send_new_session_ticket()
        self._send_change_cipher_spec()
        self.records.activate_write()
        verify = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_SERVER_FINISHED,
            self.transcript.hash_over(self._order_t2()),
        )
        self._send_handshake(tls_msgs.Finished(verify_data=verify))
        self._state = _State.CONNECTED
        self.handshake_complete = True
        self._cache_session()
        self._emit(
            ms.McTLSHandshakeComplete(
                cipher_suite=self.negotiated_suite.name,
                mode=self.mode,
                topology=self.topology,
            )
        )

    def _on_resumed_client_finished(self, finished: tls_msgs.Finished) -> None:
        """Close the abbreviated handshake (our CCS/Finished already went
        out with the ServerHello)."""
        expected = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_CLIENT_FINISHED,
            self.transcript.hash_over(self._resumed_order_client()),
        )
        if not hmac.compare_digest(finished.verify_data, expected):
            raise TLSError("client Finished verification failed", ALERT_DECRYPT_ERROR)
        self._state = _State.CONNECTED
        self.handshake_complete = True
        self._emit(
            ms.McTLSHandshakeComplete(
                cipher_suite=self.negotiated_suite.name,
                mode=self.mode,
                topology=self.topology,
                resumed=True,
            )
        )

    def _finish_key_setup(self) -> None:
        """Distribute (if this mode requires it) and install context keys
        once the client's Finished has verified.  The delegation stack
        overrides this to send per-middlebox delegated key material."""
        if self.mode is ms.HandshakeMode.DEFAULT:
            self._generate_and_send_key_material()
            self._install_combined_context_keys()
        else:
            self._install_ckd_context_keys()

    def _cache_session(self) -> None:
        """Make a completed full handshake resumable."""
        if self._session_cache is None or not self._session_id:
            return
        self._session_cache.put(
            self._session_id,
            ms.McTLSSessionState(
                session_id=self._session_id,
                endpoint_secret=self._endpoint_secret,
                cipher_suite_id=self.negotiated_suite.suite_id,
                mode=int(self.mode),
                key_transport=int(self.key_transport),
                topology_bytes=self.topology.encode(),
            ),
        )

    def _check_middlebox_flights_complete(self) -> None:
        for state in self._mboxes.values():
            if state.random is None or not state.chain:
                raise TLSError(f"incomplete handshake flight from middlebox {state.mbox_id}")
            if self.key_transport is ms.KeyTransport.RSA:
                continue  # no key exchanges in RSA transport
            if state.ke_to_client is None:
                raise TLSError(f"incomplete handshake flight from middlebox {state.mbox_id}")
            if self.mode is ms.HandshakeMode.DEFAULT and state.ke_to_server is None:
                raise TLSError(
                    f"middlebox {state.mbox_id} sent no server-directed key exchange"
                )

    # -- server key material (default mode) -----------------------------------------

    def _generate_and_send_key_material(self) -> None:
        for ctx_id in self.topology.context_ids:
            self._reader_halves[ctx_id] = mk.partial_reader_key(
                self._server_secret, self._server_random, ctx_id
            )
            self._writer_halves[ctx_id] = mk.partial_writer_key(
                self._server_secret, self._server_random, ctx_id
            )

        suite = self.negotiated_suite
        group = self.config.dh_group
        for mbox in self.topology.middleboxes:
            state = self._mboxes[mbox.mbox_id]
            if self.key_transport is ms.KeyTransport.DHE:
                peer_public = group.public_from_bytes(state.ke_to_server.dh_public)
                ps = self._dh.combine(peer_public)
                state.pairwise = mk.derive_pairwise(ps, self._server_random, state.random)

            shares = []
            for ctx in self.approved_topology.contexts:
                permission = ctx.permission_for(mbox.mbox_id)
                if not permission.can_read:
                    continue
                shares.append(
                    mm.ContextKeyShare(
                        context_id=ctx.context_id,
                        reader_material=self._reader_halves[ctx.context_id],
                        writer_material=(
                            self._writer_halves[ctx.context_id]
                            if permission.can_write
                            else b""
                        ),
                    )
                )
            encoded_shares = mm.encode_key_shares(shares)
            if self.key_transport is ms.KeyTransport.RSA:
                sealed = mk.rsa_hybrid_seal(suite, state.chain[0].public_key, encoded_shares)
            else:
                sealed = mk.authenc_seal(
                    suite, state.pairwise.enc, state.pairwise.mac, encoded_shares
                )
            self._send_handshake(
                mm.MiddleboxKeyMaterial(
                    sender=mm.SENDER_SERVER, target=mbox.mbox_id, sealed=sealed
                ),
                tag=ms.tag_server_mkm(mbox.mbox_id),
            )

        all_shares = [
            mm.ContextKeyShare(
                context_id=ctx_id,
                reader_material=self._reader_halves[ctx_id],
                writer_material=self._writer_halves[ctx_id],
            )
            for ctx_id in self.topology.context_ids
        ]
        endpoint_dir = self._endpoint_keys.s2c
        sealed = mk.authenc_seal(
            suite, endpoint_dir.enc, endpoint_dir.mac, mm.encode_key_shares(all_shares)
        )
        self._send_handshake(
            mm.MiddleboxKeyMaterial(
                sender=mm.SENDER_SERVER, target=ENDPOINT_TARGET, sealed=sealed
            ),
            tag=ms.tag_server_mkm(ENDPOINT_TARGET),
        )

    # -- context key installation -------------------------------------------------

    def _install_combined_context_keys(self) -> None:
        for ctx_id in self.topology.context_ids:
            if (
                ctx_id not in self._client_reader_halves
                or not self._client_reader_halves[ctx_id]
            ):
                raise TLSError(f"client sent no key material for context {ctx_id}")
            keys = mk.combine_context_keys(
                self._client_reader_halves[ctx_id],
                self._reader_halves[ctx_id],
                self._client_writer_halves[ctx_id],
                self._writer_halves[ctx_id],
                self._client_random,
                self._server_random,
            )
            self.records.install_context_keys(ctx_id, keys)

    def _install_ckd_context_keys(self) -> None:
        for ctx_id in self.topology.context_ids:
            keys = mk.ckd_context_keys(
                self._endpoint_secret, self._client_random, self._server_random, ctx_id
            )
            self.records.install_context_keys(ctx_id, keys)
