"""The mcTLS client state machine (§3.5, Figure 1).

The client drives the handshake: it declares the middlebox list and the
encryption contexts in its ClientHello, authenticates the server and every
middlebox, performs a Diffie-Hellman exchange with each of them using a
single ephemeral key pair, generates its half of every context key (or the
full keys in client-key-distribution mode) and distributes the material in
``MiddleboxKeyMaterial`` messages.
"""

from __future__ import annotations

import dataclasses
import hmac
from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, List, Optional, Sequence

from repro import framing as frm
from repro.crypto.certs import Certificate, verify_chain
from repro.crypto.dh import DHGroup, DHKeyPair
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
from repro.tls.sessioncache import ClientSessionStore, new_session_id
from repro.tls.tickets import ClientTicket


class _State(Enum):
    START = auto()
    WAIT_SERVER_HELLO = auto()
    WAIT_CERTIFICATE = auto()
    WAIT_SERVER_KEY_EXCHANGE = auto()
    WAIT_HELLO_DONE = auto()  # middlebox flights arrive here too
    WAIT_SERVER_FLIGHT = auto()  # server MKMs + CCS + Finished
    CONNECTED = auto()


@dataclass
class _MiddleboxState:
    """Everything the client learns about one middlebox."""

    mbox_id: int
    name: str
    random: Optional[bytes] = None
    chain: Sequence[Certificate] = ()
    ke_to_client: Optional[mm.MiddleboxKeyExchange] = None
    ke_to_server: Optional[mm.MiddleboxKeyExchange] = None
    pairwise: Optional[mk.PairwiseKeys] = None


class McTLSClient(ms.McTLSConnectionBase):
    """A sans-I/O mcTLS client.

    ``topology`` declares the middleboxes and contexts for this session;
    ``verify_middleboxes`` controls whether middlebox certificates are
    checked (the paper's R1 lets clients choose).
    """

    def __init__(
        self,
        config: TLSConfig,
        topology: SessionTopology,
        verify_middleboxes: bool = True,
        key_transport: ms.KeyTransport = None,
        session_store: Optional[ClientSessionStore] = None,
        ticket_store: Optional[ClientSessionStore] = None,
    ):
        super().__init__(config, is_client=True)
        self.topology = topology
        self.verify_middleboxes = verify_middleboxes
        self.key_transport = (
            key_transport if key_transport is not None else ms.KeyTransport.DHE
        )
        self.mode: ms.HandshakeMode = ms.HandshakeMode.DEFAULT
        self._session_store = session_store
        self._ticket_store = ticket_store
        self._offered_session: Optional[ms.McTLSSessionState] = None
        self._offered_ticket: Optional[ClientTicket] = None
        self._received_ticket: Optional[tls_msgs.NewSessionTicket] = None
        self._pending_session_id = b""
        self.resumed = False
        self._state = _State.START
        self._client_random = ms.make_random()
        self._client_secret = ms.make_secret()  # S_C
        self._server_random: Optional[bytes] = None
        self._server_dh_public: Optional[int] = None
        self._group: Optional[DHGroup] = None
        self._dh: Optional[DHKeyPair] = None
        self._endpoint_secret: Optional[bytes] = None  # S_C-S
        self._endpoint_keys: Optional[mk.EndpointKeys] = None
        self._mboxes: Dict[int, _MiddleboxState] = {
            m.mbox_id: _MiddleboxState(mbox_id=m.mbox_id, name=m.name)
            for m in topology.middleboxes
        }
        # Own partial keys per context (default mode).
        self._reader_halves: Dict[int, bytes] = {}
        self._writer_halves: Dict[int, bytes] = {}
        # Server halves, decrypted from the server's key material.
        self._server_reader_halves: Dict[int, bytes] = {}
        self._server_writer_halves: Dict[int, bytes] = {}
        # Record-framing negotiation: the offer goes in the ClientHello,
        # the server accepts by echoing it verbatim, and the negotiated
        # framing takes effect at the CCS boundary.  Default framing
        # needs no extension at all (bit-identical legacy handshakes).
        self._requested_framing = frm.framing_by_name(config.framing)
        self._field_schemas = tuple(config.field_schemas)
        self._framing_offer: Optional[bytes] = None
        self.negotiated_framing = frm.MCTLS_DEFAULT
        # context_id -> per-field-index FieldKeys (tuple, schema order).
        self._field_keys: Dict[int, tuple] = {}

    # -- driving ------------------------------------------------------------

    def start_handshake(self) -> None:
        if self._state is not _State.START:
            raise TLSError("handshake already started")
        session_id = self._resumable_session_id()
        extensions = [
            (tls_msgs.EXT_MIDDLEBOX_LIST, self.topology.encode()),
            (mm.EXT_MCTLS_KEY_TRANSPORT, bytes([int(self.key_transport)])),
        ]
        if self._requested_framing is not frm.MCTLS_DEFAULT:
            self._framing_offer = mm.encode_framing_offer(
                self._requested_framing.framing_id, self._field_schemas
            )
            extensions.append((mm.EXT_MCTLS_FRAMING, self._framing_offer))
        if self._ticket_store is not None:
            # Present even when empty: "I support tickets, issue me one".
            extensions.append(
                (
                    tls_msgs.EXT_SESSION_TICKET,
                    self._offered_ticket.ticket if self._offered_ticket else b"",
                )
            )
        hello = tls_msgs.ClientHello(
            random=self._client_random,
            session_id=session_id,
            cipher_suites=self.config.suite_ids(),
            extensions=extensions,
        )
        self._send_handshake(hello, tag=ms.TAG_CLIENT_HELLO)
        self._state = _State.WAIT_SERVER_HELLO

    def _session_store_key(self):
        # Namespaced so a store shared with a plain TLS client can never
        # hand us (or receive) the wrong protocol's session state.
        return ("mctls", self.config.server_name or "")

    def _resumable_session_id(self) -> bytes:
        """Offer a cached ticket or session, but only if this session's
        parameters still match it exactly — otherwise a full handshake is
        the only way to renegotiate topology, mode or transport.

        A ticket offer goes out with a fresh random session id (RFC 5077
        §3.4); the server echoes it on acceptance, which drives the same
        abbreviated flow the session-id path uses.
        """
        ticket = self._resumable_ticket()
        if ticket is not None:
            self._offered_ticket = ticket
            accept_id = new_session_id()
            self._offered_session = dataclasses.replace(
                ticket.state, session_id=accept_id
            )
            return accept_id
        if self._session_store is None:
            return b""
        cached = self._session_store.get(self._session_store_key())
        if not self._session_matches(cached):
            return b""
        self._offered_session = cached
        return cached.session_id

    def _session_matches(self, cached: object) -> bool:
        if not isinstance(cached, ms.McTLSSessionState):
            return False
        if cached.cipher_suite_id not in self.config.suite_ids():
            return False
        if cached.topology_bytes != self.topology.encode():
            return False
        if cached.key_transport != int(self.key_transport):
            return False
        return True

    def _resumable_ticket(self) -> Optional[ClientTicket]:
        if self._ticket_store is None:
            return None
        cached = self._ticket_store.get(self._session_store_key())
        if not isinstance(cached, ClientTicket):
            return None
        if not self._session_matches(cached.state):
            return None
        return cached

    # -- message handling -----------------------------------------------------

    def _handle_handshake_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if msg_type == tls_msgs.SERVER_HELLO and self._state is _State.WAIT_SERVER_HELLO:
            self.transcript.add(ms.TAG_SERVER_HELLO, raw)
            self._on_server_hello(tls_msgs.ServerHello.decode(body))
        elif msg_type == tls_msgs.CERTIFICATE and self._state is _State.WAIT_CERTIFICATE:
            self.transcript.add(ms.TAG_SERVER_CERT, raw)
            self._on_server_certificate(tls_msgs.CertificateMessage.decode(body))
        elif (
            msg_type == tls_msgs.SERVER_KEY_EXCHANGE
            and self._state is _State.WAIT_SERVER_KEY_EXCHANGE
        ):
            self.transcript.add(ms.TAG_SERVER_KE, raw)
            self._on_server_key_exchange(tls_msgs.ServerKeyExchange.decode(body))
        elif msg_type == tls_msgs.MIDDLEBOX_HELLO and self._state is _State.WAIT_HELLO_DONE:
            hello = mm.MiddleboxHello.decode(body)
            self.transcript.add(ms.tag_mbox_hello(hello.mbox_id), raw)
            self._mbox(hello.mbox_id).random = hello.random
        elif (
            msg_type == tls_msgs.MIDDLEBOX_CERTIFICATE
            and self._state is _State.WAIT_HELLO_DONE
        ):
            cert_msg = mm.MiddleboxCertificateMessage.decode(body)
            self.transcript.add(ms.tag_mbox_cert(cert_msg.mbox_id), raw)
            self._on_middlebox_certificate(cert_msg)
        elif (
            msg_type == tls_msgs.MIDDLEBOX_KEY_EXCHANGE
            and self._state is _State.WAIT_HELLO_DONE
        ):
            if self.key_transport is ms.KeyTransport.RSA:
                raise TLSError("unexpected middlebox key exchange in RSA transport")
            ke = mm.MiddleboxKeyExchange.decode(body)
            self.transcript.add(ms.tag_mbox_ke(ke.mbox_id, ke.direction), raw)
            self._on_middlebox_key_exchange(ke)
        elif (
            msg_type == tls_msgs.SERVER_HELLO_DONE and self._state is _State.WAIT_HELLO_DONE
        ):
            tls_msgs.ServerHelloDone.decode(body)
            self.transcript.add(ms.TAG_SERVER_HELLO_DONE, raw)
            self._on_server_hello_done()
        elif (
            msg_type == tls_msgs.MIDDLEBOX_KEY_MATERIAL
            and self._state is _State.WAIT_SERVER_FLIGHT
        ):
            self._on_server_key_material(mm.MiddleboxKeyMaterial.decode(body), raw)
        elif (
            msg_type == tls_msgs.NEW_SESSION_TICKET
            and self._state is _State.WAIT_SERVER_FLIGHT
        ):
            # Deliberately NOT added to the transcript store: the server
            # sends it untagged too, so Finished hashes ignore it.
            self._received_ticket = tls_msgs.NewSessionTicket.decode(body)
        elif msg_type == tls_msgs.FINISHED and self._state is _State.WAIT_SERVER_FLIGHT:
            self._on_server_finished(tls_msgs.Finished.decode(body), raw)
        else:
            raise TLSError(
                f"unexpected handshake message {msg_type} in state {self._state.name}",
                ALERT_UNEXPECTED_MESSAGE,
            )

    def _mbox(self, mbox_id: int) -> _MiddleboxState:
        try:
            return self._mboxes[mbox_id]
        except KeyError:
            raise TLSError(f"message from undeclared middlebox {mbox_id}") from None

    # -- server flight 1 --------------------------------------------------------

    def _on_server_hello(self, hello: tls_msgs.ServerHello) -> None:
        suite = self.config.suite_for_id(hello.cipher_suite)
        if suite is None:
            raise TLSError("server selected a cipher suite we did not offer")
        self.negotiated_suite = suite
        self.records.set_suite(suite)
        self._server_random = hello.random
        mode_ext = hello.find_extension(mm.EXT_MCTLS_MODE)
        if mode_ext is None or len(mode_ext) != 1:
            raise TLSError("server did not negotiate an mcTLS mode")
        try:
            self.mode = ms.HandshakeMode(mode_ext[0])
        except ValueError:
            raise TLSError(f"unknown mcTLS mode {mode_ext[0]}") from None
        framing_ext = hello.find_extension(mm.EXT_MCTLS_FRAMING)
        if (
            self._offered_session is not None
            and hello.session_id == self._offered_session.session_id
        ):
            # Abbreviated handshakes never negotiate a framing: field
            # keys travel in the full handshake's key material flight,
            # which resumption skips, so the session falls back to the
            # default framing even if the offer went out.
            if framing_ext is not None:
                raise TLSError("server echoed a framing offer in a resumed handshake")
            self._begin_resumption(hello, suite)
            return
        if framing_ext is not None:
            if self._framing_offer is None or framing_ext != self._framing_offer:
                raise TLSError("server echoed a framing offer we did not make")
            self.negotiated_framing = self._requested_framing
        self._pending_session_id = hello.session_id
        self._state = _State.WAIT_CERTIFICATE

    def _begin_resumption(self, hello: tls_msgs.ServerHello, suite) -> None:
        """Server echoed our cached session id: abbreviated handshake."""
        cached = self._offered_session
        if hello.cipher_suite != cached.cipher_suite_id:
            raise TLSError("resumed session must keep its original cipher suite")
        if int(self.mode) != cached.mode:
            raise TLSError("resumed session must keep its original mcTLS mode")
        self.resumed = True
        self._endpoint_secret = cached.endpoint_secret
        self._endpoint_keys = mk.derive_endpoint_keys(
            self._endpoint_secret, self._client_random, self._server_random
        )
        self.records.set_endpoint_keys(self._endpoint_keys)
        # Fresh context keys from the cached secret + fresh randoms; the
        # server derives the same ones independently, and we re-distribute
        # them to the middleboxes after verifying the server's Finished.
        self._ckd_keys = {
            ctx_id: mk.resumption_context_keys(
                self._endpoint_secret,
                self._client_random,
                self._server_random,
                ctx_id,
            )
            for ctx_id in self.topology.context_ids
        }
        for ctx_id, keys in self._ckd_keys.items():
            self.records.install_context_keys(ctx_id, keys)
        # Server CCS + Finished arrive next.
        self._state = _State.WAIT_SERVER_FLIGHT

    def _on_server_certificate(self, message: tls_msgs.CertificateMessage) -> None:
        if not message.chain:
            raise TLSError("server sent an empty certificate chain", ALERT_BAD_CERTIFICATE)
        if self.config.verify_certificates:
            try:
                verify_chain(
                    message.chain,
                    self.config.trusted_roots,
                    expected_subject=self.config.server_name,
                )
            except Exception as exc:
                raise TLSError(
                    f"server certificate verification failed: {exc}",
                    ALERT_BAD_CERTIFICATE,
                ) from exc
        self.peer_certificate = message.chain[0]
        self._state = _State.WAIT_SERVER_KEY_EXCHANGE

    def _on_server_key_exchange(self, kx: tls_msgs.ServerKeyExchange) -> None:
        signed = self._client_random + self._server_random + kx.params_bytes()
        if self.config.verify_certificates:
            if not self.peer_certificate.public_key.verify(signed, kx.signature):
                raise TLSError("ServerKeyExchange signature invalid", ALERT_DECRYPT_ERROR)
        self._group = DHGroup(name="negotiated", p=kx.dh_p, g=kx.dh_g)
        self._server_dh_public = self._group.public_from_bytes(kx.dh_public)
        self._state = _State.WAIT_HELLO_DONE

    def _on_middlebox_certificate(self, message: mm.MiddleboxCertificateMessage) -> None:
        state = self._mbox(message.mbox_id)
        if not message.chain:
            raise TLSError("middlebox sent an empty certificate chain", ALERT_BAD_CERTIFICATE)
        if self.verify_middleboxes and self.config.verify_certificates:
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

    def _on_middlebox_key_exchange(self, ke: mm.MiddleboxKeyExchange) -> None:
        state = self._mbox(ke.mbox_id)
        if state.random is None or not state.chain:
            raise TLSError("middlebox key exchange before its hello/certificate")
        if ke.direction == mm.TOWARD_CLIENT:
            endpoint_random = self._client_random
        else:
            endpoint_random = self._server_random
        if self.verify_middleboxes and self.config.verify_certificates:
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

    # -- client flight ------------------------------------------------------------

    def _on_server_hello_done(self) -> None:
        self._check_middlebox_flights_complete()

        self._dh = self._group.generate_keypair()
        self._send_handshake(
            tls_msgs.ClientKeyExchange(dh_public=self._dh.public_bytes),
            tag=ms.TAG_CLIENT_KE,
        )

        # Endpoint shared secret and keys.
        premaster = self._dh.combine(self._server_dh_public)
        pairwise_es = mk.derive_pairwise(premaster, self._client_random, self._server_random)
        self._endpoint_secret = pairwise_es.secret
        self._endpoint_keys = mk.derive_endpoint_keys(
            self._endpoint_secret, self._client_random, self._server_random
        )
        self.records.set_endpoint_keys(self._endpoint_keys)
        self._setup_negotiated_framing()

        self._derive_middlebox_pairwise()

        self._generate_key_material()
        self._send_key_material()

        self._send_change_cipher_spec()
        self.records.activate_write()
        verify = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_CLIENT_FINISHED,
            self.transcript.hash_over(self._order_t1()),
        )
        raw = self._send_handshake(tls_msgs.Finished(verify_data=verify))
        self.transcript.add(ms.TAG_CLIENT_FINISHED, raw)

        if self.mode is not ms.HandshakeMode.DEFAULT:
            self._install_ckd_context_keys()
        self._state = _State.WAIT_SERVER_FLIGHT

    def _setup_negotiated_framing(self) -> None:
        """Derive per-field MAC keys and arm the negotiated framing.

        Field keys are derived from the *endpoint* secret — only the two
        endpoints hold it, so a middlebox granted one field can never
        forge another field's MAC — and take effect (with the framing)
        at the CCS boundary, exactly like cipher activation.
        """
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

    def _field_keys_for_middlebox(
        self, mbox_id: int
    ) -> Dict[int, Dict[int, mk.FieldKeys]]:
        """Per-context field keys for exactly the fields granted to
        ``mbox_id`` — holding a field key *is* the write grant."""
        granted: Dict[int, Dict[int, mk.FieldKeys]] = {}
        for schema in self._field_schemas:
            keys = self._field_keys.get(schema.context_id)
            if keys is None:
                continue
            indexes = schema.writable_fields(mbox_id)
            if indexes:
                granted[schema.context_id] = {i: keys[i] for i in indexes}
        return granted

    def _derive_middlebox_pairwise(self) -> None:
        """Pairwise keys with each middlebox (single client DH key pair).

        RSA transport needs none: material is sealed to the middlebox's
        certificate key instead.  The delegation stack overrides this to
        a no-op — the client distributes no key material there.
        """
        if self.key_transport is ms.KeyTransport.DHE:
            for state in self._mboxes.values():
                peer_public = self._group.public_from_bytes(state.ke_to_client.dh_public)
                ps = self._dh.combine(peer_public)
                state.pairwise = mk.derive_pairwise(ps, self._client_random, state.random)

    # -- canonical transcript orders (delegation stack overrides) -----------

    def _order_t1(self) -> List[str]:
        return ms.canonical_order_t1(self.topology, self.mode, self.key_transport)

    def _order_t2(self) -> List[str]:
        return ms.canonical_order_t2(self.topology, self.mode, self.key_transport)

    def _resumed_order_server(self) -> List[str]:
        return ms.resumed_order_server_finished()

    def _resumed_order_client(self) -> List[str]:
        return ms.resumed_order_client_finished(self.topology)

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

    def _generate_key_material(self) -> None:
        if self.mode is ms.HandshakeMode.DEFAULT:
            for ctx_id in self.topology.context_ids:
                self._reader_halves[ctx_id] = mk.partial_reader_key(
                    self._client_secret, self._client_random, ctx_id
                )
                self._writer_halves[ctx_id] = mk.partial_writer_key(
                    self._client_secret, self._client_random, ctx_id
                )
        else:
            # Full keys straight from the endpoint secret; nothing partial.
            self._ckd_keys = {
                ctx_id: mk.ckd_context_keys(
                    self._endpoint_secret,
                    self._client_random,
                    self._server_random,
                    ctx_id,
                )
                for ctx_id in self.topology.context_ids
            }

    def _shares_for_middlebox(self, mbox_id: int) -> List[mm.ContextKeyShare]:
        shares = []
        for ctx in self.topology.contexts:
            permission = ctx.permission_for(mbox_id)
            if not permission.can_read:
                continue
            if self.mode is ms.HandshakeMode.DEFAULT and not self.resumed:
                reader = self._reader_halves[ctx.context_id]
                writer = (
                    self._writer_halves[ctx.context_id] if permission.can_write else b""
                )
            else:
                # CKD mode and resumed sessions ship full key blocks.
                keys = self._ckd_keys[ctx.context_id]
                reader = mk.reader_block_bytes(keys.readers)
                writer = (
                    mk.writer_block_bytes(keys.writers) if permission.can_write else b""
                )
            shares.append(
                mm.ContextKeyShare(
                    context_id=ctx.context_id,
                    reader_material=reader,
                    writer_material=writer,
                )
            )
        return shares

    def _all_shares(self) -> List[mm.ContextKeyShare]:
        """Every context's material, for the opposite endpoint."""
        shares = []
        for ctx_id in self.topology.context_ids:
            if self.mode is ms.HandshakeMode.DEFAULT:
                reader = self._reader_halves[ctx_id]
                writer = self._writer_halves[ctx_id]
            else:
                keys = self._ckd_keys[ctx_id]
                reader = mk.reader_block_bytes(keys.readers)
                writer = mk.writer_block_bytes(keys.writers)
            shares.append(
                mm.ContextKeyShare(
                    context_id=ctx_id, reader_material=reader, writer_material=writer
                )
            )
        return shares

    def _send_key_material(self) -> None:
        suite = self.negotiated_suite
        for mbox in self.topology.middleboxes:
            state = self._mboxes[mbox.mbox_id]
            shares = mm.encode_key_shares(
                self._shares_for_middlebox(mbox.mbox_id),
                self._field_keys_for_middlebox(mbox.mbox_id),
            )
            if self.key_transport is ms.KeyTransport.RSA:
                sealed = mk.rsa_hybrid_seal(suite, state.chain[0].public_key, shares)
            else:
                sealed = mk.authenc_seal(
                    suite, state.pairwise.enc, state.pairwise.mac, shares
                )
            self._send_handshake(
                mm.MiddleboxKeyMaterial(
                    sender=mm.SENDER_CLIENT, target=mbox.mbox_id, sealed=sealed
                ),
                tag=ms.tag_client_mkm(mbox.mbox_id),
            )
        endpoint_dir = self._endpoint_keys.c2s
        sealed = mk.authenc_seal(
            suite,
            endpoint_dir.enc,
            endpoint_dir.mac,
            mm.encode_key_shares(self._all_shares()),
        )
        self._send_handshake(
            mm.MiddleboxKeyMaterial(
                sender=mm.SENDER_CLIENT, target=ENDPOINT_TARGET, sealed=sealed
            ),
            tag=ms.tag_client_mkm(ENDPOINT_TARGET),
        )

    # -- server flight 2 -------------------------------------------------------------

    def _on_server_key_material(self, mkm: mm.MiddleboxKeyMaterial, raw: bytes) -> None:
        if mkm.sender != mm.SENDER_SERVER:
            raise TLSError("client received its own key material back")
        if self.resumed:
            raise TLSError("server sent key material in a resumed handshake")
        if self.mode is not ms.HandshakeMode.DEFAULT:
            raise TLSError("server sent key material outside default mode")
        self.transcript.add(ms.tag_server_mkm(mkm.target), raw)
        if mkm.target != ENDPOINT_TARGET:
            return  # middlebox-addressed; transcript only
        endpoint_dir = self._endpoint_keys.s2c
        try:
            plaintext = mk.authenc_open(
                self.negotiated_suite, endpoint_dir.enc, endpoint_dir.mac, mkm.sealed
            )
        except CipherError as exc:
            raise TLSError(f"server key material failed to open: {exc}") from exc
        for share in mm.decode_key_shares(plaintext):
            self._server_reader_halves[share.context_id] = share.reader_material
            self._server_writer_halves[share.context_id] = share.writer_material

    def _handle_change_cipher_spec(self) -> None:
        if self._state is not _State.WAIT_SERVER_FLIGHT:
            raise TLSError("unexpected ChangeCipherSpec", ALERT_UNEXPECTED_MESSAGE)
        self.records.activate_read()

    def _on_server_finished(self, finished: tls_msgs.Finished, raw: bytes) -> None:
        if self.resumed:
            self._on_resumed_server_finished(finished, raw)
            return
        expected = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_SERVER_FINISHED,
            self.transcript.hash_over(self._order_t2()),
        )
        if not hmac.compare_digest(finished.verify_data, expected):
            raise TLSError("server Finished verification failed", ALERT_DECRYPT_ERROR)
        if self.mode is ms.HandshakeMode.DEFAULT:
            self._install_combined_context_keys()
        self._state = _State.CONNECTED
        self.handshake_complete = True
        self._store_session()
        self._store_ticket()
        self._emit(
            ms.McTLSHandshakeComplete(
                cipher_suite=self.negotiated_suite.name,
                mode=self.mode,
                topology=self.topology,
                peer_certificate=self.peer_certificate,
            )
        )

    def _on_resumed_server_finished(self, finished: tls_msgs.Finished, raw: bytes) -> None:
        """Verify the server's (first) Finished, then send our abbreviated
        flight: fresh middlebox key material + CCS + Finished."""
        expected = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_SERVER_FINISHED,
            self.transcript.hash_over(self._resumed_order_server()),
        )
        if not hmac.compare_digest(finished.verify_data, expected):
            raise TLSError("server Finished verification failed", ALERT_DECRYPT_ERROR)
        self.transcript.add(ms.TAG_SERVER_FINISHED, raw)

        self._redistribute_context_keys()

        self._send_change_cipher_spec()
        self.records.activate_write()
        verify = ks.finished_verify_data(
            self._endpoint_secret,
            ks.LABEL_CLIENT_FINISHED,
            self.transcript.hash_over(self._resumed_order_client()),
        )
        self._send_handshake(tls_msgs.Finished(verify_data=verify))
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

    def _redistribute_context_keys(self) -> None:
        """Send each middlebox its fresh context keys for this session.

        There is no DH exchange (and hence no pairwise key) in the
        abbreviated flow, so the material is sealed to the middlebox's
        certificate key remembered from the original session — the same
        hybrid construction the RSA key transport uses.
        """
        suite = self.negotiated_suite
        for mbox in self.topology.middleboxes:
            cert = self._offered_session.middlebox_certs.get(mbox.mbox_id)
            if cert is None:
                raise TLSError(
                    f"no cached certificate for middlebox {mbox.mbox_id}; "
                    "cannot re-key a resumed session"
                )
            shares = mm.encode_key_shares(self._shares_for_middlebox(mbox.mbox_id))
            sealed = mk.rsa_hybrid_seal(suite, cert.public_key, shares)
            self._send_handshake(
                mm.MiddleboxKeyMaterial(
                    sender=mm.SENDER_CLIENT, target=mbox.mbox_id, sealed=sealed
                ),
                tag=ms.tag_client_mkm(mbox.mbox_id),
            )

    def _completed_session_state(self, session_id: bytes) -> ms.McTLSSessionState:
        return ms.McTLSSessionState(
            session_id=session_id,
            endpoint_secret=self._endpoint_secret,
            cipher_suite_id=self.negotiated_suite.suite_id,
            mode=int(self.mode),
            key_transport=int(self.key_transport),
            topology_bytes=self.topology.encode(),
            middlebox_certs={
                mbox_id: state.chain[0]
                for mbox_id, state in self._mboxes.items()
                if state.chain
            },
        )

    def _store_session(self) -> None:
        """Remember a completed full handshake for later resumption."""
        if self._session_store is None or not self._pending_session_id:
            return
        self._session_store.put(
            self._session_store_key(),
            self._completed_session_state(self._pending_session_id),
        )

    def _store_ticket(self) -> None:
        """Remember a freshly issued ticket alongside our own session
        state (the ticket is opaque; the middlebox certificates we need
        for re-keying on resumption come from *our* record, never the
        ticket)."""
        if self._ticket_store is None or self._received_ticket is None:
            return
        self._ticket_store.put(
            self._session_store_key(),
            ClientTicket(
                ticket=self._received_ticket.ticket,
                state=self._completed_session_state(b""),
            ),
        )

    # -- context key installation ------------------------------------------------------

    def _install_combined_context_keys(self) -> None:
        for ctx_id in self.topology.context_ids:
            if (
                ctx_id not in self._server_reader_halves
                or not self._server_reader_halves[ctx_id]
            ):
                raise TLSError(f"server sent no key material for context {ctx_id}")
            keys = mk.combine_context_keys(
                self._reader_halves[ctx_id],
                self._server_reader_halves[ctx_id],
                self._writer_halves[ctx_id],
                self._server_writer_halves[ctx_id],
                self._client_random,
                self._server_random,
            )
            self.records.install_context_keys(ctx_id, keys)

    def _install_ckd_context_keys(self) -> None:
        for ctx_id, keys in self._ckd_keys.items():
            self.records.install_context_keys(ctx_id, keys)
