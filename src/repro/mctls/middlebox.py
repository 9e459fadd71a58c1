"""The mcTLS middlebox (§3.4–§3.5).

A middlebox relays two TCP byte streams (client side and server side) and
participates in the mcTLS handshake flowing through it:

1. It reads the ClientHello to find its own entry in the middlebox list
   and learn the proposed contexts/permissions, then forwards it.
2. When the server's flight passes back through, it snoops the
   ServerHello (cipher suite, mode) and ServerKeyExchange (DH group and
   the server's ephemeral public key), generates its *two* ephemeral DH
   key pairs in that group, and injects its own flight — MiddleboxHello,
   certificate and signed key exchange(s) — before ServerHelloDone.
3. It injects the same flight toward the server right after forwarding
   the ClientKeyExchange (the paper's piggybacking on that flight), from
   which it also snoops the client's DH public key.
4. It decrypts the two ``MiddleboxKeyMaterial`` messages addressed to it
   (forwarding every key material message so the endpoints can include
   them in their transcripts), combines the halves, and installs context
   keys for exactly the contexts both endpoints granted.
5. After ChangeCipherSpec it processes application records per context:
   read-only contexts are verified and surfaced; writable contexts may be
   transformed (re-MACed with the writer/reader keys, original endpoint
   MAC forwarded); inaccessible records pass through untouched — but
   still consume a sequence number, since sequence numbers are global.

The middlebox cannot verify Finished messages (it never holds
``K_endpoints``) — exactly the paper's design.

What it reads of a passing handshake is one table keyed by ``(side,
msg_type)``; a message without a row is forwarded verbatim.  Its keys
go in through one loop for every mode, fed by ``_grant(ctx_id) ->
(permission, keys)``, into one
:class:`~repro.mctls.record.MiddleboxRecordProcessor` per direction —
the record engine's per-direction state, which also decides the framing
of each arriving record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum, auto
from typing import Callable, Dict, List, Optional, Tuple

from repro import framing as frm
from repro.core.endpoint import RelayQueues
from repro.core.events import ContextData
from repro.crypto.fastcipher import KEYSTREAM_POOL
from repro.crypto.dh import DHGroup, DHKeyPair
from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import record as mrec
from repro.mctls import session as ms
from repro.mctls.contexts import (
    ENDPOINT_CONTEXT_ID,
    Permission,
    SessionTopology,
)
from repro.tls import messages as tls_msgs
from repro.tls import record as rec
from repro.tls.ciphersuites import CipherError, CipherSuite, suite_by_id
from repro.tls.connection import (
    Event,
    TLSConfig,
    TLSError,
    make_random,
    verify_peer_chain,
)
from repro.wire import DecodeError

# A transformer takes (direction, context_id, payload) and returns the
# payload to forward (possibly modified) — only consulted for contexts
# the middlebox can write.
Transformer = Callable[[str, int, bytes], bytes]

# An observer is notified of readable payloads it cannot modify.
Observer = Callable[[str, int, bytes], None]


@dataclass
class MiddleboxHandshakeComplete(Event):
    topology: SessionTopology
    permissions: Dict[int, Permission]
    mode: ms.HandshakeMode


# ContextData now lives in the shared vocabulary (repro.core.events);
# re-exported here because this is where middlebox drivers import it from.
__all__ = ["ContextData", "McTLSMiddlebox", "MiddleboxHandshakeComplete"]


class _Side(IntEnum):
    CLIENT = auto()
    SERVER = auto()


def rows(*entries) -> dict:
    """``{(side, msg_type): (decoder, handler, forward_first)}`` from
    ``(side, message class, handler, forward_first)`` entries; the
    handler runs as ``handler(middlebox, side, decoded message)``."""
    return {
        (side, cls.msg_type): (cls, handler, forward_first)
        for side, cls, handler, forward_first in entries
    }


def block_grant(
    share: Optional[mm.ContextKeyShare], ceiling: Permission = Permission.WRITE
) -> Tuple[Permission, Optional[mk.ContextKeys]]:
    """A grant from one endpoint's full key blocks (CKD, resumption,
    mdTLS delegation), clamped to ``ceiling``."""
    if not (share and share.reader_material and ceiling.can_read):
        return Permission.NONE, None
    writer = share.writer_material if ceiling.can_write else b""
    keys = mk.ContextKeys(share.reader_material, writer)
    return (Permission.WRITE if writer else Permission.READ), keys


class McTLSMiddlebox(RelayQueues):
    """A sans-I/O mcTLS middlebox relay.

    ``transformer`` is invoked for every record in a writable context and
    returns the payload to forward; ``observer`` is invoked for readable
    records.  Both default to pass-through.
    """

    def __init__(
        self,
        name: str,
        config: TLSConfig,
        transformer: Optional[Transformer] = None,
        observer: Optional[Observer] = None,
        verify_server: bool = False,
    ):
        if config.identity is None:
            raise TLSError("middlebox requires an identity (certificate + key)")
        super().__init__()
        self.name = name
        self.config = config
        self.transformer = transformer
        self.observer = observer
        self.verify_server = verify_server

        self._from_client = bytearray()
        self._from_server = bytearray()
        self._hs_client = tls_msgs.HandshakeBuffer()
        self._hs_server = tls_msgs.HandshakeBuffer()
        self._events: List[Event] = []

        self.mbox_id: Optional[int] = None
        self.topology: Optional[SessionTopology] = None
        self.suite: Optional[CipherSuite] = None
        self.mode: ms.HandshakeMode = ms.HandshakeMode.DEFAULT
        self.key_transport: ms.KeyTransport = ms.KeyTransport.DHE
        self.resumed = False
        self._proposed_session_id = b""
        self.handshake_complete = False
        self.closed = False

        # Instrumentation plane: None (the default) costs one attribute
        # load per hook site; attach a repro.core.Instruments to enable.
        self.instruments = None

        self._random = make_random()
        self._client_random: Optional[bytes] = None
        self._server_random: Optional[bytes] = None
        self._group: Optional[DHGroup] = None
        self._dh_to_client: Optional[DHKeyPair] = None
        self._dh_to_server: Optional[DHKeyPair] = None
        self._pairwise_client: Optional[mk.PairwiseKeys] = None
        self._pairwise_server: Optional[mk.PairwiseKeys] = None
        self._client_shares: Optional[Dict[int, mm.ContextKeyShare]] = None
        self._server_shares: Optional[Dict[int, mm.ContextKeyShare]] = None
        self.permissions: Dict[int, Permission] = {}

        self._flight: Optional[List[bytes]] = None  # framed own messages
        # One record processor per direction; the ServerHello gives them
        # the suite and the negotiated framing, the ChangeCipherSpec arms
        # them, and the key install grants their contexts.
        self._proc_c2s = mrec.MiddleboxRecordProcessor(None, mk.C2S)
        self._proc_s2c = mrec.MiddleboxRecordProcessor(None, mk.S2C)

    # -- relay interface -----------------------------------------------------

    def receive_from_client(self, data: bytes) -> List[Event]:
        return self._receive(_Side.CLIENT, data)

    def receive_from_server(self, data: bytes) -> List[Event]:
        return self._receive(_Side.SERVER, data)

    # -- record plumbing --------------------------------------------------------

    def _receive(self, side: _Side, data: bytes) -> List[Event]:
        if self.closed:
            return []
        if side is _Side.CLIENT:
            buf, proc = self._from_client, self._proc_c2s
        else:
            buf, proc = self._from_server, self._proc_s2c
        buf += data
        pos = 0
        try:
            # A negotiated framing switches at the CCS boundary, so a
            # buffer can mix framings (default-framed CCS followed by a
            # compact-framed Finished): the framing is re-selected per
            # record, after the CCS armed the processor.
            while True:
                protected = proc.state.protected
                fr = proc.framing if protected else frm.MCTLS_DEFAULT
                record = rec.parse_record(buf, pos, fr, mrec.McTLSRecordError)
                if record is None:
                    break
                pos += len(record[3])
                if protected:
                    self._handle_protected_record(side, proc, *record)
                else:
                    self._handle_record(side, *record)
        except TLSError:
            self.closed = True
            raise
        except (mrec.McTLSRecordError, DecodeError, CipherError) as exc:
            self.closed = True
            if getattr(exc, "where", None) is None:
                exc.where = "middlebox"
            if self.instruments is not None:
                self.instruments.inc("errors.fatal")
                mac = getattr(exc, "mac", None)
                if mac is not None:
                    self.instruments.inc(f"mac.fail.{mac}")
            raise TLSError(f"middlebox relay failure: {exc}") from exc
        finally:
            del buf[:pos]
        KEYSTREAM_POOL.publish_to(self.instruments)
        events, self._events = self._events, []
        return events

    def _out_for(self, side: _Side) -> List[bytes]:
        """The chunk list carrying bytes *onward* from ``side``."""
        return self._to_server if side is _Side.CLIENT else self._to_client

    def _handle_record(
        self, side: _Side, content_type: int, context_id: int, fragment: bytes, raw: bytes
    ) -> None:
        """A record before ``side``'s ChangeCipherSpec."""
        if content_type == rec.HANDSHAKE:
            hs = self._hs_client if side is _Side.CLIENT else self._hs_server
            hs.feed(fragment)
            while True:
                message = hs.next_message()
                if message is None:
                    break
                msg_type, body, msg_raw = message
                self._handle_handshake_message(side, msg_type, body, msg_raw)
        elif content_type == rec.CHANGE_CIPHER_SPEC:
            self._on_change_cipher_spec(side)
            self._out_for(side).append(raw)
        elif content_type == rec.ALERT:
            self._out_for(side).append(raw)
        else:
            raise mrec.McTLSRecordError(
                "application data before ChangeCipherSpec at middlebox"
            )

    def _handle_protected_record(
        self,
        side: _Side,
        processor: mrec.MiddleboxRecordProcessor,
        content_type: int,
        context_id: int,
        fragment: bytes,
        raw: bytes,
    ) -> None:
        direction = processor.direction
        if self.instruments is not None:
            self.instruments.inc("relay.records")
        opened = processor.open_record(content_type, context_id, fragment)
        if opened.payload is None or content_type != rec.APPLICATION_DATA:
            self._out_for(side).append(raw)
            return

        payload = opened.payload
        if opened.permission.can_write and self.transformer is not None:
            new_payload = self.transformer(direction, context_id, payload)
            if new_payload is None:
                new_payload = payload
        else:
            new_payload = payload
        if self.observer is not None:
            self.observer(direction, context_id, new_payload)

        modified = new_payload != payload
        self._emit(
            ContextData(
                direction=direction,
                context_id=context_id,
                data=new_payload,
                permission=opened.permission,
                modified=modified,
            )
        )
        if modified:
            if self.instruments is not None:
                self.instruments.inc("relay.modified")
            self._out_for(side).append(processor.rebuild_record(opened, new_payload))
        else:
            self._out_for(side).append(raw)

    def _emit(self, event: Event) -> None:
        self._events.append(event)

    # -- handshake handling ---------------------------------------------------------

    def _forward_message(self, side: _Side, msg_raw: bytes) -> None:
        header = frm.MCTLS_DEFAULT.pack_header(
            rec.HANDSHAKE, ENDPOINT_CONTEXT_ID, len(msg_raw)
        )
        self._out_for(side).append(header + msg_raw)

    def _handle_handshake_message(
        self, side: _Side, msg_type: int, body: bytes, msg_raw: bytes
    ) -> None:
        """Look ``(side, msg_type)`` up: decode and handle what has a row,
        forward every message on."""
        try:
            decoder, handler, forward_first = self.TRANSITIONS[(side, msg_type)]
        except KeyError:
            # Other middleboxes' flights and anything we don't interpret.
            self._forward_message(side, msg_raw)
            return
        message = decoder.decode(body)
        if forward_first:
            self._forward_message(side, msg_raw)
        handler(self, side, message)
        if not forward_first:
            self._forward_message(side, msg_raw)

    # ---- client-side messages

    def _on_client_hello(self, side: _Side, hello: tls_msgs.ClientHello) -> None:
        self.topology = ms.proposed_topology(hello)
        self.key_transport = ms.negotiated(
            hello, ms.KeyTransport, default=self.key_transport
        )
        entry = self.topology.middlebox_by_name(self.name)
        if entry is None:
            raise TLSError(
                f"middlebox {self.name!r} is not in the session's middlebox list"
            )
        self.mbox_id = entry.mbox_id
        self._client_random = hello.random
        self._proposed_session_id = hello.session_id

    def _on_client_key_exchange(self, side: _Side, kx: tls_msgs.ClientKeyExchange) -> None:
        if self._group is None:
            raise TLSError("ClientKeyExchange before the server's parameters")
        if self.key_transport is ms.KeyTransport.DHE:
            client_public = self._group.public_from_bytes(kx.dh_public)
            ps = self._dh_to_client.combine(client_public)
            self._pairwise_client = mk.derive_pairwise(
                ps, self._client_random, self._random
            )
        # Piggyback our flight toward the server on this flight (Figure 1).
        self._inject_flight(_Side.CLIENT)

    # ---- server-side messages

    def _on_server_hello(self, side: _Side, hello: tls_msgs.ServerHello) -> None:
        self.suite = suite_by_id(hello.cipher_suite)
        self._server_random = hello.random
        self.mode = ms.negotiated(hello, ms.HandshakeMode)
        # A ServerHello echoing the client's proposed session id means the
        # abbreviated flow: no certs/key exchanges pass through; our fresh
        # context keys arrive sealed to our certificate key instead.
        self.resumed = bool(self._proposed_session_id) and (
            hello.session_id == self._proposed_session_id
        )
        # The server's echo of the client's framing offer is the single
        # point on the path where the negotiated geometry is visible.
        framing, schemas = frm.MCTLS_DEFAULT, ()
        echo = None if self.resumed else ms.framing_offer(hello)
        if echo is not None:
            framing, schemas = echo.framing, echo.schemas
        for processor in (self._proc_c2s, self._proc_s2c):
            processor.suite = self.suite
            processor.set_framing(framing, schemas)

    def _on_server_certificate(
        self, side: _Side, message: tls_msgs.CertificateMessage
    ) -> None:
        if self.verify_server:
            verify_peer_chain(
                message.chain,
                self.config.trusted_roots,
                "server certificate rejected by middlebox",
            )

    def _on_server_key_exchange(self, side: _Side, kx: tls_msgs.ServerKeyExchange) -> None:
        if self.mbox_id is None or self.suite is None:
            raise TLSError("ServerKeyExchange before the ClientHello and ServerHello")
        self._group = DHGroup(name="negotiated", p=kx.dh_p, g=kx.dh_g)
        server_public = self._group.public_from_bytes(kx.dh_public)
        if self.key_transport is ms.KeyTransport.DHE:
            # Two distinct ephemeral key pairs, one per endpoint (§3.5).
            self._dh_to_client = self._group.generate_keypair()
            if self.mode is ms.HandshakeMode.DEFAULT:
                self._dh_to_server = self._group.generate_keypair()
                ps = self._dh_to_server.combine(server_public)
                self._pairwise_server = mk.derive_pairwise(
                    ps, self._server_random, self._random
                )
        self._build_flight()

    # ---- own flight

    def _build_flight(self) -> None:
        """Frame our hello/certificate/key-exchange messages once; the same
        bytes go to both endpoints so their transcripts agree."""
        key = self.config.identity.key
        messages = [
            mm.MiddleboxHello(mbox_id=self.mbox_id, random=self._random),
            mm.MiddleboxCertificateMessage(
                mbox_id=self.mbox_id, chain=self.config.identity.chain
            ),
        ]
        if self.key_transport is ms.KeyTransport.RSA:
            # No key exchanges: endpoints seal material to our certificate.
            self._flight = [tls_msgs.frame(m.msg_type, m.encode()) for m in messages]
            return
        ke_client = mm.MiddleboxKeyExchange(
            mbox_id=self.mbox_id,
            direction=mm.TOWARD_CLIENT,
            dh_public=self._dh_to_client.public_bytes,
            signature=b"",
        )
        ke_client.signature = key.sign(
            ke_client.signed_bytes(self._random, self._client_random)
        )
        messages.append(ke_client)
        if self.mode is ms.HandshakeMode.DEFAULT:
            ke_server = mm.MiddleboxKeyExchange(
                mbox_id=self.mbox_id,
                direction=mm.TOWARD_SERVER,
                dh_public=self._dh_to_server.public_bytes,
                signature=b"",
            )
            ke_server.signature = key.sign(
                ke_server.signed_bytes(self._random, self._server_random)
            )
            messages.append(ke_server)
        self._flight = [tls_msgs.frame(m.msg_type, m.encode()) for m in messages]

    def _inject_flight(self, side: _Side, message=None) -> None:
        """Send our flight onward from ``side`` (the ServerHelloDone row
        runs this before forwarding the ServerHelloDone ``message``)."""
        if self._flight is None:
            raise TLSError("middlebox flight not ready (no ServerKeyExchange seen)")
        for msg_raw in self._flight:
            self._forward_message(side, msg_raw)

    # ---- key material

    def _on_key_material(self, side: _Side, mkm: mm.MiddleboxKeyMaterial) -> None:
        sender = mm.SENDER_CLIENT if side is _Side.CLIENT else mm.SENDER_SERVER
        if mkm.sender != sender or mkm.target != self.mbox_id:
            return  # not ours: forwarded only
        if self.key_transport is ms.KeyTransport.RSA or self.resumed:
            plaintext = mk.rsa_hybrid_open(
                self.suite, self.config.identity.key, mkm.sealed
            )
        else:
            pairwise = (
                self._pairwise_client if side is _Side.CLIENT else self._pairwise_server
            )
            if pairwise is None:
                raise TLSError("key material before pairwise key establishment")
            plaintext = mk.authenc_open(self.suite, pairwise.enc, pairwise.mac, mkm.sealed)
        decoded, field_keys = mm.decode_key_shares_ex(plaintext)
        shares = {s.context_id: s for s in decoded}
        if side is _Side.CLIENT:
            self._client_shares = shares
        else:
            self._server_shares = shares
        # Field keys ride only the client's key material (they derive
        # from the endpoint secret, so one distributor suffices); holding
        # a field's key IS the write grant for that field.
        for context_id, entries in field_keys.items():
            self._proc_c2s.install_field_keys(context_id, entries)
            self._proc_s2c.install_field_keys(context_id, entries)
        self._maybe_install_keys()

    def _maybe_install_keys(self) -> None:
        """Grant every context once the mode's key material is in: the
        one install loop, for every mode, completing the handshake."""
        if self.handshake_complete or not self._keys_ready():
            return
        for ctx in self.topology.contexts:
            permission, keys = self._grant(ctx.context_id)
            self.permissions[ctx.context_id] = permission
            self._proc_c2s.install(ctx.context_id, permission, keys)
            self._proc_s2c.install(ctx.context_id, permission, keys)
        self.handshake_complete = True
        self._emit(
            MiddleboxHandshakeComplete(
                topology=self.topology, permissions=dict(self.permissions), mode=self.mode
            )
        )

    def _combines_halves(self) -> bool:
        """Both endpoints send key halves (default mode, full handshake);
        otherwise the client alone sends full key blocks."""
        return self.mode is ms.HandshakeMode.DEFAULT and not self.resumed

    def _keys_ready(self) -> bool:
        return self._client_shares is not None and (
            self._server_shares is not None or not self._combines_halves()
        )

    def _grant(self, ctx_id: int) -> Tuple[Permission, Optional[mk.ContextKeys]]:
        """What this middlebox may do in context ``ctx_id``, and its keys."""
        c_share = self._client_shares.get(ctx_id)
        if not self._combines_halves():
            return block_grant(c_share)
        # Access materialises only where *both* endpoints provided
        # material (R4).
        s_share = self._server_shares.get(ctx_id)
        if not (c_share and s_share and c_share.reader_material and s_share.reader_material):
            return Permission.NONE, None
        keys = mk.combine_context_keys(
            c_share.reader_material,
            s_share.reader_material,
            # Writer halves may be absent for read-only grants; the
            # writer keys derived from empty halves are never valid
            # against the endpoints' (who always use real halves).
            c_share.writer_material,
            s_share.writer_material,
            self._client_random,
            self._server_random,
        )
        if c_share.writer_material and s_share.writer_material:
            return Permission.WRITE, keys
        # Do not retain derived-from-nothing writer keys.
        return Permission.READ, mk.ContextKeys(keys.reader_block)

    # ---- change cipher spec

    def _on_change_cipher_spec(self, side: _Side) -> None:
        processor = self._proc_c2s if side is _Side.CLIENT else self._proc_s2c
        if processor.suite is None:
            raise TLSError("ChangeCipherSpec before the ServerHello")
        processor.activate()

    # (side, message, handler, forward first?).  The hellos and the
    # server's key exchange are read before they go on; our flight goes
    # toward the client ahead of ServerHelloDone and toward the server
    # right behind ClientKeyExchange.
    TRANSITIONS = rows(
        (_Side.CLIENT, tls_msgs.ClientHello, _on_client_hello, False),
        (_Side.CLIENT, tls_msgs.ClientKeyExchange, _on_client_key_exchange, True),
        (_Side.CLIENT, mm.MiddleboxKeyMaterial, _on_key_material, True),
        (_Side.SERVER, tls_msgs.ServerHello, _on_server_hello, False),
        (_Side.SERVER, tls_msgs.CertificateMessage, _on_server_certificate, False),
        (_Side.SERVER, tls_msgs.ServerKeyExchange, _on_server_key_exchange, False),
        (_Side.SERVER, tls_msgs.ServerHelloDone, _inject_flight, False),
        (_Side.SERVER, mm.MiddleboxKeyMaterial, _on_key_material, True),
    )
