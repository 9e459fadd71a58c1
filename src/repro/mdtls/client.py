"""The mdTLS client.

Rides the mcTLS client state machine with the delegation-mode deltas:

* requires an identity — the client *signs warrants* instead of sealing
  key material, so ``config.identity`` is mandatory (in mcTLS only the
  server and middleboxes are certified);
* verifies the server's warrants (signature under the server's certified
  key, session binding, validity window, scope against the topology the
  client itself proposed);
* derives **no pairwise middlebox keys** and sends **no
  MiddleboxKeyMaterial** — its entire key-distribution flight is one
  ``WarrantIssue``;
* tags the server's ``DelegatedKeyMaterial`` messages into the
  transcript (it cannot open them — they are sealed to middlebox keys —
  but its Finished-hash coverage means suppressing one is detected);
* on resumption, re-issues fresh warrants bound to the new randoms
  instead of re-distributing context keys.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.client import McTLSClient, _State
from repro.mctls.contexts import SessionTopology
from repro.mdtls import messages as mdm
from repro.mdtls import session as mds
from repro.mdtls import warrants as mdw
from repro.tls import messages as tls_msgs
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    TLSConfig,
    TLSError,
    verify_peer_chain,
)
from repro.tls.sessioncache import ClientSessionStore

DEFAULT_WARRANT_LIFETIME_S = 3600.0


class MdTLSClient(McTLSClient):
    """A sans-I/O mdTLS (delegated-credential mcTLS) client."""

    orders = mds.DELEGATION_ORDERS

    def __init__(
        self,
        config: TLSConfig,
        topology: SessionTopology,
        verify_middleboxes: bool = True,
        key_transport: ms.KeyTransport = None,
        session_store: Optional[ClientSessionStore] = None,
        ticket_store: Optional[ClientSessionStore] = None,
        warrant_lifetime: float = DEFAULT_WARRANT_LIFETIME_S,
        clock: Callable[[], float] = time.time,
    ):
        if config.identity is None:
            raise TLSError("mdTLS client requires an identity to sign warrants")
        if key_transport is not None and key_transport is not ms.KeyTransport.DHE:
            # The middlebox's signed key exchange *is* its proof of
            # possession of the warranted key; RSA transport has none.
            raise TLSError("mdTLS requires the DHE key transport")
        super().__init__(
            config,
            topology,
            verify_middleboxes=verify_middleboxes,
            key_transport=ms.KeyTransport.DHE,
            session_store=session_store,
            ticket_store=ticket_store,
        )
        self.warrant_lifetime = warrant_lifetime
        self._clock = clock
        self._server_warrants = {}

    def _session_store_key(self):
        # Separate namespace: an mdTLS session must never be offered to
        # (or satisfied from) an mcTLS client's cache.
        return ("mdtls", self.config.server_name or "")

    # -- message routing ---------------------------------------------------

    def _handle_handshake_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if msg_type == tls_msgs.WARRANT_ISSUE and (
            self._state is _State.WAIT_HELLO_DONE
            or (self._state is _State.WAIT_SERVER_FLIGHT and self.resumed)
        ):
            self._on_server_warrants(mdm.WarrantIssue.decode(body), raw)
        elif (
            msg_type == tls_msgs.DELEGATED_KEY_MATERIAL
            and self._state is _State.WAIT_SERVER_FLIGHT
        ):
            self._on_delegated_key_material(mdm.DelegatedKeyMaterial.decode(body), raw)
        else:
            super()._handle_handshake_message(msg_type, body, raw)

    def _on_server_hello(self, hello: tls_msgs.ServerHello) -> None:
        super()._on_server_hello(hello)
        if self.mode is not ms.HandshakeMode.DELEGATION:
            raise TLSError("server did not negotiate the delegation mode")

    # -- server warrants ---------------------------------------------------

    def _on_server_warrants(self, issue: mdm.WarrantIssue, raw: bytes) -> None:
        if issue.sender != mm.SENDER_SERVER:
            raise TLSError("client received its own warrants back")
        self.transcript.add(mds.TAG_SERVER_WARRANTS, raw)
        if not issue.issuer_chain:
            raise TLSError(
                "server warrant issue lacks a certificate chain", ALERT_BAD_CERTIFICATE
            )
        if self.config.verify_certificates:
            verify_peer_chain(
                issue.issuer_chain,
                self.config.trusted_roots,
                "server warrant issuer chain verification failed",
                expected_subject=self.config.server_name,
                alert=ALERT_BAD_CERTIFICATE,
            )
        self._server_warrants = mdw.check_warrant_set(
            issue.warrants,
            mdw.ISSUER_SERVER,
            issue.issuer_chain[0].public_key,
            self.topology,
            self._client_random,
            self._server_random,
            int(self._clock() * 1000),
            where="client",
        )

    # -- client flight (delegation deltas) ---------------------------------

    def _on_server_hello_done(self) -> None:
        if not self._server_warrants and self.topology.middleboxes:
            raise TLSError("server sent no warrants before ServerHelloDone")
        super()._on_server_hello_done()

    def _send_key_material(self) -> None:
        """The client's whole key-distribution flight is its warrants: no
        pairwise middlebox keys, no MiddleboxKeyMaterial."""
        self._send_client_warrants()

    def _make_warrants(self, now_ms: int) -> List[mdw.Warrant]:
        """Hook: the warrants this client issues (fault harnesses override
        this to issue deliberately defective ones)."""
        return mdw.issue_warrants(
            mdw.ISSUER_CLIENT,
            self.config.identity.key,
            self.topology,
            self._client_random,
            self._server_random,
            now_ms,
            int(self.warrant_lifetime * 1000),
        )

    def _send_client_warrants(self) -> None:
        warrants = self._make_warrants(int(self._clock() * 1000))
        self._send_handshake(
            mdm.WarrantIssue(
                sender=mm.SENDER_CLIENT,
                issuer_chain=self.config.identity.chain,
                warrants=warrants,
            ),
            tag=mds.TAG_CLIENT_WARRANTS,
        )

    # -- server flight 2 ---------------------------------------------------

    def _on_delegated_key_material(
        self, dkm: mdm.DelegatedKeyMaterial, raw: bytes
    ) -> None:
        if dkm.target not in self._mboxes:
            raise TLSError(
                f"delegated key material for undeclared middlebox {dkm.target}"
            )
        # Sealed to the middlebox's key — the client only transcripts it.
        self.transcript.add(mds.tag_dkm(dkm.target), raw)

    # -- resumption --------------------------------------------------------

    def _redistribute_context_keys(self) -> None:
        """Fresh warrants bound to the new randoms; no key material (the
        server re-seals delegated material itself)."""
        self._send_client_warrants()
