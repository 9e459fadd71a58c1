"""The mdTLS server.

Rides the mcTLS server state machine with the delegation-mode deltas:

* always negotiates :attr:`HandshakeMode.DELEGATION` and insists on the
  DHE key transport (the middlebox's signed key exchange is its proof of
  possession of the warranted key);
* issues its warrants — scoped to the topology its *policy approved*,
  the delegation form of "the server can say no" — right after its
  ServerKeyExchange;
* verifies the client's warrants (signature under the client's certified
  key, session binding, window, scope against the proposed topology);
* after the client's Finished verifies, seals one
  ``DelegatedKeyMaterial`` per middlebox to that middlebox's certificate
  key, carrying full context key blocks clamped to the *intersection* of
  both warrants — this is the only per-middlebox key-distribution work
  either endpoint does;
* its cached sessions keep the middlebox certificates, so a resumption
  can re-seal fresh material; fresh warrants and material are sent
  before the server's Finished in the abbreviated flow.

Its transition table is mcTLS's plus the client-warrant rows.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.core.endpoint import table
from repro.crypto.certs import Certificate
from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import Permission
from repro.mctls.server import S, McTLSServer
from repro.mdtls import messages as mdm
from repro.mdtls import session as mds
from repro.mdtls import warrants as mdw
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    TLSConfig,
    TLSError,
    verify_peer_chain,
)
from repro.tls.sessioncache import SessionCache


class MdTLSServer(McTLSServer):
    """A sans-I/O mdTLS (delegated-credential mcTLS) server."""

    orders = mds.DELEGATION_ORDERS
    SessionState = mds.MdTLSSessionState
    # The abbreviated flow re-seals delegated key material to the
    # middleboxes' certificate keys, remembered from the full handshake.
    _keeps_middlebox_certs = True

    def __init__(
        self,
        config: TLSConfig,
        mode: ms.HandshakeMode = ms.HandshakeMode.DELEGATION,
        topology_policy=None,
        verify_middleboxes: bool = True,
        session_cache: Optional[SessionCache] = None,
        clock: Callable[[], float] = time.time,
    ):
        if mode is not ms.HandshakeMode.DELEGATION:
            raise TLSError("MdTLSServer only speaks the delegation mode")
        super().__init__(
            config,
            mode=ms.HandshakeMode.DELEGATION,
            topology_policy=topology_policy,
            verify_middleboxes=verify_middleboxes,
            session_cache=session_cache,
        )
        self._clock = clock
        self._client_warrants: Dict[int, mdw.Warrant] = {}
        self._server_warrants: Dict[int, mdw.Warrant] = {}
        self._resumed_certs: Dict[int, Certificate] = {}

    # -- flight 1 ----------------------------------------------------------

    def _send_server_key_exchange(self) -> None:
        if self.key_transport is not ms.KeyTransport.DHE:
            raise TLSError("mdTLS requires the DHE key transport")
        super()._send_server_key_exchange()
        self._send_server_warrants()

    def _make_warrants(self, now_ms: int) -> List[mdw.Warrant]:
        """Hook: the warrants this server issues (fault harnesses override
        this to issue deliberately defective ones)."""
        return mdw.issue_warrants(
            mdw.ISSUER_SERVER,
            self.config.identity.key,
            self.approved_topology,
            self._client_random,
            self._server_random,
            now_ms,
            mdw.WARRANT_LIFETIME_MS,
        )

    def _send_server_warrants(self) -> None:
        warrants = self._make_warrants(int(self._clock() * 1000))
        self._server_warrants = {w.mbox_id: w for w in warrants}
        self._send_handshake(
            mdm.WarrantIssue(
                sender=mm.SENDER_SERVER,
                issuer_chain=self.config.identity.chain,
                warrants=warrants,
            ),
            tag=mds.TAG_SERVER_WARRANTS,
        )

    # -- client flight -----------------------------------------------------

    def _on_client_warrants(self, issue: mdm.WarrantIssue, raw) -> None:
        if issue.sender != mm.SENDER_CLIENT:
            raise TLSError("server received its own warrants back")
        if not issue.issuer_chain:
            raise TLSError(
                "client warrant issue lacks a certificate chain", ALERT_BAD_CERTIFICATE
            )
        verify_peer_chain(
            issue.issuer_chain,
            self.config.trusted_roots,
            "client warrant issuer chain verification failed",
            alert=ALERT_BAD_CERTIFICATE,
        )
        self._client_warrants = mdw.check_warrant_set(
            issue.warrants,
            mdw.ISSUER_CLIENT,
            issue.issuer_chain[0].public_key,
            self.topology,
            self._client_random,
            self._server_random,
            int(self._clock() * 1000),
            where="server",
        )

    # -- key setup ---------------------------------------------------------

    def _finish_key_setup(self) -> None:
        if self.topology.middleboxes and not self._client_warrants:
            raise TLSError("client sent no warrants before its Finished")
        self._send_delegated_key_material()
        self._install_context_keys(self._ckd_keys)

    def _delegated_shares(self, mbox_id: int) -> List[mm.ContextKeyShare]:
        """Key blocks for one middlebox, clamped to min(client warrant,
        server warrant) per context.  On resumption the client's fresh
        warrants arrive only after this flight; the server warrant (its
        own approved grant) bounds the material, and the middlebox
        additionally clamps to the client warrant before installing."""
        server_warrant = self._server_warrants.get(mbox_id)
        client_warrant = self._client_warrants.get(mbox_id)
        shares = []
        for ctx in self.approved_topology.contexts:
            if client_warrant is not None:
                permission = mdw.effective_permission(
                    ctx.context_id, client_warrant, server_warrant
                )
            elif server_warrant is not None:
                permission = server_warrant.grants.get(
                    ctx.context_id, Permission.NONE
                )
            else:
                permission = Permission.NONE
            if permission.can_read:
                shares.append(self._context_share(ctx.context_id, permission))
        return shares

    def _send_delegated_key_material(self) -> None:
        for mbox in self.topology.middleboxes:
            cert = self._middlebox_certificate(mbox.mbox_id)
            sealed = self._seal(
                mk.rsa_hybrid_seal,
                cert.public_key,
                mm.encode_key_shares(self._delegated_shares(mbox.mbox_id)),
            )
            self._send_handshake(
                mdm.DelegatedKeyMaterial(target=mbox.mbox_id, sealed=sealed),
                tag=mds.tag_dkm(mbox.mbox_id),
            )

    def _middlebox_certificate(self, mbox_id: int) -> Certificate:
        state = self._mboxes.get(mbox_id)
        if state is not None and state.chain:
            return state.chain[0]
        cert = self._resumed_certs.get(mbox_id)
        if cert is None:
            raise TLSError(
                f"no certificate for middlebox {mbox_id}; cannot seal "
                "delegated key material"
            )
        return cert

    # -- resumption --------------------------------------------------------

    def _resume_session(self, cached: ms.McTLSSessionState) -> None:
        self._resumed_certs = dict(cached.middlebox_certs)
        super()._resume_session(cached)

    def _send_resumption_flight(self) -> None:
        """Fresh warrants (bound to the new randoms) + re-sealed key
        material, all covered by the server's Finished."""
        self._send_server_warrants()
        self._send_delegated_key_material()

    # The client's warrants ride its key-exchange flight, or (resumed)
    # its re-keying flight.
    # fmt: off
    TRANSITIONS = {**McTLSServer.TRANSITIONS, **table(
        (S.WAIT_CLIENT_FLIGHT, mdm.WarrantIssue, _on_client_warrants,
         S.WAIT_CLIENT_FLIGHT, mds.TAG_CLIENT_WARRANTS),
        (S.WAIT_RESUMED_CLIENT_FLIGHT, mdm.WarrantIssue, _on_client_warrants,
         S.WAIT_RESUMED_CLIENT_FLIGHT, mds.TAG_CLIENT_WARRANTS),
    )}
    # fmt: on
