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

Its transition table is mcTLS's plus the rows of the two new messages.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.core.endpoint import table
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.client import S, McTLSClient
from repro.mctls.contexts import SessionTopology
from repro.mdtls import messages as mdm
from repro.mdtls import session as mds
from repro.mdtls import warrants as mdw
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    TLSConfig,
    TLSError,
    verify_peer_chain,
)
from repro.tls.sessioncache import ClientSessionStore


class MdTLSClient(McTLSClient):
    """A sans-I/O mdTLS (delegated-credential mcTLS) client."""

    orders = mds.DELEGATION_ORDERS
    SessionState = mds.MdTLSSessionState
    _modes = (ms.HandshakeMode.DELEGATION,)

    def __init__(
        self,
        config: TLSConfig,
        topology: SessionTopology,
        verify_middleboxes: bool = True,
        key_transport: ms.KeyTransport = None,
        session_store: Optional[ClientSessionStore] = None,
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
        )
        self._clock = clock
        self._server_warrants = {}

    # -- server warrants ---------------------------------------------------

    def _on_server_warrants(self, issue: mdm.WarrantIssue, raw) -> None:
        if issue.sender != mm.SENDER_SERVER:
            raise TLSError("client received its own warrants back")
        if not issue.issuer_chain:
            raise TLSError(
                "server warrant issue lacks a certificate chain", ALERT_BAD_CERTIFICATE
            )
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

    def _check_middlebox_flights_complete(self) -> None:
        """At ServerHelloDone: every middlebox flight and the server's
        warrants for them."""
        super()._check_middlebox_flights_complete()
        if not self._server_warrants and self.topology.middleboxes:
            raise TLSError("server sent no warrants before ServerHelloDone")

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
            mdw.WARRANT_LIFETIME_MS,
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

    def _on_delegated_key_material(self, dkm: mdm.DelegatedKeyMaterial, raw) -> None:
        # Sealed to the middlebox's key: the client only transcripts it,
        # once its target is a declared middlebox.
        self._mbox(dkm.target)

    # -- resumption --------------------------------------------------------

    def _redistribute_context_keys(self) -> None:
        """Fresh warrants bound to the new randoms; no key material (the
        server re-seals delegated material itself)."""
        self._send_client_warrants()

    # The server's warrants arrive before ServerHelloDone (or, resumed,
    # before its CCS); its delegated key material in its last flight.
    # fmt: off
    TRANSITIONS = {**McTLSClient.TRANSITIONS, **table(
        (S.WAIT_HELLO_DONE, mdm.WarrantIssue, _on_server_warrants,
         S.WAIT_HELLO_DONE, mds.TAG_SERVER_WARRANTS),
        (S.WAIT_SERVER_FLIGHT, mdm.DelegatedKeyMaterial, _on_delegated_key_material,
         S.WAIT_SERVER_FLIGHT, lambda m: mds.tag_dkm(m.target)),
        (S.WAIT_RESUMED_SERVER_FLIGHT, mdm.WarrantIssue, _on_server_warrants,
         S.WAIT_RESUMED_SERVER_FLIGHT, mds.TAG_SERVER_WARRANTS),
        (S.WAIT_RESUMED_SERVER_FLIGHT, mdm.DelegatedKeyMaterial, _on_delegated_key_material,
         S.WAIT_RESUMED_SERVER_FLIGHT, lambda m: mds.tag_dkm(m.target)),
    )}
    # fmt: on
