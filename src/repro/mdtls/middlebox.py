"""The mdTLS middlebox.

Rides the mcTLS middlebox relay with the delegation-mode deltas:

* its handshake flight is naturally CKD-shaped (hello, certificate, one
  client-directed signed key exchange — the base class already omits the
  server-directed exchange outside the default mode).  That signature,
  made with the certificate key both warrants name, is the middlebox's
  proof of possession: both endpoints verify it in delegation mode;
* it captures and verifies *its own* warrant from each passing
  ``WarrantIssue`` (signature under the embedded issuer chain, session
  binding, validity window, scope against the ClientHello it snooped) —
  a middlebox handed a forged, expired or widened warrant refuses the
  session rather than operate on bad credentials;
* its context keys arrive in a single ``DelegatedKeyMaterial`` from the
  server, sealed to its certificate key; it installs them clamped to
  ``min(client warrant, server warrant, delivered material)``.

``_handle_protected_record`` is deliberately *not* overridden: the
per-record relay semantics are exactly mcTLS's, and the handshake is
mcTLS's table plus the rows of the two new messages.  The key install
is mcTLS's one loop too; delegation overrides only what is granted
(``_grant``) and when the material is complete (``_keys_ready``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import Permission
from repro.mctls.middlebox import (
    McTLSMiddlebox,
    Observer,
    Transformer,
    _Side,
    block_grant,
    rows,
)
from repro.mdtls import messages as mdm
from repro.mdtls import warrants as mdw
from repro.tls.connection import TLSConfig, verify_peer_chain


class MdTLSMiddlebox(McTLSMiddlebox):
    """A sans-I/O mdTLS middlebox relay."""

    def __init__(
        self,
        name: str,
        config: TLSConfig,
        transformer: Optional[Transformer] = None,
        observer: Optional[Observer] = None,
        verify_server: bool = False,
        clock: Callable[[], float] = time.time,
    ):
        super().__init__(
            name,
            config,
            transformer=transformer,
            observer=observer,
            verify_server=verify_server,
        )
        self._clock = clock
        self._client_warrant: Optional[mdw.Warrant] = None
        self._server_warrant: Optional[mdw.Warrant] = None

    # -- warrants ----------------------------------------------------------

    def _on_warrants(self, side: _Side, issue: mdm.WarrantIssue) -> None:
        issuer = mdw.ISSUER_CLIENT if side is _Side.CLIENT else mdw.ISSUER_SERVER
        self._on_warrant_issue(issue, issuer)

    def _on_warrant_issue(self, issue: mdm.WarrantIssue, issuer_role: int) -> None:
        """Capture and verify our own warrant from a passing flight."""
        own = next((w for w in issue.warrants if w.mbox_id == self.mbox_id), None)
        if own is None:
            role = "client" if issuer_role == mdw.ISSUER_CLIENT else "server"
            raise mdw.WarrantError(
                f"{role} issued no warrant for middlebox {self.mbox_id}",
                where="middlebox",
                reason="missing",
                mbox_id=self.mbox_id,
            )
        if not issue.issuer_chain:
            raise mdw.WarrantError(
                "warrant issue lacks a certificate chain",
                where="middlebox",
                reason="forged",
                mbox_id=self.mbox_id,
            )
        verify_peer_chain(
            issue.issuer_chain,
            self.config.trusted_roots,
            "warrant issuer chain rejected by middlebox",
            error=mdw.WarrantError,
            where="middlebox",
            reason="forged",
            mbox_id=self.mbox_id,
        )
        mdw.check_warrant(
            own,
            issuer_role,
            issue.issuer_chain[0].public_key,
            self.topology,
            self._client_random,
            self._server_random,
            int(self._clock() * 1000),
            where="middlebox",
        )
        if issuer_role == mdw.ISSUER_CLIENT:
            self._client_warrant = own
        else:
            self._server_warrant = own
        self._maybe_install_keys()

    # -- delegated key material --------------------------------------------

    def _on_delegated_key_material(self, side: _Side, dkm: mdm.DelegatedKeyMaterial) -> None:
        if dkm.target != self.mbox_id:
            return  # another middlebox's: forwarded only
        plaintext = mk.rsa_hybrid_open(self.suite, self.config.identity.key, dkm.sealed)
        self._server_shares = {
            s.context_id: s for s in mm.decode_key_shares(plaintext)
        }
        self._maybe_install_keys()

    def _keys_ready(self) -> bool:
        if self.mode is not ms.HandshakeMode.DELEGATION:
            return super()._keys_ready()
        return (
            self._server_shares is not None
            and self._client_warrant is not None
            and self._server_warrant is not None
        )

    def _grant(self, ctx_id: int) -> Tuple[Permission, Optional[mk.ContextKeys]]:
        """Full key blocks from the server's delegated material, clamped
        to the intersection of both warrants — access materialises only
        where *both* endpoints' warrants and the delivered material agree
        (R4 under delegation)."""
        if self.mode is not ms.HandshakeMode.DELEGATION:
            return super()._grant(ctx_id)
        ceiling = mdw.effective_permission(ctx_id, self._client_warrant, self._server_warrant)
        return block_grant(self._server_shares.get(ctx_id), ceiling)

    # Warrants from either side and the server's delegated key material
    # go on before they are checked, as mcTLS key material does.
    TRANSITIONS = {
        **McTLSMiddlebox.TRANSITIONS,
        **rows(
            (_Side.CLIENT, mdm.WarrantIssue, _on_warrants, True),
            (_Side.SERVER, mdm.WarrantIssue, _on_warrants, True),
            (_Side.SERVER, mdm.DelegatedKeyMaterial, _on_delegated_key_material, True),
        ),
    }
