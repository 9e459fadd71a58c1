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
mcTLS's table plus the rows of the two new messages.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.mctls import keys as mk
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import Permission
from repro.mctls.middlebox import (
    McTLSMiddlebox,
    MiddleboxHandshakeComplete,
    Observer,
    Transformer,
    _Side,
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
        if self.config.trusted_roots:
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

    def _maybe_install_keys(self) -> None:
        if self.mode is not ms.HandshakeMode.DELEGATION:
            super()._maybe_install_keys()
            return
        if self._keys_installed:
            return
        if (
            self._server_shares is None
            or self._client_warrant is None
            or self._server_warrant is None
        ):
            return
        self._install_delegated_keys()
        self._keys_installed = True
        self.handshake_complete = True
        self._emit(
            MiddleboxHandshakeComplete(
                topology=self.topology,
                permissions=dict(self.permissions),
                mode=self.mode,
            )
        )

    def _install_delegated_keys(self) -> None:
        """Install full key blocks from the server's delegated material,
        clamped to the intersection of both warrants — access materialises
        only where *both* endpoints' warrants and the delivered material
        agree (R4 under delegation)."""
        for ctx in self.topology.contexts:
            ctx_id = ctx.context_id
            granted = mdw.effective_permission(
                ctx_id, self._client_warrant, self._server_warrant
            )
            share = self._server_shares.get(ctx_id)
            if share is None or not share.reader_material or not granted.can_read:
                self.permissions[ctx_id] = Permission.NONE
                continue
            readers = mk.reader_keys_from_block(share.reader_material)
            if share.writer_material and granted.can_write:
                writers = mk.writer_keys_from_block(share.writer_material)
                permission = Permission.WRITE
            else:
                writers = mk.WriterKeys(mac_c2s=b"", mac_s2c=b"")
                permission = Permission.READ
            self.permissions[ctx_id] = permission
            keys = mk.ContextKeys(readers=readers, writers=writers)
            self._proc_c2s.install(ctx_id, permission, keys)
            self._proc_s2c.install(ctx_id, permission, keys)

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
