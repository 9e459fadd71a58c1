"""Proxy-signature warrants — the heart of the mdTLS delegation variant.

In mcTLS both endpoints push (half or full) context keys to every
middlebox, so each added middlebox costs the endpoints per-middlebox
key-distribution work.  mdTLS replaces that with *delegation*: each
endpoint signs one **warrant** per middlebox stating exactly what the
middlebox may do —

    warrant = (issuer role, middlebox identity, per-context permissions,
               validity window, session binding)  signed by the issuer

and the middlebox proves possession of the warranted key by signing its
key-exchange contribution under its certificate key (the same signed
``MiddleboxKeyExchange`` mcTLS already has).  Context keys then flow from
the *server alone*, sealed to the warranted certificate key, clamped to
the intersection of both endpoints' warrants.

Security properties enforced here:

* **Unforgeability** — a warrant verifies under the issuer's certified
  key; a flipped bit anywhere in the to-be-signed body or signature is
  detected by whoever verifies (middlebox or opposite endpoint).
* **Session binding** — warrants cover both hello randoms, so a warrant
  from one session is garbage in any other (no replay, no splicing).
* **Bounded lifetime** — an expired warrant is rejected even if its
  signature verifies.
* **No widening** — a warrant granting a context or permission beyond
  the topology the *client proposed* is rejected by every verifier;
  effective access is the per-context minimum of the client warrant,
  the server warrant and the key material actually delegated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.mctls.contexts import Permission, SessionTopology
from repro.tls import messages as tls_msgs
from repro.tls.connection import ALERT_BAD_CERTIFICATE, TLSError
from repro.wire import DecodeError, Reader, Writer

# Who signed the warrant.
ISSUER_CLIENT = 1
ISSUER_SERVER = 2

_ROLE_NAMES = {ISSUER_CLIENT: "client", ISSUER_SERVER: "server"}

# Tolerated clock skew between issuer and verifier, in milliseconds.
CLOCK_SKEW_MS = 60_000

# How long an issued warrant stays valid, in milliseconds (one hour).
WARRANT_LIFETIME_MS = 3_600_000


class WarrantError(TLSError):
    """A warrant failed verification.

    ``where`` names the party that detected the problem (``client``,
    ``server`` or ``middlebox``) and ``reason`` classifies it
    (``forged`` / ``expired`` / ``widened`` / ``missing`` / ...), so the
    fault matrix can attribute every detection precisely.
    """

    def __init__(
        self,
        message: str,
        where: str,
        reason: str,
        mbox_id: Optional[int] = None,
    ):
        super().__init__(message, ALERT_BAD_CERTIFICATE)
        self.where = where
        self.reason = reason
        self.mbox_id = mbox_id


@dataclass
class Warrant:
    """One endpoint's signed, context-scoped delegation to one middlebox."""

    issuer_role: int  # ISSUER_CLIENT or ISSUER_SERVER
    mbox_id: int
    mbox_name: str
    grants: Dict[int, Permission] = field(default_factory=dict)
    not_before: int = 0  # milliseconds since the epoch
    not_after: int = 0
    client_random: bytes = b""
    server_random: bytes = b""
    signature: bytes = b""

    # -- codec -----------------------------------------------------------

    def tbs_bytes(self) -> bytes:
        """The to-be-signed body (everything except the signature)."""
        w = Writer()
        w.u8(self.issuer_role)
        w.u8(self.mbox_id)
        w.string8(self.mbox_name)
        w.u8(len(self.grants))
        for ctx_id in sorted(self.grants):
            w.u8(ctx_id)
            w.u8(int(self.grants[ctx_id]))
        w.u64(self.not_before)
        w.u64(self.not_after)
        w.raw(self.client_random)
        w.raw(self.server_random)
        return w.bytes()

    def encode(self) -> bytes:
        return Writer().raw(self.tbs_bytes()).vec16(self.signature).bytes()

    @classmethod
    def decode(cls, data: bytes) -> "Warrant":
        r = Reader(data)
        issuer_role = r.u8()
        if issuer_role not in (ISSUER_CLIENT, ISSUER_SERVER):
            raise DecodeError(f"invalid warrant issuer role {issuer_role}")
        mbox_id = r.u8()
        mbox_name = r.string8()
        grants: Dict[int, Permission] = {}
        for _ in range(r.u8()):
            ctx_id = r.u8()
            try:
                grants[ctx_id] = Permission(r.u8())
            except ValueError as exc:
                raise DecodeError(f"invalid warrant permission: {exc}") from exc
        not_before = r.u64()
        not_after = r.u64()
        client_random = r.raw(tls_msgs.RANDOM_LEN)
        server_random = r.raw(tls_msgs.RANDOM_LEN)
        signature = r.vec16()
        r.expect_end()
        return cls(
            issuer_role=issuer_role,
            mbox_id=mbox_id,
            mbox_name=mbox_name,
            grants=grants,
            not_before=not_before,
            not_after=not_after,
            client_random=client_random,
            server_random=server_random,
            signature=signature,
        )

    # -- signing ---------------------------------------------------------

    def sign(self, key: RSAPrivateKey) -> "Warrant":
        self.signature = key.sign(self.tbs_bytes())
        return self

    def verify_signature(self, issuer_key: RSAPublicKey) -> bool:
        return issuer_key.verify(self.tbs_bytes(), self.signature)


# -- issuing ---------------------------------------------------------------


def issue_warrants(
    issuer_role: int,
    key: RSAPrivateKey,
    topology: SessionTopology,
    client_random: bytes,
    server_random: bytes,
    now_ms: int,
    lifetime_ms: int,
) -> List[Warrant]:
    """One signed warrant per middlebox, scoped to ``topology``.

    For the server, ``topology`` is the *approved* topology — withholding
    a grant here is the delegation-mode form of the "server can say no"
    control (§4.2): the warrant simply never grants the context, and the
    delegated key material won't carry it either.
    """
    warrants = []
    for mbox in topology.middleboxes:
        grants = {
            ctx_id: perm
            for ctx_id, perm in topology.permissions_of(mbox.mbox_id).items()
            if perm is not Permission.NONE
        }
        warrants.append(
            Warrant(
                issuer_role=issuer_role,
                mbox_id=mbox.mbox_id,
                mbox_name=mbox.name,
                grants=grants,
                not_before=now_ms - CLOCK_SKEW_MS,
                not_after=now_ms + lifetime_ms,
                client_random=client_random,
                server_random=server_random,
            ).sign(key)
        )
    return warrants


# -- verifying -------------------------------------------------------------


def check_warrant(
    warrant: Warrant,
    issuer_role: int,
    issuer_key: RSAPublicKey,
    topology: SessionTopology,
    client_random: bytes,
    server_random: bytes,
    now_ms: int,
    where: str,
) -> None:
    """Full warrant verification; raises :class:`WarrantError` on any defect.

    ``topology`` is the topology the *client proposed* in its ClientHello
    — the upper bound no warrant may exceed, whoever signed it.
    """
    role = _ROLE_NAMES.get(warrant.issuer_role, "?")
    if warrant.issuer_role != issuer_role:
        raise WarrantError(
            f"warrant for middlebox {warrant.mbox_id} claims the wrong issuer role",
            where=where,
            reason="forged",
            mbox_id=warrant.mbox_id,
        )
    try:
        entry = topology.middlebox(warrant.mbox_id)
    except KeyError:
        entry = None
    if entry is None or entry.name != warrant.mbox_name:
        raise WarrantError(
            f"{role} warrant names undeclared middlebox "
            f"{warrant.mbox_id} ({warrant.mbox_name!r})",
            where=where,
            reason="widened",
            mbox_id=warrant.mbox_id,
        )
    if not warrant.verify_signature(issuer_key):
        raise WarrantError(
            f"{role} warrant for middlebox {warrant.mbox_id} has an invalid signature",
            where=where,
            reason="forged",
            mbox_id=warrant.mbox_id,
        )
    if (
        warrant.client_random != client_random
        or warrant.server_random != server_random
    ):
        raise WarrantError(
            f"{role} warrant for middlebox {warrant.mbox_id} is bound to a "
            "different session",
            where=where,
            reason="forged",
            mbox_id=warrant.mbox_id,
        )
    if not warrant.not_before <= now_ms <= warrant.not_after:
        raise WarrantError(
            f"{role} warrant for middlebox {warrant.mbox_id} is expired or "
            "not yet valid",
            where=where,
            reason="expired",
            mbox_id=warrant.mbox_id,
        )
    for ctx_id, perm in warrant.grants.items():
        try:
            ceiling = topology.context(ctx_id).permission_for(warrant.mbox_id)
        except KeyError:
            ceiling = Permission.NONE
        if int(perm) > int(ceiling):
            raise WarrantError(
                f"{role} warrant widens middlebox {warrant.mbox_id} access to "
                f"context {ctx_id} beyond the proposed topology",
                where=where,
                reason="widened",
                mbox_id=warrant.mbox_id,
            )


def check_warrant_set(
    warrants: Iterable[Warrant],
    issuer_role: int,
    issuer_key: RSAPublicKey,
    topology: SessionTopology,
    client_random: bytes,
    server_random: bytes,
    now_ms: int,
    where: str,
) -> Dict[int, Warrant]:
    """Verify a full warrant flight: every warrant checks out AND every
    declared middlebox got exactly one."""
    checked: Dict[int, Warrant] = {}
    for warrant in warrants:
        check_warrant(
            warrant,
            issuer_role,
            issuer_key,
            topology,
            client_random,
            server_random,
            now_ms,
            where,
        )
        if warrant.mbox_id in checked:
            raise WarrantError(
                f"duplicate warrant for middlebox {warrant.mbox_id}",
                where=where,
                reason="forged",
                mbox_id=warrant.mbox_id,
            )
        checked[warrant.mbox_id] = warrant
    role = _ROLE_NAMES.get(issuer_role, "?")
    for mbox in topology.middleboxes:
        if mbox.mbox_id not in checked:
            raise WarrantError(
                f"{role} issued no warrant for middlebox {mbox.mbox_id}",
                where=where,
                reason="missing",
                mbox_id=mbox.mbox_id,
            )
    return checked


def effective_permission(
    ctx_id: int,
    client_warrant: Optional[Warrant],
    server_warrant: Optional[Warrant],
) -> Permission:
    """Access is the per-context minimum of both endpoints' grants (R4:
    both sides must agree before a middlebox can touch a context)."""
    if client_warrant is None or server_warrant is None:
        return Permission.NONE
    granted_c = client_warrant.grants.get(ctx_id, Permission.NONE)
    granted_s = server_warrant.grants.get(ctx_id, Permission.NONE)
    return Permission(min(int(granted_c), int(granted_s)))
