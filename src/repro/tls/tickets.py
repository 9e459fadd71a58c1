"""Stateless session tickets (RFC 5077's construction, re-built here).

The :class:`~repro.tls.sessioncache.SessionCache` resumes sessions from
*server memory*: a bounded LRU that evicts under load and lives inside
one server object, so a returning client that reaches a different server
object gets a full handshake.  Tickets invert the storage: the server
*seals* the session state under a key only it holds and hands the opaque
blob to the client, who presents it on the next connection.  Resumption
then costs the server O(1) memory and works on any server object sharing
the ticket key.  Both stores sit behind the one resumption path in
:mod:`repro.tls.sessioncache`.

Ticket format (the sealed blob the client carries)::

    version(1) || key_name(16) || nonce(16) || ciphertext || mac(32)

* ``version`` — format version; a bumped version is indistinguishable
  from garbage to an old server (→ full handshake), never a crash.
* ``key_name`` — identifies which rotation epoch sealed this ticket, so
  rotation does not orphan live tickets (RFC 5077 §4).
* ``ciphertext`` — XOR of the plaintext with a P_SHA256 keystream bound
  to the nonce (the repo-local stand-in for AES-CTR; same construction
  as the record layer's PRF use).
* ``mac`` — HMAC-SHA256 over ``version || key_name || nonce ||
  ciphertext`` (encrypt-then-MAC, verified with a constant-time
  compare before any decryption).

The plaintext carries a *kind* byte (TLS, mcTLS or mdTLS) so a ticket
can never be replayed across protocols, the sealing timestamp (tickets
expire by ticket age, not by server table residence) and the protocol
payload, which each session-state class encodes and decodes itself
(``ticket_payload`` / ``from_ticket_payload``, under its
``ticket_kind``).  For plain TLS that payload is master secret + cipher
suite; for mcTLS it is the endpoint secret **plus the full granted
context topology, mode and key transport** — the server's acceptance
check re-judges all of them against the new ClientHello, exactly as for
a cached session, so a resumption can never widen middlebox access
beyond what was originally approved.

Keys rotate: :class:`TicketKeyManager` seals under the newest key,
starts a fresh key every ``rotation_period`` seconds and keeps old keys
just long enough to validate tickets they could still have sealed.  The
clock is injectable so tests drive rotation and expiry without sleeping.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.crypto.prf import p_sha256
from repro.wire import DecodeError, Reader, Writer

TICKET_VERSION = 1
KEY_NAME_LEN = 16
NONCE_LEN = 16
MAC_LEN = 32
MIN_TICKET_LEN = 1 + KEY_NAME_LEN + NONCE_LEN + MAC_LEN

# Payload kinds: a ticket sealed for one protocol is garbage to the other.
KIND_TLS = 1
KIND_MCTLS = 2
KIND_MDTLS = 3

DEFAULT_LIFETIME_S = 3600.0

LABEL_KEYSTREAM = b"ticket keystream"
LABEL_MAC = b"ticket mac"


class TicketError(Exception):
    """The ticket cannot be honored.  Every path raising this must end in
    a silent fallback to a full handshake — never an alert, never a
    crash (RFC 5077 §3.1)."""


@dataclass(frozen=True)
class TicketKey:
    """One rotation epoch's sealing key."""

    name: bytes
    secret: bytes
    created_at: float


@dataclass
class TicketStats:
    """Counters for every way a ticket can be minted or judged."""

    sealed: int = 0
    unsealed: int = 0
    rejected: int = 0
    rotations: int = 0

    def snapshot(self):
        return {
            "sealed": self.sealed,
            "unsealed": self.unsealed,
            "rejected": self.rejected,
            "rotations": self.rotations,
        }


class TicketKeyManager:
    """Seals and unseals session tickets under rotating, versioned keys.

    * ``lifetime`` — seconds a ticket stays valid, measured from sealing
      (also the ``lifetime_hint`` sent in NewSessionTicket).
    * ``rotation_period`` — seconds a key stays the *sealing* key;
      defaults to ``lifetime``.  Old keys are kept for
      ``rotation_period + lifetime`` so every ticket they could have
      sealed can still be validated, then pruned.
    * ``clock`` / ``rng`` — injectable for deterministic tests.

    One manager is shared by every server object that should honour the
    same tickets; a real deployment would distribute fresh keys to its
    servers out-of-band on rotation (RFC 5077 §5.5) — here rotation is
    exercised in-process by the tests.
    """

    def __init__(
        self,
        lifetime: float = DEFAULT_LIFETIME_S,
        rotation_period: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        rng: Callable[[int], bytes] = os.urandom,
    ):
        if lifetime <= 0:
            raise ValueError("ticket lifetime must be positive")
        self.lifetime = lifetime
        self.rotation_period = (
            rotation_period if rotation_period is not None else lifetime
        )
        if self.rotation_period <= 0:
            raise ValueError("ticket rotation period must be positive")
        self._clock = clock
        self._rng = rng
        self._keys: "OrderedDict[bytes, TicketKey]" = OrderedDict()
        self.stats = TicketStats()
        self._mint_key()

    # -- key lifecycle ---------------------------------------------------

    def _mint_key(self) -> TicketKey:
        key = TicketKey(
            name=self._rng(KEY_NAME_LEN),
            secret=self._rng(32),
            created_at=self._clock(),
        )
        self._keys[key.name] = key
        return key

    def rotate(self) -> TicketKey:
        """Force a fresh sealing key (normally driven by the clock)."""
        self.stats.rotations += 1
        return self._mint_key()

    def _prune(self) -> None:
        horizon = self.rotation_period + self.lifetime
        now = self._clock()
        stale = [
            name
            for name, key in self._keys.items()
            if now - key.created_at > horizon
        ]
        for name in stale:
            del self._keys[name]

    def _sealing_key(self) -> TicketKey:
        self._prune()
        current = next(reversed(self._keys.values()), None)
        if current is None or self._clock() - current.created_at > self.rotation_period:
            if current is not None:
                self.stats.rotations += 1
            current = self._mint_key()
        return current

    @property
    def current_key_name(self) -> bytes:
        return self._sealing_key().name

    # -- seal / unseal ---------------------------------------------------

    def _cipher(self, key: TicketKey, nonce: bytes, data: bytes) -> bytes:
        stream = p_sha256(key.secret, LABEL_KEYSTREAM + nonce, len(data))
        return bytes(a ^ b for a, b in zip(data, stream))

    def _mac(self, key: TicketKey, header_and_ct: bytes) -> bytes:
        mac_key = p_sha256(key.secret, LABEL_MAC, 32)
        return hmac.new(mac_key, header_and_ct, hashlib.sha256).digest()

    def seal(self, kind: int, payload: bytes) -> bytes:
        """Seal a protocol payload into an opaque ticket blob."""
        key = self._sealing_key()
        nonce = self._rng(NONCE_LEN)
        inner = Writer()
        inner.u8(kind)
        inner.u64(int(self._clock() * 1000))  # issued_at, milliseconds
        inner.raw(payload)
        header = bytes([TICKET_VERSION]) + key.name + nonce
        ciphertext = self._cipher(key, nonce, inner.bytes())
        self.stats.sealed += 1
        return header + ciphertext + self._mac(key, header + ciphertext)

    def unseal(self, ticket: bytes) -> Tuple[int, bytes]:
        """Validate and open a ticket; returns ``(kind, payload)``.

        Raises :class:`TicketError` on *any* defect — truncation, version
        skew, unknown (rotated-out) key, MAC failure, malformed plaintext
        or expiry.  Callers treat every failure identically: ignore the
        ticket and run a full handshake.
        """
        try:
            return self._unseal(ticket)
        except TicketError:
            self.stats.rejected += 1
            raise

    def _unseal(self, ticket: bytes) -> Tuple[int, bytes]:
        if len(ticket) < MIN_TICKET_LEN:
            raise TicketError("ticket truncated")
        if ticket[0] != TICKET_VERSION:
            raise TicketError(f"unknown ticket version {ticket[0]}")
        name = ticket[1 : 1 + KEY_NAME_LEN]
        nonce = ticket[1 + KEY_NAME_LEN : 1 + KEY_NAME_LEN + NONCE_LEN]
        ciphertext = ticket[1 + KEY_NAME_LEN + NONCE_LEN : -MAC_LEN]
        mac = ticket[-MAC_LEN:]
        self._prune()
        key = self._keys.get(bytes(name))
        if key is None:
            raise TicketError("ticket sealed under an unknown or retired key")
        expected = self._mac(key, bytes(ticket[:-MAC_LEN]))
        if not hmac.compare_digest(mac, expected):
            raise TicketError("ticket MAC verification failed")
        try:
            r = Reader(self._cipher(key, nonce, ciphertext))
            kind = r.u8()
            issued_at = r.u64() / 1000.0
            payload = r.rest()
        except DecodeError as exc:
            raise TicketError(f"malformed ticket plaintext: {exc}") from exc
        if self._clock() - issued_at > self.lifetime:
            raise TicketError("ticket expired")
        self.stats.unsealed += 1
        return kind, payload


# -- client side ----------------------------------------------------------


@dataclass
class ClientTicket:
    """What the client keeps per endpoint: the opaque server-sealed blob
    plus its *own* record of the session (the client cannot read the
    ticket; mcTLS clients also need their cached middlebox certificates
    to re-distribute fresh context keys on resumption)."""

    ticket: bytes
    state: object  # TLSSessionState | McTLSSessionState
