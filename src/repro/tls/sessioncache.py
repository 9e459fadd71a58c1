"""Session resumption (RFC 5246 §7.3): the session cache and the one
path every stack resumes through.

The paper's server-side bottleneck is handshake CPU (§5, Figure 5); real
deployments amortise it with *session resumption*: a returning client
skips certificates and key exchange entirely — ClientHello (remembered
session) → ServerHello (echo) + ChangeCipherSpec + Finished →
ChangeCipherSpec + Finished.  Fresh randoms re-derive the record keys, so
resumed sessions never reuse record protection keys.

A session is remembered in server memory, in a :class:`SessionCache`: a
bounded LRU with absolute TTL expiry, explicit invalidation and
statistics counters, keyed by the ``session_id`` the server issued.
Capacity is a hard cap and the least-recently-used entry is evicted
first.  :class:`ClientSessionStore` is the client's side: the most recent
resumable session per endpoint, same LRU/TTL machinery.  All stores take
an injectable clock, so tests drive TTL expiry without sleeping.

One path per role, for TLS, mcTLS and mdTLS alike:

* :class:`ServerResumption` — ``_remembered(hello)`` finds the session a
  ClientHello asks for in the cache, then applies the stack's one
  acceptance predicate ``_resumable(state)``.  ``_issue_session_id()``
  and ``_remember()`` are the full handshake's half: an id and a cache
  ``put``, each only for a session ``_resumable`` would take back.
* :class:`ClientResumption` — ``_offer()`` offers a held session judged
  by the stack's ``_matches(state)``; ``_remember()`` stores the session
  after a full handshake.

No ClientHello extension takes part in resumption: one this repository
does not define (RFC 5077's 0x0023, which OpenSSL clients send) is
ignored, and the hello resumes by its session id or runs in full (RFC
5077 §3.4).

What a stack supplies is its session-state class (``SessionState``,
which names its client-store namespace), ``_session_state(session_id)``
and its predicate.  :class:`TLSSessionState` is plain TLS's; the mcTLS
and mdTLS classes live in :mod:`repro.mctls.session` and
:mod:`repro.mdtls.session`.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

SESSION_ID_LEN = 32

DEFAULT_CAPACITY = 1024
DEFAULT_TTL_S = 3600.0


def new_session_id() -> bytes:
    """A fresh 32-byte session identifier (RFC 5246 caps it at 32)."""
    return os.urandom(SESSION_ID_LEN)


@dataclass(frozen=True)
class TLSSessionState:
    """What a plain-TLS resumption needs to rebuild record protection."""

    session_id: bytes
    master_secret: bytes
    cipher_suite_id: int
    server_name: str = ""

    store_namespace = ""  # client stores key plain-TLS sessions by name alone


@dataclass
class CacheStats:
    """Counters for every way an entry can enter or leave the cache."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    stores: int = 0
    overwrites: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "stores": self.stores,
            "overwrites": self.overwrites,
            "invalidations": self.invalidations,
        }


@dataclass
class _Entry:
    state: object
    stored_at: float


class SessionCache:
    """A bounded LRU session cache with TTL expiry and stats.

    * ``capacity`` — hard bound on live entries; storing beyond it evicts
      the least recently *used* entry (lookups refresh recency).
    * ``ttl`` — seconds an entry stays resumable, measured from its most
      recent ``put``.  Expiry is lazy: detected on lookup (counted as an
      expiration *and* a miss) or via :meth:`purge_expired`.
    * ``clock`` — injectable monotonic time source for deterministic
      tests; defaults to :func:`time.monotonic`.

    Accounting invariant (the property tests pin it)::

        stores == len(cache) + evictions + expirations
                  + invalidations + overwrites
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        ttl: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("session cache capacity must be at least 1")
        if ttl <= 0:
            raise ValueError("session cache TTL must be positive")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency or the hit/miss counters."""
        entry = self._entries.get(key)
        return entry is not None and not self._expired(entry)

    def _expired(self, entry: _Entry) -> bool:
        return self._clock() - entry.stored_at > self.ttl

    def get(self, key: Hashable) -> Optional[object]:
        """Look up a resumable session; refreshes LRU recency on hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self._expired(entry):
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.state

    def put(self, key: Hashable, state: object) -> None:
        """Store (or refresh) a session, evicting LRU entries past capacity."""
        if key in self._entries:
            self.stats.overwrites += 1
            del self._entries[key]
        self._entries[key] = _Entry(state=state, stored_at=self._clock())
        self.stats.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Explicitly drop a session (e.g. on fatal alert); True if present."""
        if key in self._entries:
            del self._entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def purge_expired(self) -> int:
        """Eagerly drop every expired entry; returns how many were dropped."""
        expired = [k for k, e in self._entries.items() if self._expired(e)]
        for key in expired:
            del self._entries[key]
            self.stats.expirations += 1
        return len(expired)

    def clear(self) -> None:
        """Drop everything (counted as invalidations)."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()


class ClientSessionStore(SessionCache):
    """The client side: resumable sessions keyed by endpoint name.

    Identical machinery to :class:`SessionCache`; the subclass exists so
    call sites say what they mean and so client-side defaults can diverge
    later (browsers keep far fewer sessions than servers)."""

    def __init__(
        self,
        capacity: int = 64,
        ttl: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(capacity=capacity, ttl=ttl, clock=clock)


# -- the one resumption path per role ----------------------------------------


class ServerResumption:
    """The server's half of resumption, shared by every stack.

    The host sets ``_session_cache`` (None disables resumption) and
    supplies ``SessionState``, ``_session_state(session_id)`` and
    ``_resumable(state)``.
    """

    _session_id = b""  # what the ServerHello carries: issued, or echoed

    def _remembered(self, hello):
        """The session ``hello`` resumes, or None for a full handshake.

        The proposed id is looked up in the cache; a miss, an entry of
        another stack's state class or one ``_resumable`` turns down is a
        full handshake, never an alert.
        """
        if not hello.session_id or self._session_cache is None:
            return None
        state = self._session_cache.get(bytes(hello.session_id))
        if not isinstance(state, self.SessionState):
            return None
        return state if self._resumable(state) else None

    def _issue_session_id(self) -> None:
        """A full handshake never echoes the client's id (RFC 5246
        §7.4.1.3): it gets a fresh one when the cache will keep this
        session, none otherwise."""
        if self._session_cache is not None and self._resumable(self._session_state(b"")):
            self._session_id = new_session_id()

    def _remember(self) -> None:
        """Once a full handshake's client Finished verified: cache the
        session under the issued id."""
        if self._session_id:
            self._session_cache.put(self._session_id, self._session_state(self._session_id))


class ClientResumption:
    """The client's half of resumption, shared by every stack.

    The host sets ``_session_store`` (None disables resumption) and
    supplies ``SessionState``, ``_session_state(session_id)`` and
    ``_matches(state)``.
    """

    _offered = None  # the remembered session this ClientHello offers
    _offered_id = b""  # the id it proposes; the server echoes it to resume
    _issued_id = b""  # the id a full handshake's ServerHello issued

    def _store_key(self):
        """This endpoint's key in a store: the server name, namespaced by
        the session-state class so stacks sharing a store never mix."""
        name = self.config.server_name or ""
        namespace = self.SessionState.store_namespace
        return (namespace, name) if namespace else name

    def _offer(self) -> bytes:
        """The session id for the ClientHello: a held session's own, when
        it passes ``_matches`` (what changed here since can only be
        negotiated in full), else empty."""
        if self._session_store is not None:
            held = self._session_store.get(self._store_key())
            if isinstance(held, self.SessionState) and self._matches(held):
                self._offered, self._offered_id = held, held.session_id
        return self._offered_id

    def _echoes_offer(self, hello) -> bool:
        """Whether a ServerHello resumes the offered session: it echoes
        the offered id."""
        return bool(self._offered_id) and hello.session_id == self._offered_id

    def _remember(self) -> None:
        """After a full handshake: keep the session under the id the
        server issued, for the next connection."""
        if self._session_store is not None and self._issued_id:
            self._session_store.put(self._store_key(), self._session_state(self._issued_id))
