"""Seeded, deterministic mutation engine for mcTLS traffic (§3.4, Table 1).

A *mutator* is a small, named, reproducible transformation of an mcTLS
record stream — the kinds of tampering the paper's threat model grants a
network attacker (intercept, alter, drop, insert, §3.2).  Mutators are
driven by a :class:`random.Random` seeded by the caller, so for a fixed
seed and the same traffic the same bits flip every run; the property
harness in :mod:`repro.faults.matrix` relies on this to turn Table 1
into an executable, regression-checkable specification.

Two families:

* **record mutators** operate on protected records as parsed
  :class:`RecordView` windows (bit-flips targeted at the payload or at
  each of the three MAC slots, truncation, deletion, replay, reordering,
  context-ID splicing, cross-protocol version confusion);
* **handshake mutators** operate on individual cleartext handshake
  messages (drop, field bit-flip, middlebox-list tampering).

Untouched records must be forwarded byte-identically, so
:func:`parse_records` is deliberately tolerant: it only reads the length
field and never validates — an attacker forwards what it cannot parse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.framing import COMPACT_MARKER_BASE, MCTLS_COMPACT
from repro.mctls.contexts import ContextDefinition, Permission, SessionTopology
from repro.mctls.record import MAC_LEN, MCTLS_HEADER_LEN
from repro.tls import messages as tls_msgs
from repro.tls.record import TLS_VERSION

# The context a context-swap splices a record into.
SWAP_CONTEXT_ID = 2

# Both bulk ciphers prefix an explicit 16-byte IV/nonce to the fragment,
# and the stream suite preserves byte positions — so byte i of the
# ciphertext body maps to byte i of ``payload || 3 MACs``.
NONCE_LEN = 16


@dataclass
class RecordView:
    """One raw mcTLS record, mutable in place.

    ``compact`` marks a record that arrived under the compact framing
    (4-byte marker header, no wire version field); :meth:`to_bytes`
    re-serialises it with the same framing it was parsed with, so an
    attacker forwards exactly what it saw.
    """

    content_type: int
    version: int
    context_id: int
    fragment: bytearray
    compact: bool = False

    def to_bytes(self) -> bytes:
        if self.compact:
            return (
                bytes([COMPACT_MARKER_BASE | (self.content_type - 20)])
                + bytes([self.context_id])
                + len(self.fragment).to_bytes(2, "big")
                + bytes(self.fragment)
            )
        return (
            bytes([self.content_type])
            + self.version.to_bytes(2, "big")
            + bytes([self.context_id])
            + len(self.fragment).to_bytes(2, "big")
            + bytes(self.fragment)
        )

    def copy(self) -> "RecordView":
        return RecordView(
            self.content_type,
            self.version,
            self.context_id,
            bytearray(self.fragment),
            compact=self.compact,
        )


_COMPACT_HEADER_LEN = MCTLS_COMPACT.header_len


def parse_records(buf: bytearray) -> List[RecordView]:
    """Consume complete records from ``buf`` without validating them.

    The compact marker byte range (0xD0-0xD3) is disjoint from the
    default content types, so mixed default/compact streams parse
    per record with no session state.
    """
    views: List[RecordView] = []
    while buf:
        if COMPACT_MARKER_BASE <= buf[0] <= COMPACT_MARKER_BASE | 0x03:
            if len(buf) < _COMPACT_HEADER_LEN:
                break
            length = int.from_bytes(buf[2:4], "big")
            if len(buf) < _COMPACT_HEADER_LEN + length:
                break
            views.append(
                RecordView(
                    content_type=20 + (buf[0] & 0x03),
                    version=MCTLS_COMPACT.wire_version,
                    context_id=buf[1],
                    fragment=bytearray(
                        buf[_COMPACT_HEADER_LEN : _COMPACT_HEADER_LEN + length]
                    ),
                    compact=True,
                )
            )
            del buf[: _COMPACT_HEADER_LEN + length]
            continue
        if len(buf) < MCTLS_HEADER_LEN:
            break
        length = int.from_bytes(buf[4:6], "big")
        if len(buf) < MCTLS_HEADER_LEN + length:
            break
        views.append(
            RecordView(
                content_type=buf[0],
                version=int.from_bytes(buf[1:3], "big"),
                context_id=buf[3],
                fragment=bytearray(buf[MCTLS_HEADER_LEN : MCTLS_HEADER_LEN + length]),
            )
        )
        del buf[: MCTLS_HEADER_LEN + length]
    return views


# -- record mutators ---------------------------------------------------------


class RecordMutator:
    """Base: transform a window of consecutive application records.

    ``window`` is how many consecutive records (starting at the trigger)
    :meth:`mutate` receives; it returns the records to forward instead.
    """

    name = "?"
    window = 1

    def mutate(self, records: List[RecordView], rng: random.Random) -> List[RecordView]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


def _payload_region(view: RecordView) -> Tuple[int, int]:
    """Fragment byte range backing the payload of an app-context record."""
    return NONCE_LEN, len(view.fragment) - 3 * MAC_LEN


class FlipPayloadBit(RecordMutator):
    """Flip one seeded bit inside the encrypted payload region."""

    name = "flip-payload"

    def mutate(self, records, rng):
        view = records[0]
        lo, hi = _payload_region(view)
        if hi <= lo:
            raise ValueError("record has no payload bytes to flip")
        pos = rng.randrange(lo, hi)
        view.fragment[pos] ^= 1 << rng.randrange(8)
        return records


class FlipMacBit(RecordMutator):
    """Flip one seeded bit inside a specific MAC slot.

    Slot offsets count from the fragment end: ``payload || MAC_endpoints
    || MAC_writers || MAC_readers``.
    """

    _SLOTS = {"endpoints": 3, "writers": 2, "readers": 1}

    def __init__(self, slot: str):
        if slot not in self._SLOTS:
            raise ValueError(f"unknown MAC slot {slot!r}")
        self.slot = slot
        self.name = f"flip-mac-{slot}"

    def mutate(self, records, rng):
        view = records[0]
        end_offset = self._SLOTS[self.slot] * MAC_LEN
        start = len(view.fragment) - end_offset
        pos = start + rng.randrange(MAC_LEN)
        view.fragment[pos] ^= 1 << rng.randrange(8)
        return records


class FlipFieldRegionBit(RecordMutator):
    """Flip one seeded bit inside a specific payload byte range.

    Built for the per-field sub-context rows of the fault matrix: under
    a position-preserving stream suite, payload byte ``i`` lives at
    ciphertext byte ``NONCE_LEN + i``, so the flip lands inside a chosen
    :class:`~repro.mctls.contexts.FieldDef` byte range.  A third party
    holds no keys at all, so the flip fails the *record* writer MAC
    before any field MAC is consulted — field MACs refine attribution
    for key-holding insiders, they do not replace record MACs.
    """

    name = "flip-field-region"

    def __init__(self, start: int, end: int):
        if not 0 <= start < end:
            raise ValueError("field region must be a non-empty byte range")
        self.start = start
        self.end = end

    def mutate(self, records, rng):
        view = records[0]
        pos = NONCE_LEN + rng.randrange(self.start, self.end)
        if pos >= len(view.fragment):
            raise ValueError("field region lies outside the record fragment")
        view.fragment[pos] ^= 1 << rng.randrange(8)
        return records


class TruncateRecord(RecordMutator):
    """Cut the fragment's last byte (header length is re-derived)."""

    name = "truncate"

    def mutate(self, records, rng):
        view = records[0]
        if len(view.fragment) <= 1:
            raise ValueError("truncation would consume the whole fragment")
        del view.fragment[-1]
        return records


class DeleteRecord(RecordMutator):
    """Silently drop the record (third-party deletion)."""

    name = "delete"

    def mutate(self, records, rng):
        return []


class ReplayRecord(RecordMutator):
    """Forward the record, then inject a byte-identical copy."""

    name = "replay"

    def mutate(self, records, rng):
        return [records[0], records[0].copy()]


class ReorderRecords(RecordMutator):
    """Swap two consecutive records on the wire."""

    name = "reorder"
    window = 2

    def mutate(self, records, rng):
        return [records[1], records[0]]


class ContextIdSwap(RecordMutator):
    """Rewrite the header's context ID: splice a record into another."""

    name = "context-swap"

    def mutate(self, records, rng):
        view = records[0]
        if view.context_id == SWAP_CONTEXT_ID:
            raise ValueError("context swap target equals the original context")
        view.context_id = SWAP_CONTEXT_ID
        return records


class VersionConfusion(RecordMutator):
    """Rewrite the record version to plain TLS 1.2 (cross-protocol)."""

    name = "version-confusion"

    def mutate(self, records, rng):
        records[0].version = TLS_VERSION
        return records


def standard_record_mutators() -> Dict[str, RecordMutator]:
    """Fresh instances of every record mutator, keyed by name."""
    mutators = [
        FlipPayloadBit(),
        FlipMacBit("endpoints"),
        FlipMacBit("writers"),
        FlipMacBit("readers"),
        TruncateRecord(),
        DeleteRecord(),
        ReplayRecord(),
        ReorderRecords(),
        ContextIdSwap(),
        VersionConfusion(),
    ]
    return {m.name: m for m in mutators}


# -- handshake mutators --------------------------------------------------------


class HandshakeMutator:
    """Base: transform individual cleartext handshake messages.

    :meth:`mutate_message` returns ``None`` to forward the message
    untouched, ``[]`` to drop it, or replacement ``(msg_type, body)``
    pairs.  Instances are stateful (they fire once) — use a fresh one per
    session.
    """

    name = "?"

    def mutate_message(
        self, msg_type: int, body: bytes, rng: random.Random
    ) -> Optional[List[Tuple[int, bytes]]]:
        raise NotImplementedError


class DropHandshakeMessage(HandshakeMutator):
    """Delete the first handshake message of the targeted type."""

    def __init__(self, msg_type: int):
        self.msg_type = msg_type
        self.name = f"hs-drop-{msg_type}"
        self._done = False

    def mutate_message(self, msg_type, body, rng):
        if self._done or msg_type != self.msg_type:
            return None
        self._done = True
        return []


class FlipHandshakeBit(HandshakeMutator):
    """Flip a seeded bit in the first handshake message of a type."""

    def __init__(self, msg_type: int):
        self.msg_type = msg_type
        self.name = f"hs-flip-{msg_type}"
        self._done = False

    def mutate_message(self, msg_type, body, rng):
        if self._done or msg_type != self.msg_type or not body:
            return None
        self._done = True
        mutated = bytearray(body)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        return [(msg_type, bytes(mutated))]


class EscalatePermission(HandshakeMutator):
    """Rewrite the ClientHello's MiddleboxListExtension to escalate one
    middlebox's permission to WRITE — the §4.2 attack the Finished
    exchange must catch."""

    def __init__(self, mbox_id: int, context_id: int):
        self.mbox_id = mbox_id
        self.context_id = context_id
        self.name = "hs-escalate-permission"
        self._done = False

    def mutate_message(self, msg_type, body, rng):
        if self._done or msg_type != tls_msgs.CLIENT_HELLO:
            return None
        self._done = True
        hello = tls_msgs.ClientHello.decode(body)
        ext = hello.find_extension(tls_msgs.EXT_MIDDLEBOX_LIST)
        if ext is None:
            return None
        topology = SessionTopology.decode(ext)
        contexts = []
        for ctx in topology.contexts:
            permissions = dict(ctx.permissions)
            if ctx.context_id == self.context_id:
                permissions[self.mbox_id] = Permission.WRITE
            contexts.append(
                ContextDefinition(ctx.context_id, ctx.purpose, permissions)
            )
        tampered = SessionTopology(
            middleboxes=topology.middleboxes, contexts=tuple(contexts)
        )
        hello.extensions = [
            (etype, tampered.encode() if etype == tls_msgs.EXT_MIDDLEBOX_LIST else data)
            for etype, data in hello.extensions
        ]
        return [(msg_type, hello.encode())]


__all__ = [
    "ContextIdSwap",
    "DeleteRecord",
    "DropHandshakeMessage",
    "EscalatePermission",
    "FlipFieldRegionBit",
    "FlipHandshakeBit",
    "FlipMacBit",
    "FlipPayloadBit",
    "HandshakeMutator",
    "NONCE_LEN",
    "RecordMutator",
    "RecordView",
    "ReorderRecords",
    "ReplayRecord",
    "SWAP_CONTEXT_ID",
    "TruncateRecord",
    "VersionConfusion",
    "parse_records",
    "standard_record_mutators",
]
