"""The mcTLS record protocol (§3.4).

An mcTLS record is a TLS record with a one-byte context ID in the header::

    type(1) || version(2) || context_id(1) || length(2) || fragment

Context 0 is the endpoint control context: after ChangeCipherSpec its
records (Finished, alerts) are protected with ``K_endpoints`` and a single
MAC, exactly like TLS — it *is* the record engine's endpoint-context path
(:mod:`repro.tls.record`).  Application contexts (1..255) use the
**endpoint-writer-reader** scheme: the fragment decrypts (under the
context's reader encryption key) to::

    payload || MAC_endpoints || MAC_writers || MAC_readers

Each MAC covers ``seq(8) || type(1) || version(2) || context_id(1) ||
payload_length(2) || payload`` under the corresponding key.  Sequence
numbers are global across contexts per direction, so record deletion by a
third party is detectable.

Verification rules (paper §3.4):

* an **endpoint** checks ``MAC_writers`` (raising on illegal
  modification) and compares ``MAC_endpoints`` to learn whether a *legal*
  modification occurred;
* a **writer** checks ``MAC_writers``;
* a **reader** checks ``MAC_readers`` (it cannot police other readers —
  the documented limitation; see :mod:`repro.mctls.strict_readers` for
  the paper's optional fixes).

One path per role
-----------------

:class:`McTLSRecordLayer` (an endpoint) is the record engine plus what
only mcTLS has: the three-MAC application contexts, per-field MACs and
the switch to a negotiated framing at the ChangeCipherSpec.
:class:`MiddleboxRecordProcessor` (one direction at a middlebox) keeps
the engine's state for that direction — a
:class:`~repro.tls.record.DirectionState` of
:class:`~repro.tls.record.ContextState` objects — and opens, checks and
re-MACs records one at a time through the engine's
:func:`~repro.tls.record.parse_record` and cipher-failure translation.

The MAC trailer has one codec for every party: :func:`mac_trailer`
writes the slots and :func:`split_trailer` cuts them apart.  A context
state holds one MAC context per slot, ``None`` where its party holds no
key, and a ``None`` slot carries the MAC that was received.  So the MAC
rules above are which keys a caller holds: an endpoint computes every
slot, a writer's rebuild carries ``MAC_endpoints`` and the fields it was
not granted, and a forging reader
(:func:`repro.faults.forge_reader_record`) carries every slot but
``MAC_readers``.  Context states are built once per key install,
fragments handed to middleboxes are ``memoryview``s over the
(immutable, safely retainable) ``raw`` record bytes, and wire bytes are
pinned bit-for-bit by the golden-vector tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from hmac import compare_digest
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.crypto.hmaccache import hmac_sha256
from repro.framing import MCTLS_DEFAULT, RecordFraming, detect_mctls_framing
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, FieldSchema, Permission
from repro.tls.ciphersuites import CipherSuite
from repro.tls.record import (
    APPLICATION_DATA,  # re-exported
    MAX_FRAGMENT,
    ContextState,
    DirectionState,
    RecordError,
    RecordLayer,
    parse_record,
    seal,
    unseal,
)

class McTLSRecordError(RecordError):
    """Raised on malformed mcTLS records or failed MAC verification.

    ``where`` reports which kind of party rejected the record
    (``"endpoint"`` / ``"middlebox"``) once known; framing errors raised
    by :func:`split_records` leave it ``None`` and the catching layer
    fills it in.  The fault-injection harness (:mod:`repro.faults`) uses
    this to attribute every detection to the right party.
    """


# The three MAC slots of the endpoint-writer-reader scheme (§3.4).
MAC_ENDPOINTS = "endpoints"
MAC_WRITERS = "writers"
MAC_READERS = "readers"


class MacVerificationError(McTLSRecordError):
    """A record MAC check failed — the §3.4 detection outcome.

    Carries *which* MAC caught the tampering (``mac``: ``MAC_ENDPOINTS``
    / ``MAC_WRITERS`` / ``MAC_READERS`` / ``"field:<name>"``), *where*
    (``"endpoint"`` or ``"middlebox"``), ``context_id`` and ``seq``, so
    tests can assert not just that tampering was detected but that the
    paper's Table 1 attributes the detection to the right key.
    """


def mac_input(seq: int, content_type: int, context_id: int, payload: bytes) -> bytes:
    """The bytes every mcTLS record MAC covers."""
    return MCTLS_DEFAULT.pack_mac_prefix(seq, content_type, context_id, len(payload)) + payload


def split_records(
    buf: bytearray, framing: Optional[RecordFraming] = None
) -> Iterator[Tuple[int, int, memoryview, bytes]]:
    """Consume complete records from ``buf``.

    Yields :func:`~repro.tls.record.parse_record` tuples and deletes
    consumed bytes; bytes of an incomplete trailing record stay in
    ``buf``.  Consumed bytes are reclaimed in one batched deletion when
    iteration stops (exhaustion, ``break``, or an error on a later
    record).  Without a ``framing`` each record's framing is read off
    its first byte (:func:`repro.framing.detect_mctls_framing`), which
    is what a key-less observer can do: the on-path attacker
    (:class:`repro.faults.TamperProxy`) and the tracer
    (:func:`repro.trace.describe_stream`) split mixed default/compact
    captures this way.  A middlebox does not: framing is negotiated,
    not implied, so ``McTLSMiddlebox._receive`` selects it from its own
    ChangeCipherSpec state.
    """
    pos = 0
    try:
        while pos < len(buf):
            fr = framing if framing is not None else detect_mctls_framing(buf[pos])
            record = parse_record(buf, pos, fr, McTLSRecordError)
            if record is None:
                return
            pos += len(record[3])
            yield record
    finally:
        if pos:
            del buf[:pos]


@dataclass(slots=True)
class UnprotectedRecord:
    """A record opened by an endpoint record layer."""

    content_type: int
    context_id: int
    payload: bytes
    legally_modified: bool = False


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    # Kept as the module's (test- and fault-harness-visible) HMAC entry
    # point; one shot, as repro.crypto.hmaccache.hmac_sha256.
    return hmac_sha256(key, data)


# -- an application context's protection state ---------------------------


def application_context(
    suite: CipherSuite,
    framing: RecordFraming,
    keys: mk.ContextKeys,
    direction: str,
    endpoint_mac=None,
    writes: bool = True,
    schema: Optional[FieldSchema] = None,
    field_keys: Optional[Dict[int, bytes]] = None,
) -> ContextState:
    """One direction of an application context: the reader cipher, then
    a MAC context for each slot the party holds a key for and ``None``
    for the others.  An endpoint passes its ``endpoint_mac`` and every
    field's MAC block; a middlebox no endpoint MAC, ``writes`` only
    under a write grant, and the fields it was granted (by index)."""
    mac = suite.mac_context
    macs = (
        endpoint_mac,
        mac(keys.writer_mac(direction)) if writes else None,
        mac(keys.reader_mac(direction)),
    )
    fields = ()
    if schema is not None and framing.field_macs:
        fields = tuple(
            (f, mac(mk.mac_half(field_keys[i], direction)) if i in field_keys else None)
            for i, f in enumerate(schema.fields)
        )
    return ContextState(suite.new_cipher(keys.enc(direction)), macs, framing.mac_len, fields)


# -- the MAC trailer codec ----------------------------------------------------


def mac_trailer(
    macs: tuple, fields: tuple, prefix: bytes, payload, m: int, received: tuple = ()
) -> List[bytes]:
    """The trailer slots of ``payload``: ``MAC_endpoints``,
    ``MAC_writers``, ``MAC_readers``, then one MAC per field.

    ``macs`` holds one MAC context per record slot and ``fields`` one
    ``(FieldDef, MAC context)`` pair per field, in schema order.  A slot
    whose context is ``None`` carries the MAC at the same position of
    ``received``: the caller holds no key for it.
    """
    endpoints, writers, readers = macs
    slots = [
        received[0] if endpoints is None else endpoints.digest(prefix, payload)[:m],
        received[1] if writers is None else writers.digest(prefix, payload)[:m],
        received[2] if readers is None else readers.digest(prefix, payload)[:m],
    ]
    if fields:  # no loop set-up per record where the framing has no field MACs
        for index, (field_def, mac) in enumerate(fields):
            slots.append(
                received[3 + index] if mac is None
                else mac.digest(prefix + bytes((index,)), field_def.slice(payload))[:m]
            )
    return slots


def split_trailer(plaintext: bytes, ctx: ContextState) -> Tuple[bytes, tuple]:
    """``(payload, slots)`` of a decrypted application-context fragment,
    the slots in :func:`mac_trailer`'s order."""
    base = len(plaintext) - ctx.trailer
    if base < 0:
        raise McTLSRecordError("record shorter than its three MACs")
    return plaintext[:base], ctx.layout.unpack_from(plaintext, base)


class McTLSRecordLayer(RecordLayer):
    """The record engine at an mcTLS *endpoint*.

    Unprotected until :meth:`activate_write` / :meth:`activate_read` are
    called at the ChangeCipherSpec boundary.  The write direction for a
    client is ``c2s``; for a server ``s2c``.  Each context's protection
    state is built from the installed keys at its first record and
    dropped whenever those keys (or the framing) change.
    """

    plain_framing = MCTLS_DEFAULT
    error = McTLSRecordError
    _endpoint_mac_error = partial(
        MacVerificationError,
        "endpoint MAC verification failed",
        mac=MAC_ENDPOINTS,
        where="endpoint",
        context_id=ENDPOINT_CONTEXT_ID,
    )
    _record = UnprotectedRecord

    def __init__(self, is_client: bool):
        super().__init__()
        self.is_client = is_client
        self.suite: Optional[CipherSuite] = None
        self.endpoint_keys: Optional[mk.EndpointKeys] = None
        self.context_keys: Dict[int, mk.ContextKeys] = {}
        # Under a field-MAC framing: per-context field schemas and field
        # MAC blocks (a tuple in schema field order).
        self._field_schemas: Dict[int, FieldSchema] = {}
        self._field_keys: Dict[int, tuple] = {}

    # -- keys, framing, activation ---------------------------------------

    def set_suite(self, suite: CipherSuite) -> None:
        self.suite = suite
        self._drop_contexts()

    def set_endpoint_keys(self, keys: mk.EndpointKeys) -> None:
        self.endpoint_keys = keys
        # The endpoint MAC key feeds the MAC_endpoints slot of *every*
        # context, so all cached state is stale, not just context 0.
        self._drop_contexts()

    def install_context_keys(self, context_id: int, keys: mk.ContextKeys) -> None:
        self.context_keys[context_id] = keys
        self.write_state.contexts.pop(context_id, None)
        self.read_state.contexts.pop(context_id, None)

    def set_framing(
        self,
        framing: RecordFraming,
        schemas=(),
        field_keys: Optional[Dict[int, tuple]] = None,
    ) -> None:
        """Adopt a negotiated wire framing.

        Takes effect for protected records only: everything before the
        ChangeCipherSpec boundary — and the ChangeCipherSpec itself —
        stays default-framed, exactly like cipher activation.
        ``schemas`` are the session's :class:`FieldSchema` declarations;
        ``field_keys`` maps context id → tuple of field MAC blocks
        (:func:`~repro.mctls.keys.derive_field_keys`) in schema field
        order (an endpoint holds every field key).
        """
        self.framing = framing
        self._field_schemas = {s.context_id: s for s in schemas}
        self._field_keys = dict(field_keys or {})
        self._drop_contexts()

    def _drop_contexts(self) -> None:
        self.write_state.contexts.clear()
        self.read_state.contexts.clear()

    def activate_write(self) -> None:
        self._arm(self.write_state)

    def activate_read(self) -> None:
        self._arm(self.read_state)

    def _arm(self, state: DirectionState) -> None:
        if self.endpoint_keys is None or self.suite is None:
            raise McTLSRecordError("cannot activate protection before keys exist")
        state.arm()

    def _build_context(self, state: DirectionState, context_id: int) -> ContextState:
        # A client writes c2s and reads s2c; a server the other way round.
        direction = mk.C2S if (state is self.write_state) == self.is_client else mk.S2C
        suite = self.suite
        endpoint = self.endpoint_keys.for_direction(direction)
        endpoint_mac = suite.mac_context(endpoint.mac)
        if context_id == ENDPOINT_CONTEXT_ID:
            return ContextState(
                suite.new_cipher(endpoint.enc), (endpoint_mac,), self.framing.mac_len
            )
        keys = self.context_keys.get(context_id)
        if keys is None:
            raise McTLSRecordError(f"no keys for context {context_id}")
        schema = self._field_schemas.get(context_id) if self.framing.field_macs else None
        field_keys = self._field_keys.get(context_id, ())
        if schema is not None and not field_keys:
            raise McTLSRecordError(f"no field keys for context {context_id}")
        return application_context(
            suite, self.framing, keys, direction, endpoint_mac,
            schema=schema, field_keys=dict(enumerate(field_keys)),
        )

    # -- the application contexts -----------------------------------------

    def _protect(
        self, ctx: ContextState, fr: RecordFraming, seq: int, content_type: int,
        context_id: int, payload,
    ) -> bytes:
        if context_id == ENDPOINT_CONTEXT_ID:
            return super()._protect(ctx, fr, seq, content_type, context_id, payload)
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        slots = mac_trailer(ctx.macs, ctx.fields, prefix, payload, fr.mac_len)
        return seal(ctx.cipher, b"".join((payload, *slots)), McTLSRecordError)

    def _unprotect(
        self, ctx: ContextState, fr: RecordFraming, seq: int, content_type: int,
        context_id: int, fragment,
    ) -> UnprotectedRecord:
        if context_id == ENDPOINT_CONTEXT_ID:
            return super()._unprotect(ctx, fr, seq, content_type, context_id, fragment)
        m = fr.mac_len
        payload, received = split_trailer(unseal(ctx.cipher, fragment, McTLSRecordError), ctx)
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        # An endpoint checks every slot but MAC_readers.
        endpoints, writers, _ = ctx.macs
        expected = mac_trailer(
            (endpoints, writers, None), ctx.fields, prefix, payload, m, received
        )
        if not compare_digest(received[1], expected[1]):
            raise MacVerificationError(
                f"writer MAC verification failed on context {context_id} "
                "(illegal modification)",
                mac=MAC_WRITERS,
                where="endpoint",
                context_id=context_id,
                seq=seq,
            )
        # Per-field sub-contexts: each field MAC must verify under its
        # own key.  A record-level writer that modified a field it was
        # not granted passes the writer MAC (it holds K_writers) but
        # cannot refresh that field's MAC — detected and attributed
        # here, to the field.
        for slot, (field_def, _) in enumerate(ctx.fields, 3):
            if not compare_digest(received[slot], expected[slot]):
                raise MacVerificationError(
                    f"field MAC verification failed on field "
                    f"{field_def.name!r} of context {context_id} "
                    "(unauthorized field modification)",
                    mac=f"field:{field_def.name}",
                    where="endpoint",
                    context_id=context_id,
                    seq=seq,
                )
        legally_modified = not compare_digest(received[0], expected[0])
        return UnprotectedRecord(content_type, context_id, payload, legally_modified)


# -- middlebox-side record processing --------------------------------------


class OpenedRecord(NamedTuple):
    """A record opened (or passed through) by a middlebox.

    A ``NamedTuple`` rather than a dataclass: one of these is built per
    record on the middlebox data plane, and the C-level tuple
    constructor keeps that allocation off the per-record floor.
    """

    content_type: int
    context_id: int
    payload: Optional[bytes]  # None when the middlebox cannot read it
    permission: Permission
    endpoint_mac: bytes = b""  # carried through writer rebuilds
    writer_mac: bytes = b""
    reader_mac: bytes = b""
    seq: int = 0
    field_macs: tuple = ()  # per-field MACs (compact framing), schema order


class MiddleboxRecordProcessor:
    """One direction of a session at a middlebox (§3.4).

    ``state`` is the engine's :class:`~repro.tls.record.DirectionState`:
    the global sequence number, whether the ChangeCipherSpec armed this
    direction, and one :class:`~repro.tls.record.ContextState` per
    context, built from ``context_keys`` at its first record.  A context
    state holds the reader cipher and the MAC contexts of the slots this
    middlebox holds keys for: never ``MAC_endpoints``, ``MAC_writers``
    only under a write grant, and only the fields it was granted.  A
    context it cannot open caches ``None``, so a pass-through record
    costs one dict lookup.  The middlebox keeps two processors
    (client→server and server→client).
    """

    def __init__(self, suite: Optional[CipherSuite], direction: str):
        self.suite = suite
        self.direction = direction
        self.state = DirectionState()
        self.framing: RecordFraming = MCTLS_DEFAULT
        self.permissions: Dict[int, Permission] = {}
        self.context_keys: Dict[int, mk.ContextKeys] = {}
        self._field_schemas: Dict[int, FieldSchema] = {}
        self._field_keys: Dict[int, Dict[int, bytes]] = {}

    @property
    def seq(self) -> int:
        return self.state.seq

    @seq.setter
    def seq(self, seq: int) -> None:
        self.state.seq = seq

    def install(self, context_id: int, permission: Permission, keys: Optional[mk.ContextKeys]) -> None:
        self.permissions[context_id] = permission
        if keys is not None:
            self.context_keys[context_id] = keys
        self.state.contexts.pop(context_id, None)

    def set_framing(self, framing: RecordFraming, schemas=()) -> None:
        """Adopt the session's negotiated framing and field schemas."""
        self.framing = framing
        self._field_schemas = {s.context_id: s for s in schemas}
        self.state.contexts.clear()

    def install_field_keys(self, context_id: int, keys: Dict[int, bytes]) -> None:
        """Install MAC keys for the fields this middlebox was granted.

        ``keys`` maps field index → the field's MAC block;
        a middlebox only ever receives keys for fields it may write, so
        holding a key *is* the write grant.
        """
        self._field_keys.setdefault(context_id, {}).update(keys)
        self.state.contexts.pop(context_id, None)

    def activate(self) -> None:
        """Start counting sequence numbers (at the CCS boundary)."""
        self.state.arm()

    def context(self, context_id: int) -> Optional[ContextState]:
        """``context_id``'s protection state, or ``None`` if this
        middlebox cannot open its records."""
        try:
            return self.state.contexts[context_id]
        except KeyError:
            pass
        permission = self.permissions.get(context_id, Permission.NONE)
        keys = self.context_keys.get(context_id)
        if context_id == ENDPOINT_CONTEXT_ID or not permission.can_read or keys is None:
            ctx = None
        else:
            ctx = application_context(
                self.suite, self.framing, keys, self.direction,
                writes=permission.can_write,
                schema=self._field_schemas.get(context_id),
                field_keys=self._field_keys.get(context_id, {}),
            )
        self.state.contexts[context_id] = ctx
        return ctx

    def open_record(self, content_type: int, context_id: int, fragment: bytes) -> OpenedRecord:
        """Open (or account for) one protected record flowing through.

        Every record consumes a sequence number whether or not the
        middlebox can read it — sequence numbers are global.  A writer
        checks ``MAC_writers``, a reader ``MAC_readers``.
        """
        state = self.state
        if not state.protected:
            raise McTLSRecordError("record processor not yet activated")
        seq = state.seq
        state.seq = seq + 1
        try:
            ctx = state.contexts[context_id]
        except KeyError:
            ctx = self.context(context_id)
        if ctx is None:
            return OpenedRecord(content_type, context_id, None, Permission.NONE, seq=seq)

        fr = self.framing
        m = fr.mac_len
        payload, slots = split_trailer(unseal(ctx.cipher, fragment, McTLSRecordError), ctx)
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        _, writers, readers = ctx.macs
        if writers is not None:
            if not compare_digest(slots[1], writers.digest(prefix, payload)[:m]):
                raise MacVerificationError(
                    "writer MAC verification failed at middlebox (illegal modification)",
                    mac=MAC_WRITERS,
                    where="middlebox",
                    context_id=context_id,
                    seq=seq,
                )
        elif not compare_digest(slots[2], readers.digest(prefix, payload)[:m]):
            raise MacVerificationError(
                "reader MAC verification failed at middlebox "
                "(third-party modification)",
                mac=MAC_READERS,
                where="middlebox",
                context_id=context_id,
                seq=seq,
            )
        permission = self.permissions[context_id]
        return OpenedRecord(
            content_type, context_id, payload, permission, *slots[:3], seq, slots[3:]
        )

    def rebuild_record(self, opened: OpenedRecord, new_payload: bytes) -> bytes:
        """Re-protect a (possibly modified) record for forwarding.

        Only legal for contexts this middlebox can write.  The original
        ``MAC_endpoints`` is forwarded untouched; writer and reader MACs
        are regenerated over the new payload.  Under a field-MAC framing,
        only fields this middlebox holds keys for are re-MACed — the
        other field MACs are forwarded as received, so a write outside
        the granted fields leaves a stale MAC the endpoint detects.
        """
        context_id = opened.context_id
        try:
            ctx = self.state.contexts[context_id]
        except KeyError:
            ctx = self.context(context_id)
        if ctx is None or ctx.macs[1] is None:
            raise McTLSRecordError(
                f"middlebox lacks write permission on context {context_id} "
                "(no write grant, or no keys for it)"
            )
        return self.reseal(ctx, opened, new_payload, ctx.macs, ctx.fields)

    def reseal(
        self, ctx: ContextState, opened: OpenedRecord, payload, macs: tuple, fields: tuple
    ) -> bytes:
        """``payload`` as ``opened``'s record, in this session's framing:
        :func:`mac_trailer` computes the slots ``macs`` and ``fields``
        give a MAC context for and carries the rest from ``opened``."""
        fr = self.framing
        content_type, context_id = opened.content_type, opened.context_id
        prefix = fr.pack_mac_prefix(opened.seq, content_type, context_id, len(payload))
        received = (opened.endpoint_mac, opened.writer_mac, opened.reader_mac)
        received += opened.field_macs
        slots = mac_trailer(macs, fields, prefix, payload, fr.mac_len, received)
        fragment = seal(ctx.cipher, b"".join((payload, *slots)), McTLSRecordError)
        length = len(fragment)
        if length > MAX_FRAGMENT:
            raise McTLSRecordError("record fragment too long")
        return fr.pack_header(content_type, context_id, length) + fragment
