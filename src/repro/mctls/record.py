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
:class:`MiddleboxRecordProcessor` (one direction at a middlebox) opens,
checks and re-MACs records one at a time, through the engine's
:func:`~repro.tls.record.parse_record` and cipher-failure translation.
Both build a context's protection state — one keyed cipher plus one
precomputed HMAC context per MAC slot — once per key install, and
fragments handed to middleboxes are ``memoryview``s over the (immutable,
safely retainable) ``raw`` record bytes.  Wire bytes are pinned
bit-for-bit by the golden-vector tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from hmac import compare_digest
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import framing as frm
from repro.crypto.hmaccache import hmac_sha256
from repro.framing import MCTLS_DEFAULT, RecordFraming
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

# The default mcTLS wire geometry lives in repro.framing; these module
# names are aliases kept for the (large) existing import surface.
MCTLS_HEADER_LEN = MCTLS_DEFAULT.header_len
MCTLS_VERSION = frm.MCTLS_VERSION
MAC_LEN = MCTLS_DEFAULT.mac_len
# encode_header(content_type, context_id, fragment_len)
encode_header = MCTLS_DEFAULT.pack_header


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
    consumed bytes — used by middleboxes, which forward records they
    cannot (or need not) open verbatim.  Consumed bytes are reclaimed
    from ``buf`` in one batched deletion when iteration stops
    (exhaustion, ``break``, or an error on a later record).  ``framing``
    selects the wire geometry (default mcTLS framing when omitted).
    """
    fr = framing if framing is not None else MCTLS_DEFAULT
    pos = 0
    try:
        while True:
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
    # point; the key schedule is cached per key in repro.crypto.hmaccache.
    return hmac_sha256(key, data)


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
        # MAC keys (a tuple of FieldKeys in schema field order).
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
        ``field_keys`` maps context id → tuple of
        :class:`~repro.mctls.keys.FieldKeys` in schema field order (an
        endpoint holds every field key).
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
        mac_len = self.framing.mac_len
        endpoint = self.endpoint_keys.for_direction(direction)
        endpoint_mac = suite.mac_context(endpoint.mac)
        if context_id == ENDPOINT_CONTEXT_ID:
            return ContextState(suite.new_cipher(endpoint.enc), (endpoint_mac,), mac_len)
        keys = self.context_keys.get(context_id)
        if keys is None:
            raise McTLSRecordError(f"no keys for context {context_id}")
        readers = keys.readers.for_direction(direction)
        macs = (
            endpoint_mac,
            suite.mac_context(keys.writers.mac_for_direction(direction)),
            suite.mac_context(readers.mac),
        )
        fields = ()
        schema = self._field_schemas.get(context_id) if self.framing.field_macs else None
        if schema is not None:
            field_keys = self._field_keys.get(context_id)
            if not field_keys:
                raise McTLSRecordError(f"no field keys for context {context_id}")
            fields = tuple(
                (field_def, suite.mac_context(fk.mac_for_direction(direction)))
                for field_def, fk in zip(schema.fields, field_keys)
            )
        return ContextState(suite.new_cipher(readers.enc), macs, mac_len, fields)

    # -- the application contexts -----------------------------------------

    def _protect(
        self, ctx: ContextState, fr: RecordFraming, seq: int, content_type: int,
        context_id: int, payload,
    ) -> bytes:
        if context_id == ENDPOINT_CONTEXT_ID:
            return super()._protect(ctx, fr, seq, content_type, context_id, payload)
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        m = fr.mac_len
        endpoints, writers, readers = ctx.macs
        parts = [
            payload,
            endpoints.digest(prefix, payload)[:m],
            writers.digest(prefix, payload)[:m],
            readers.digest(prefix, payload)[:m],
        ]
        for index, (field_def, mac) in enumerate(ctx.fields):
            parts.append(mac.digest(prefix + bytes((index,)), field_def.slice(payload))[:m])
        return seal(ctx.cipher, b"".join(parts), McTLSRecordError)

    def _unprotect(
        self, ctx: ContextState, fr: RecordFraming, seq: int, content_type: int,
        context_id: int, fragment,
    ) -> UnprotectedRecord:
        if context_id == ENDPOINT_CONTEXT_ID:
            return super()._unprotect(ctx, fr, seq, content_type, context_id, fragment)
        plaintext = unseal(ctx.cipher, fragment, McTLSRecordError)
        m = fr.mac_len
        base = len(plaintext) - ctx.trailer
        if base < 0:
            raise McTLSRecordError("record shorter than its three MACs")
        payload = plaintext[:base]
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, base)
        endpoints, writers, _ = ctx.macs
        if not compare_digest(
            plaintext[base + m : base + 2 * m], writers.digest(prefix, payload)[:m]
        ):
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
        for index, (field_def, mac) in enumerate(ctx.fields):
            offset = base + (3 + index) * m
            expected = mac.digest(prefix + bytes((index,)), field_def.slice(payload))[:m]
            if not compare_digest(plaintext[offset : offset + m], expected):
                raise MacVerificationError(
                    f"field MAC verification failed on field "
                    f"{field_def.name!r} of context {context_id} "
                    "(unauthorized field modification)",
                    mac=f"field:{field_def.name}",
                    where="endpoint",
                    context_id=context_id,
                    seq=seq,
                )
        legally_modified = not compare_digest(
            plaintext[base : base + m], endpoints.digest(prefix, payload)[:m]
        )
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
    """Per-context record access for a middlebox.

    The middlebox holds keys only for contexts it can read; for writable
    contexts it can rebuild records (recomputing writer+reader MACs and
    forwarding the original endpoint MAC, §3.4 "Generating MACs").

    One processor instance handles one *direction* of the session; the
    middlebox keeps two (client→server and server→client).
    """

    def __init__(self, suite: CipherSuite, direction: str):
        self.suite = suite
        self.direction = direction
        self.permissions: Dict[int, Permission] = {}
        self.context_keys: Dict[int, mk.ContextKeys] = {}
        self.seq = 0
        self.active = False
        # context_id -> (cipher, writer_mac_ctx, reader_mac_ctx,
        # can_write, permission), built lazily once per installed key set
        # and reused per record; None caches "cannot open" (no
        # permission / no keys / endpoint context) so the per-record cost
        # of a pass-through context is a single dict lookup.
        self._open_state: Dict[int, Optional[tuple]] = {}
        # Negotiated wire framing for this (always post-CCS) direction,
        # field schemas, and MAC contexts for the granted fields only.
        self.framing: RecordFraming = MCTLS_DEFAULT
        self._field_schemas: Dict[int, FieldSchema] = {}
        self._field_keys: Dict[int, Dict[int, mk.FieldKeys]] = {}
        self._field_ctx: Dict[int, Dict[int, object]] = {}

    def install(self, context_id: int, permission: Permission, keys: Optional[mk.ContextKeys]) -> None:
        self.permissions[context_id] = permission
        if keys is not None:
            self.context_keys[context_id] = keys
        self._open_state.pop(context_id, None)

    def set_framing(self, framing: RecordFraming, schemas=()) -> None:
        """Adopt the session's negotiated framing and field schemas."""
        self.framing = framing
        self._field_schemas = {s.context_id: s for s in schemas}
        self._field_ctx.clear()

    def install_field_keys(self, context_id: int, keys: Dict[int, mk.FieldKeys]) -> None:
        """Install MAC keys for the fields this middlebox was granted.

        ``keys`` maps field index → :class:`~repro.mctls.keys.FieldKeys`;
        a middlebox only ever receives keys for fields it may write, so
        holding a key *is* the write grant.
        """
        self._field_keys.setdefault(context_id, {}).update(keys)
        self._field_ctx.pop(context_id, None)

    def _field_mac_contexts(self, context_id: int) -> Dict[int, object]:
        ctxs = self._field_ctx.get(context_id)
        if ctxs is None:
            ctxs = self._field_ctx[context_id] = {
                index: self.suite.mac_context(fk.mac_for_direction(self.direction))
                for index, fk in self._field_keys.get(context_id, {}).items()
            }
        return ctxs

    def activate(self) -> None:
        """Start counting sequence numbers (at the CCS boundary)."""
        self.active = True
        self.seq = 0

    def _build_open_state(self, context_id: int) -> Optional[tuple]:
        permission = self.permissions.get(context_id, Permission.NONE)
        if (
            context_id == ENDPOINT_CONTEXT_ID
            or not permission.can_read
            or context_id not in self.context_keys
        ):
            state = None
        else:
            keys = self.context_keys[context_id]
            reader_keys = keys.readers.for_direction(self.direction)
            state = (
                self.suite.new_cipher(reader_keys.enc),
                self.suite.mac_context(
                    keys.writers.mac_for_direction(self.direction)
                ),
                self.suite.mac_context(reader_keys.mac),
                permission.can_write,
                permission,
            )
        self._open_state[context_id] = state
        return state

    def open_record(self, content_type: int, context_id: int, fragment: bytes) -> OpenedRecord:
        """Open (or account for) one protected record flowing through.

        Every record consumes a sequence number whether or not the
        middlebox can read it — sequence numbers are global.
        """
        if not self.active:
            raise McTLSRecordError("record processor not yet activated")
        seq = self.seq
        self.seq += 1
        try:
            state = self._open_state[context_id]
        except KeyError:
            state = self._build_open_state(context_id)
        if state is None:
            return OpenedRecord(content_type, context_id, None, Permission.NONE, seq=seq)

        cipher, wr_mac, rd_mac, can_write, permission = state
        plaintext = unseal(cipher, fragment, McTLSRecordError)
        fr = self.framing
        m = fr.mac_len
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        n_fields = len(schema.fields) if schema is not None else 0
        base = len(plaintext) - (3 + n_fields) * m
        if base < 0:
            raise McTLSRecordError("record shorter than its three MACs")
        payload = plaintext[:base]
        endpoint_mac = plaintext[base : base + m]
        writer_mac = plaintext[base + m : base + 2 * m]
        reader_mac = plaintext[base + 2 * m : base + 3 * m]
        field_macs = (
            tuple(plaintext[base + (3 + j) * m : base + (4 + j) * m] for j in range(n_fields))
            if n_fields
            else ()
        )
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, base)

        if can_write:
            if not compare_digest(writer_mac, wr_mac.digest(prefix, payload)[:m]):
                raise MacVerificationError(
                    "writer MAC verification failed at middlebox (illegal modification)",
                    mac=MAC_WRITERS,
                    where="middlebox",
                    context_id=context_id,
                    seq=seq,
                )
        else:
            if not compare_digest(reader_mac, rd_mac.digest(prefix, payload)[:m]):
                raise MacVerificationError(
                    "reader MAC verification failed at middlebox "
                    "(third-party modification)",
                    mac=MAC_READERS,
                    where="middlebox",
                    context_id=context_id,
                    seq=seq,
                )
        return OpenedRecord(
            content_type,
            context_id,
            payload,
            permission,
            endpoint_mac,
            writer_mac,
            reader_mac,
            seq,
            field_macs,
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
            state = self._open_state[context_id]
        except KeyError:
            state = self._build_open_state(context_id)
        if state is None or not state[3]:
            raise McTLSRecordError(
                f"middlebox lacks write permission on context {context_id} "
                "(no write grant, or no keys for it)"
            )
        cipher, wr_mac, rd_mac = state[:3]
        fr = self.framing
        m = fr.mac_len
        prefix = fr.pack_mac_prefix(
            opened.seq, opened.content_type, context_id, len(new_payload)
        )
        parts = [
            new_payload,
            opened.endpoint_mac[:m],
            wr_mac.digest(prefix, new_payload)[:m],
            rd_mac.digest(prefix, new_payload)[:m],
        ]
        parts.extend(self._field_trailer(fr, prefix, context_id, new_payload, opened))
        fragment = seal(cipher, b"".join(parts), McTLSRecordError)
        length = len(fragment)
        if length > MAX_FRAGMENT:
            raise McTLSRecordError("record fragment too long")
        return fr.pack_header(opened.content_type, context_id, length) + fragment

    def _field_trailer(
        self,
        fr: RecordFraming,
        prefix: bytes,
        context_id: int,
        payload: bytes,
        opened: OpenedRecord,
    ) -> List[bytes]:
        """Field-MAC trailer slots for a rebuilt record.

        Fields this middlebox holds keys for are recomputed over the new
        payload; the rest forward ``opened.field_macs`` untouched — if the
        rewrite changed those bytes, the stale MAC is exactly the signal
        the receiving endpoint uses to detect the unauthorized field
        write.
        """
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        if schema is None:
            return []
        m = fr.mac_len
        ctxs = self._field_mac_contexts(context_id)
        parts = []
        for index, field_def in enumerate(schema.fields):
            ctx = ctxs.get(index)
            if ctx is not None:
                parts.append(
                    ctx.digest(prefix + bytes((index,)), field_def.slice(payload))[:m]
                )
            elif index < len(opened.field_macs):
                parts.append(opened.field_macs[index])
            else:
                parts.append(b"\x00" * m)
        return parts
