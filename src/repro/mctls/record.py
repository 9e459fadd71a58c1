"""The mcTLS record protocol (§3.4).

An mcTLS record is a TLS record with a one-byte context ID in the header::

    type(1) || version(2) || context_id(1) || length(2) || fragment

Context 0 is the endpoint control context: after ChangeCipherSpec its
records (Finished, alerts) are protected with ``K_endpoints`` and a single
MAC, exactly like TLS.  Application contexts (1..255) use the
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

Data-plane fast path
--------------------

Records are opened, checked and re-MACed one at a time, on one path
per role (:meth:`McTLSRecordLayer.read_record` at an endpoint,
:meth:`MiddleboxRecordProcessor.open_record` / ``rebuild_record`` at a
middlebox).  Per (context, direction) the layer builds its protection
state **once** — one keyed cipher plus one precomputed HMAC context per
MAC slot (the suite provider's cached HMAC contexts) — instead of
re-keying per record; :func:`split_records` and the endpoint receive
path consume their buffers by cursor with a single batched reclamation,
and fragments yielded to middleboxes are ``memoryview``s over the
(immutable, safely retainable) ``raw`` record bytes.  Wire bytes are
pinned bit-for-bit by the golden-vector tests.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import framing as frm
from repro.crypto.hmaccache import hmac_sha256
from repro.framing import MCTLS_COMPACT, MCTLS_DEFAULT, FramingError, RecordFraming
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, FieldSchema, Permission
from repro.recbuf import RecordBuffer
from repro.tls.ciphersuites import CipherError, CipherSuite
from repro.tls.record import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    CONTENT_TYPES,
    HANDSHAKE,
    MAX_PLAINTEXT,
    TLS_VERSION,
)

# The default mcTLS wire geometry lives in repro.framing; these module
# constants are aliases kept for the (large) existing import surface.
MCTLS_HEADER_LEN = MCTLS_DEFAULT.header_len
MCTLS_VERSION = frm.MCTLS_VERSION
MAC_LEN = MCTLS_DEFAULT.mac_len
MAX_FRAGMENT = frm.MAX_FRAGMENT

# type(1) || version(2) || context_id(1) || length(2)
_WIRE_HEADER = MCTLS_DEFAULT.header
# seq(8) || type(1) || version(2) || context_id(1) || payload_length(2)
_MAC_PREFIX = MCTLS_DEFAULT.mac_prefix_struct

_compare_digest = _hmac.compare_digest


class McTLSRecordError(Exception):
    """Raised on malformed records or failed MAC verification.

    ``where`` reports which kind of party rejected the record
    (``"endpoint"`` / ``"middlebox"``) once known; framing errors raised
    by :func:`split_records` leave it ``None`` and the catching layer
    fills it in.  The fault-injection harness (:mod:`repro.faults`) uses
    this to attribute every detection to the right party.
    """

    where: Optional[str] = None
    mac: Optional[str] = None
    context_id: Optional[int] = None
    seq: Optional[int] = None


# The three MAC slots of the endpoint-writer-reader scheme (§3.4).
MAC_ENDPOINTS = "endpoints"
MAC_WRITERS = "writers"
MAC_READERS = "readers"


class MacVerificationError(McTLSRecordError):
    """A record MAC check failed — the §3.4 detection outcome.

    Carries *which* MAC caught the tampering (``MAC_ENDPOINTS`` /
    ``MAC_WRITERS`` / ``MAC_READERS``) and *where* (``"endpoint"`` or
    ``"middlebox"``), so tests can assert not just that tampering was
    detected but that the paper's Table 1 attributes the detection to the
    right key.
    """

    def __init__(
        self,
        message: str,
        *,
        mac: str,
        where: str,
        context_id: Optional[int] = None,
        seq: Optional[int] = None,
    ):
        super().__init__(message)
        self.mac = mac
        self.where = where
        self.context_id = context_id
        self.seq = seq


def mac_input(seq: int, content_type: int, context_id: int, payload: bytes) -> bytes:
    """The bytes every mcTLS record MAC covers."""
    return (
        _MAC_PREFIX.pack(seq, content_type, MCTLS_VERSION, context_id, len(payload))
        + payload
    )


def encode_header(content_type: int, context_id: int, fragment_len: int) -> bytes:
    return _WIRE_HEADER.pack(content_type, MCTLS_VERSION, context_id, fragment_len)


def parse_record(
    buf, pos: int, framing: RecordFraming
) -> Optional[Tuple[int, int, bytes, bytes]]:
    """Parse the record starting at ``buf[pos]`` without consuming it.

    Returns ``(content_type, context_id, fragment, raw)`` — ``raw`` an
    immutable ``bytes`` copy of the whole record (safe to retain or
    forward), ``fragment`` a zero-copy ``memoryview`` into it — or
    ``None`` when no complete record is buffered there yet.  The caller
    advances by ``len(raw)``.  This is the one header-parse and
    bounds-check site for parties that forward records: a caller whose
    framing can change *between* records (the ChangeCipherSpec boundary
    of a negotiated framing) re-selects ``framing`` per call.
    """
    header_len = framing.header_len
    if len(buf) - pos < header_len:
        return None
    try:
        content_type, context_id, length = framing.parse_header(buf, pos)
    except FramingError as exc:
        raise McTLSRecordError(str(exc)) from None
    if length > MAX_FRAGMENT:
        raise McTLSRecordError("record fragment too long")
    end = pos + header_len + length
    if len(buf) < end:
        return None
    raw = bytes(buf[pos:end])
    return content_type, context_id, memoryview(raw)[header_len:], raw


def split_records(
    buf: bytearray, framing: Optional[RecordFraming] = None
) -> Iterator[Tuple[int, int, bytes, bytes]]:
    """Consume complete records from ``buf``.

    Yields :func:`parse_record` tuples and deletes consumed bytes —
    used by middleboxes, which forward records they cannot (or need
    not) open verbatim.  Consumed bytes are reclaimed from ``buf`` in
    one batched deletion when iteration stops (exhaustion, ``break``,
    or an error on a later record).  ``framing`` selects the wire
    geometry (default mcTLS framing when omitted).
    """
    fr = framing if framing is not None else MCTLS_DEFAULT
    pos = 0
    try:
        while True:
            record = parse_record(buf, pos, fr)
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


class McTLSRecordLayer:
    """Record framing + protection for an mcTLS *endpoint*.

    Unprotected until :meth:`activate_write` / :meth:`activate_read` are
    called at the ChangeCipherSpec boundary.  The write direction for a
    client is ``c2s``; for a server ``s2c``.
    """

    def __init__(self, is_client: bool):
        self.is_client = is_client
        self.suite: Optional[CipherSuite] = None
        self.endpoint_keys: Optional[mk.EndpointKeys] = None
        self.context_keys: Dict[int, mk.ContextKeys] = {}
        self._write_protected = False
        self._read_protected = False
        self._write_seq = 0
        self._read_seq = 0
        self._inbuf = RecordBuffer()
        # Lazily-built per-direction protection state: context_id ->
        # (cipher, endpoint_mac_ctx, writer_mac_ctx, reader_mac_ctx) and
        # (cipher, mac_ctx) for the endpoint control context.  Built once
        # per key install, reused for every record.
        self._write_ctx_state: Dict[int, tuple] = {}
        self._read_ctx_state: Dict[int, tuple] = {}
        self._write_ep_state: Optional[tuple] = None
        self._read_ep_state: Optional[tuple] = None
        # Negotiated wire framing (applies to protected records only; the
        # handshake and ChangeCipherSpec always use the default framing)
        # plus per-context field schemas and field MAC keys/contexts.
        self._framing: RecordFraming = MCTLS_DEFAULT
        self._field_schemas: Dict[int, FieldSchema] = {}
        self._field_keys: Dict[int, tuple] = {}
        self._field_write_ctx: Dict[int, tuple] = {}
        self._field_read_ctx: Dict[int, tuple] = {}

    # -- direction helpers ----------------------------------------------

    @property
    def _write_dir(self) -> str:
        return mk.C2S if self.is_client else mk.S2C

    @property
    def _read_dir(self) -> str:
        return mk.S2C if self.is_client else mk.C2S

    # -- activation -------------------------------------------------------

    def set_suite(self, suite: CipherSuite) -> None:
        self.suite = suite
        self._drop_cached_state()

    def set_endpoint_keys(self, keys: mk.EndpointKeys) -> None:
        self.endpoint_keys = keys
        # The endpoint MAC key feeds the MAC_endpoints slot of *every*
        # context, so all cached state is stale, not just context 0.
        self._drop_cached_state()

    def install_context_keys(self, context_id: int, keys: mk.ContextKeys) -> None:
        self.context_keys[context_id] = keys
        self._write_ctx_state.pop(context_id, None)
        self._read_ctx_state.pop(context_id, None)

    def _drop_cached_state(self) -> None:
        self._write_ctx_state.clear()
        self._read_ctx_state.clear()
        self._write_ep_state = None
        self._read_ep_state = None
        self._field_write_ctx.clear()
        self._field_read_ctx.clear()

    # -- framing ----------------------------------------------------------

    @property
    def framing(self) -> RecordFraming:
        return self._framing

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
        self._framing = framing
        self._field_schemas = {s.context_id: s for s in schemas}
        self._field_keys = dict(field_keys or {})
        self._field_write_ctx.clear()
        self._field_read_ctx.clear()

    def activate_write(self) -> None:
        if self.endpoint_keys is None or self.suite is None:
            raise McTLSRecordError("cannot activate protection before keys exist")
        self._write_protected = True
        self._write_seq = 0

    def activate_read(self) -> None:
        if self.endpoint_keys is None or self.suite is None:
            raise McTLSRecordError("cannot activate protection before keys exist")
        self._read_protected = True
        self._read_seq = 0

    # -- cached protection state ------------------------------------------

    def _endpoint_state(self, write: bool) -> tuple:
        state = self._write_ep_state if write else self._read_ep_state
        if state is None:
            direction = self._write_dir if write else self._read_dir
            keys = self.endpoint_keys.for_direction(direction)
            state = (self.suite.new_cipher(keys.enc), self.suite.mac_context(keys.mac))
            if write:
                self._write_ep_state = state
            else:
                self._read_ep_state = state
        return state

    def _context_state(self, context_id: int, write: bool) -> tuple:
        cache = self._write_ctx_state if write else self._read_ctx_state
        state = cache.get(context_id)
        if state is None:
            try:
                keys = self.context_keys[context_id]
            except KeyError:
                raise McTLSRecordError(f"no keys for context {context_id}") from None
            direction = self._write_dir if write else self._read_dir
            reader_keys = keys.readers.for_direction(direction)
            state = cache[context_id] = (
                self.suite.new_cipher(reader_keys.enc),
                self.suite.mac_context(
                    self.endpoint_keys.for_direction(direction).mac
                ),
                self.suite.mac_context(keys.writers.mac_for_direction(direction)),
                self.suite.mac_context(reader_keys.mac),
            )
        return state

    # -- encoding ---------------------------------------------------------

    def encode(self, content_type: int, payload: bytes, context_id: int = 0) -> bytes:
        """Frame (and fragment / protect) an outgoing payload."""
        if len(payload) <= MAX_PLAINTEXT:
            return self._encode_one(content_type, context_id, payload)
        view = memoryview(payload)
        out = bytearray()
        for offset in range(0, len(payload), MAX_PLAINTEXT):
            out += self._encode_one(
                content_type, context_id, view[offset : offset + MAX_PLAINTEXT]
            )
        return bytes(out)

    def _encode_one(self, content_type: int, context_id: int, payload) -> bytes:
        if content_type == CHANGE_CIPHER_SPEC or not self._write_protected:
            fragment = payload if type(payload) is bytes else bytes(payload)
            fr = MCTLS_DEFAULT
        elif context_id == ENDPOINT_CONTEXT_ID:
            fr = self._framing
            fragment = self._protect_endpoint(fr, content_type, payload)
        else:
            fr = self._framing
            fragment = self._protect_context(fr, content_type, context_id, payload)
        return fr.pack_header(content_type, context_id, len(fragment)) + fragment

    def _protect_endpoint(self, fr: RecordFraming, content_type: int, payload) -> bytes:
        cipher, mac_ctx = self._endpoint_state(write=True)
        seq = self._write_seq
        self._write_seq = seq + 1
        prefix = fr.pack_mac_prefix(seq, content_type, ENDPOINT_CONTEXT_ID, len(payload))
        mac = mac_ctx.digest(prefix, payload)[: fr.mac_len]
        return cipher.encrypt(b"".join((payload, mac)))

    def _protect_context(
        self, fr: RecordFraming, content_type: int, context_id: int, payload
    ) -> bytes:
        cipher, ep_mac, wr_mac, rd_mac = self._context_state(context_id, write=True)
        seq = self._write_seq
        self._write_seq = seq + 1
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        m = fr.mac_len
        parts = [
            payload,
            ep_mac.digest(prefix, payload)[:m],
            wr_mac.digest(prefix, payload)[:m],
            rd_mac.digest(prefix, payload)[:m],
        ]
        if fr.field_macs:
            schema = self._field_schemas.get(context_id)
            if schema is not None:
                ctxs = self._field_mac_contexts(context_id, write=True)
                parts.extend(
                    ctx.digest(prefix + bytes((index,)), field_def.slice(payload))[:m]
                    for index, (field_def, ctx) in enumerate(zip(schema.fields, ctxs))
                )
        return cipher.encrypt(b"".join(parts))

    def _field_mac_contexts(self, context_id: int, write: bool) -> tuple:
        """Cached per-field MAC contexts for one direction of a context."""
        cache = self._field_write_ctx if write else self._field_read_ctx
        ctxs = cache.get(context_id)
        if ctxs is None:
            keys = self._field_keys.get(context_id)
            if not keys:
                raise McTLSRecordError(f"no field keys for context {context_id}")
            direction = self._write_dir if write else self._read_dir
            ctxs = cache[context_id] = tuple(
                self.suite.mac_context(fk.mac_for_direction(direction)) for fk in keys
            )
        return ctxs

    # -- decoding ---------------------------------------------------------

    def feed(self, data: bytes) -> None:
        self._inbuf.append(data)

    def read_record(self) -> Optional[UnprotectedRecord]:
        buf = self._inbuf
        # Re-selected per record: a buffer can hold a (default-framed)
        # ChangeCipherSpec followed by records in the negotiated framing,
        # and the consumer activates read protection between the two.
        fr = self._framing if self._read_protected else MCTLS_DEFAULT
        header_len = fr.header_len
        if len(buf) < header_len:
            return None
        try:
            content_type, context_id, length = fr.parse_header(buf.data, buf.pos)
        except FramingError as exc:
            raise McTLSRecordError(str(exc)) from None
        if length > MAX_FRAGMENT:
            raise McTLSRecordError("record fragment too long")
        if len(buf) < header_len + length:
            return None
        buf.consume(header_len)
        fragment = buf.take(length)
        return self._unprotect(content_type, context_id, fragment)

    def read_all(self) -> Iterator[UnprotectedRecord]:
        while True:
            record = self.read_record()
            if record is None:
                return
            yield record

    def _unprotect(
        self, content_type: int, context_id: int, fragment: bytes
    ) -> UnprotectedRecord:
        if content_type == CHANGE_CIPHER_SPEC or not self._read_protected:
            return UnprotectedRecord(content_type, context_id, fragment)
        if context_id == ENDPOINT_CONTEXT_ID:
            return self._unprotect_endpoint(content_type, fragment)
        return self._unprotect_context(content_type, context_id, fragment)

    def _unprotect_endpoint(self, content_type: int, fragment: bytes) -> UnprotectedRecord:
        cipher, mac_ctx = self._endpoint_state(write=False)
        try:
            plaintext = cipher.decrypt(fragment)
        except CipherError as exc:
            raise McTLSRecordError(f"decryption failed: {exc}") from exc
        fr = self._framing
        m = fr.mac_len
        if len(plaintext) < m:
            raise McTLSRecordError("record shorter than its MAC")
        payload, mac = plaintext[:-m], plaintext[-m:]
        seq = self._next_read_seq()
        prefix = fr.pack_mac_prefix(
            seq, content_type, ENDPOINT_CONTEXT_ID, len(payload)
        )
        if not _compare_digest(mac, mac_ctx.digest(prefix, payload)[:m]):
            raise MacVerificationError(
                "endpoint MAC verification failed",
                mac=MAC_ENDPOINTS,
                where="endpoint",
                context_id=ENDPOINT_CONTEXT_ID,
                seq=seq,
            )
        return UnprotectedRecord(content_type, ENDPOINT_CONTEXT_ID, payload)

    def _unprotect_context(
        self, content_type: int, context_id: int, fragment: bytes
    ) -> UnprotectedRecord:
        cipher, ep_mac, wr_mac, _ = self._context_state(context_id, write=False)
        try:
            plaintext = cipher.decrypt(fragment)
        except CipherError as exc:
            raise McTLSRecordError(f"decryption failed: {exc}") from exc
        fr = self._framing
        m = fr.mac_len
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        n_fields = len(schema.fields) if schema is not None else 0
        trailer = (3 + n_fields) * m
        if len(plaintext) < trailer:
            raise McTLSRecordError("record shorter than its three MACs")
        base = len(plaintext) - trailer
        payload = plaintext[:base]
        endpoint_mac = plaintext[base : base + m]
        writer_mac = plaintext[base + m : base + 2 * m]
        seq = self._next_read_seq()
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        if not _compare_digest(writer_mac, wr_mac.digest(prefix, payload)[:m]):
            raise MacVerificationError(
                f"writer MAC verification failed on context {context_id} "
                "(illegal modification)",
                mac=MAC_WRITERS,
                where="endpoint",
                context_id=context_id,
                seq=seq,
            )
        if n_fields:
            # Per-field sub-contexts: each field MAC must verify under its
            # own key.  A record-level writer that modified a field it was
            # not granted passes the writer MAC (it holds K_writers) but
            # cannot refresh that field's MAC — detected and attributed
            # here, to the field.
            ctxs = self._field_mac_contexts(context_id, write=False)
            for index, (field_def, fctx) in enumerate(zip(schema.fields, ctxs)):
                offset = base + (3 + index) * m
                field_mac = plaintext[offset : offset + m]
                expected = fctx.digest(
                    prefix + bytes((index,)), field_def.slice(payload)
                )[:m]
                if not _compare_digest(field_mac, expected):
                    raise MacVerificationError(
                        f"field MAC verification failed on field "
                        f"{field_def.name!r} of context {context_id} "
                        "(unauthorized field modification)",
                        mac=f"field:{field_def.name}",
                        where="endpoint",
                        context_id=context_id,
                        seq=seq,
                    )
        legally_modified = not _compare_digest(
            endpoint_mac, ep_mac.digest(prefix, payload)[:m]
        )
        return UnprotectedRecord(
            content_type, context_id, payload, legally_modified=legally_modified
        )

    def _next_read_seq(self) -> int:
        seq = self._read_seq
        self._read_seq += 1
        return seq


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
        try:
            plaintext = cipher.decrypt(fragment)
        except CipherError as exc:
            raise McTLSRecordError(f"middlebox decryption failed: {exc}") from exc
        fr = self.framing
        m = fr.mac_len
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        n_fields = len(schema.fields) if schema is not None else 0
        trailer = (3 + n_fields) * m
        if len(plaintext) < trailer:
            raise McTLSRecordError("record shorter than its three MACs")
        base = len(plaintext) - trailer
        payload = plaintext[:base]
        endpoint_mac = plaintext[base : base + m]
        writer_mac = plaintext[base + m : base + 2 * m]
        reader_mac = plaintext[base + 2 * m : base + 3 * m]
        field_macs = tuple(
            plaintext[base + (3 + j) * m : base + (4 + j) * m]
            for j in range(n_fields)
        )
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))

        if can_write:
            if not _compare_digest(writer_mac, wr_mac.digest(prefix, payload)[:m]):
                raise MacVerificationError(
                    "writer MAC verification failed at middlebox (illegal modification)",
                    mac=MAC_WRITERS,
                    where="middlebox",
                    context_id=context_id,
                    seq=seq,
                )
        else:
            if not _compare_digest(reader_mac, rd_mac.digest(prefix, payload)[:m]):
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
        fr = self.framing
        m = fr.mac_len
        cipher, wr_mac, rd_mac = self._rebuild_state(opened.context_id)
        prefix = fr.pack_mac_prefix(
            opened.seq, opened.content_type, opened.context_id, len(new_payload)
        )
        writer_mac = wr_mac.digest(prefix, new_payload)[:m]
        reader_mac = rd_mac.digest(prefix, new_payload)[:m]
        parts = [
            new_payload,
            opened.endpoint_mac[:m],
            writer_mac,
            reader_mac,
        ]
        parts.extend(
            self._field_trailer(fr, prefix, opened.context_id, new_payload, opened)
        )
        fragment = cipher.encrypt(b"".join(parts))
        return (
            fr.pack_header(opened.content_type, opened.context_id, len(fragment))
            + fragment
        )

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

    def _rebuild_state(self, context_id: int) -> tuple:
        """(cipher, writer_mac_ctx, reader_mac_ctx) for re-protecting."""
        try:
            state = self._open_state[context_id]
        except KeyError:
            state = self._build_open_state(context_id)
        if state is None or not state[3]:
            # Cold path: reproduce the pre-cache failure modes exactly.
            permission = self.permissions.get(context_id, Permission.NONE)
            if not permission.can_write:
                raise McTLSRecordError(
                    f"middlebox lacks write permission on context {context_id}"
                )
            # Write permission without cached state means the key lookup
            # must fail (or the context is one the cache refuses to open);
            # build directly from the key material as the old code did.
            keys = self.context_keys[context_id]
            reader_keys = keys.readers.for_direction(self.direction)
            state = (
                self.suite.new_cipher(reader_keys.enc),
                self.suite.mac_context(
                    keys.writers.mac_for_direction(self.direction)
                ),
                self.suite.mac_context(reader_keys.mac),
                True,
                permission,
            )
        return state[0], state[1], state[2]
