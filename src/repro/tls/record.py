"""The record engine: TLS 1.2's record protocol (RFC 5246 §6), and the
endpoint-context path of mcTLS's (§3.4).

A record is ``header || fragment`` in a :class:`~repro.framing.RecordFraming`
— ``type(1) || version(2) || length(2)`` for TLS.  Once a direction is
protected, fragments are MAC-then-encrypt: every MAC covers the framing's
prefix ``seq(8) || type(1) || version(2) || length(2)`` (mcTLS adds the
context id) plus the payload, and the MAC trailer is encrypted with it.

:class:`RecordLayer` is the one engine for both protocols.  Per direction
(:class:`DirectionState`) it keeps the sequence number, whether the
ChangeCipherSpec armed it, and each context's protection state
(:class:`ContextState`), built once per key install.  TLS is the engine
with one context (0), one MAC slot and the ``tls-default`` framing;
:class:`repro.mctls.record.McTLSRecordLayer` adds the three-MAC
application contexts, field MACs and the negotiated-framing switch.
What differs between the two is class data: the framing before the
ChangeCipherSpec, the error class, what a read returns and what an
endpoint-MAC failure raises.

:func:`parse_record` is the one header parse and bounds check (record
layers, middleboxes, :mod:`repro.trace`); :func:`seal` / :func:`unseal`
are the one place a cipher failure becomes a record error.  Receive
buffers are consumed by cursor (:class:`repro.recbuf.RecordBuffer`) with
one copy per record, and MAC key schedules are computed once per key.
Wire bytes are pinned by the golden-vector tests.
"""

from __future__ import annotations

from functools import partial
from hmac import compare_digest
from struct import Struct
from typing import Dict, Iterator, Optional, Tuple

# The content types and size limits are re-exported: this module is
# where the stacks import them from.
from repro.framing import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    CONTENT_TYPES,
    HANDSHAKE,
    MAX_FRAGMENT,
    MAX_PLAINTEXT,
    TLS_DEFAULT,
    TLS_VERSION,
    FramingError,
    RecordFraming,
)
from repro.recbuf import RecordBuffer
from repro.tls.ciphersuites import BulkCipher, CipherError, CipherSuite


class RecordError(Exception):
    """Raised on malformed records or failed record protection.

    Keyword arguments become attributes that attribute a detection —
    ``where`` (``"endpoint"`` / ``"middlebox"``), ``mac`` (which MAC
    slot), ``context_id``, ``seq`` — and read ``None`` when unset; the
    layer that catches an error fills in ``where`` if it is missing.
    """

    where: Optional[str] = None
    mac: Optional[str] = None
    context_id: Optional[int] = None
    seq: Optional[int] = None

    def __init__(self, message: str, **attribution) -> None:
        super().__init__(message)
        vars(self).update(attribution)


def seal(cipher: BulkCipher, plaintext, error=RecordError) -> bytes:
    """Encrypt a fragment; a cipher failure raises ``error``."""
    try:
        return cipher.encrypt(plaintext)
    except CipherError as exc:
        raise error(f"record encryption failed: {exc}") from exc


def unseal(cipher: BulkCipher, fragment, error=RecordError) -> bytes:
    """Decrypt a fragment; a cipher failure raises ``error``."""
    try:
        return cipher.decrypt(fragment)
    except CipherError as exc:
        raise error(f"record decryption failed: {exc}") from exc


def parse_record(
    buf, pos: int, framing: RecordFraming, error=RecordError
) -> Optional[Tuple[int, int, memoryview, bytes]]:
    """Parse the record starting at ``buf[pos]`` without consuming it.

    Returns ``(content_type, context_id, fragment, raw)`` — ``raw`` an
    immutable copy of the whole record (safe to retain or forward),
    ``fragment`` a zero-copy ``memoryview`` into it — or ``None`` while
    the record is incomplete; the caller advances by ``len(raw)``.
    Malformed headers and oversized fragments raise ``error``.  A caller
    whose framing changes between records (at the ChangeCipherSpec of a
    negotiated framing) re-selects ``framing`` per call.
    """
    header_len = framing.header_len
    if len(buf) - pos < header_len:
        return None
    try:
        content_type, context_id, length = framing.parse_header(buf, pos)
    except FramingError as exc:
        raise error(str(exc)) from None
    if length > MAX_FRAGMENT:
        raise error("record fragment too long")
    end = pos + header_len + length
    if len(buf) < end:
        return None
    # A memoryview slice copies once (a bytearray slice would copy twice).
    raw = bytes(memoryview(buf)[pos:end])
    return content_type, context_id, memoryview(raw)[header_len:], raw


class ContextState:
    """One context's protection in one direction, built once per key
    install and reused for every record.

    ``macs`` are the MAC contexts of the record MAC slots — ``(endpoints,)``
    or ``(endpoints, writers, readers)`` — and ``fields`` the
    ``(FieldDef, MAC context)`` pairs of a field-MAC framing, ``None``
    for a slot whose key the party does not hold (a middlebox); ``trailer``
    is the bytes they take, ``layout`` the ``Struct`` that cuts them into
    one ``bytes`` per slot, ``limit`` the largest payload whose protected
    fragment fits ``MAX_FRAGMENT``.
    """

    __slots__ = ("cipher", "macs", "fields", "trailer", "layout", "limit")

    def __init__(self, cipher: BulkCipher, macs: tuple, mac_len: int, fields: tuple = ()):
        self.cipher = cipher
        self.macs = macs
        self.fields = fields
        n_slots = len(macs) + len(fields)
        self.trailer = trailer = n_slots * mac_len
        self.layout = Struct(f"{mac_len}s" * n_slots)
        limit = MAX_PLAINTEXT
        # At most a few dozen steps: only a 255-field compact trailer
        # (2 064 B) pushes a full MAX_PLAINTEXT record over the bound.
        while cipher.ciphertext_length(limit + trailer) > MAX_FRAGMENT:
            limit -= 1
        self.limit = limit


class DirectionState:
    """One direction of one connection end: its sequence number, whether
    the ChangeCipherSpec armed it, and its contexts' protection states."""

    def __init__(self) -> None:
        self.seq = 0
        self.protected = False
        self.contexts: Dict[int, ContextState] = {}

    def arm(self) -> None:
        """Protect every record from here on, numbering them from 0."""
        self.seq = 0
        self.protected = True

    def activate(self, suite: CipherSuite, cipher: BulkCipher, mac_key: bytes) -> None:
        """TLS's ChangeCipherSpec: key the one context, then arm."""
        macs = (suite.mac_context(mac_key),)
        self.contexts = {0: ContextState(cipher, macs, TLS_DEFAULT.mac_len)}
        self.arm()


class RecordLayer:
    """Sans-I/O record framing and protection for one connection end.

    ``encode()`` frames, fragments and protects outgoing payloads;
    ``feed()`` + ``read_record()`` de-frame and unprotect incoming bytes.
    """

    # Records before the ChangeCipherSpec, and the ChangeCipherSpec
    # itself, use ``plain_framing``; protected records use ``framing``.
    plain_framing: RecordFraming = TLS_DEFAULT
    error = RecordError
    # What an endpoint-context MAC failure raises (called with ``seq=``).
    _endpoint_mac_error = partial(RecordError, "record MAC verification failed")

    def __init__(self) -> None:
        self.read_state = DirectionState()
        self.write_state = DirectionState()
        self.framing = self.plain_framing
        self._inbuf = RecordBuffer()

    @staticmethod
    def _record(content_type: int, context_id: int, payload: bytes):
        """What a read returns: ``(content_type, plaintext)``."""
        return content_type, payload

    def _context(self, state: DirectionState, context_id: int) -> ContextState:
        ctx = state.contexts.get(context_id)
        if ctx is None:
            ctx = state.contexts[context_id] = self._build_context(state, context_id)
        return ctx

    def _build_context(self, state: DirectionState, context_id: int) -> ContextState:
        # TLS keys its one context in DirectionState.activate.
        raise self.error(f"no keys for context {context_id}")

    # -- outgoing ------------------------------------------------------

    def encode(self, content_type: int, payload, context_id: int = 0) -> bytes:
        """Frame (and fragment / protect) an outgoing payload."""
        if content_type not in CONTENT_TYPES:
            raise self.error(f"invalid content type {content_type}")
        state = self.write_state
        if content_type == CHANGE_CIPHER_SPEC or not state.protected:
            ctx = None
            limit = MAX_PLAINTEXT
        else:
            ctx = self._context(state, context_id)
            limit = ctx.limit
        if len(payload) <= limit:
            return self._encode_one(content_type, context_id, payload, ctx)
        view = memoryview(payload)
        return b"".join(
            [
                self._encode_one(content_type, context_id, view[offset : offset + limit], ctx)
                for offset in range(0, len(payload), limit)
            ]
        )

    def _encode_one(
        self, content_type: int, context_id: int, payload, ctx: Optional[ContextState]
    ) -> bytes:
        if ctx is None:
            fr = self.plain_framing
            fragment = payload if type(payload) is bytes else bytes(payload)
        else:
            fr = self.framing
            state = self.write_state
            seq = state.seq
            state.seq = seq + 1
            fragment = self._protect(ctx, fr, seq, content_type, context_id, payload)
        length = len(fragment)
        if length > MAX_FRAGMENT:
            raise self.error("record fragment too long")
        return fr.pack_header(content_type, context_id, length) + fragment

    def _protect(
        self, ctx: ContextState, fr: RecordFraming, seq: int, content_type: int,
        context_id: int, payload,
    ) -> bytes:
        """The endpoint context: ``payload || MAC`` under one key."""
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        mac = ctx.macs[0].digest(prefix, payload)[: fr.mac_len]
        return seal(ctx.cipher, b"".join((payload, mac)), self.error)

    # -- incoming ------------------------------------------------------

    def feed(self, data: bytes) -> None:
        self._inbuf.append(data)

    def read_record(self):
        """The next record, or ``None`` until one is complete."""
        buf = self._inbuf
        state = self.read_state
        # Re-selected per record: one buffer can hold a plain-framed
        # ChangeCipherSpec followed by records in the negotiated framing,
        # and the consumer arms the read direction between the two.
        fr = self.framing if state.protected else self.plain_framing
        record = parse_record(buf.data, buf.pos, fr, self.error)
        if record is None:
            return None
        content_type, context_id, fragment, raw = record
        buf.consume(len(raw))
        if content_type == CHANGE_CIPHER_SPEC or not state.protected:
            return self._record(content_type, context_id, bytes(fragment))
        ctx = self._context(state, context_id)
        seq = state.seq
        state.seq = seq + 1
        return self._unprotect(ctx, fr, seq, content_type, context_id, fragment)

    def read_all(self) -> Iterator:
        while True:
            record = self.read_record()
            if record is None:
                return
            yield record

    def _unprotect(
        self, ctx: ContextState, fr: RecordFraming, seq: int, content_type: int,
        context_id: int, fragment,
    ):
        """The endpoint context: open ``payload || MAC`` under one key."""
        plaintext = unseal(ctx.cipher, fragment, self.error)
        m = fr.mac_len
        if len(plaintext) < m:
            raise self.error("record shorter than its MAC")
        payload = plaintext[:-m]
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        if not compare_digest(plaintext[-m:], ctx.macs[0].digest(prefix, payload)[:m]):
            raise self._endpoint_mac_error(seq=seq)
        return self._record(content_type, context_id, payload)
