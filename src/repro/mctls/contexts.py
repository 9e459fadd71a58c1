"""Encryption contexts, middlebox descriptors and session topology.

An *encryption context* is a set of symmetric keys controlling who can
read and write the data sent in it (§3.3 of the paper).  The client
declares the contexts and each middlebox's permission for each context in
the ``MiddleboxListExtension`` of its ClientHello; the server sees the
full topology and consents (or not) by choosing which half-keys to
distribute.

Context ID 0 is reserved for the endpoint-only control context that
protects post-handshake handshake records (Finished, alerts); application
contexts are numbered 1..255.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Optional, Sequence

from repro.wire import DecodeError, Reader, Writer

ENDPOINT_CONTEXT_ID = 0
MAX_CONTEXTS = 255
MAX_MIDDLEBOXES = 254
ENDPOINT_TARGET = 0xFF  # "target" value addressing the opposite endpoint


class Permission(IntEnum):
    """A middlebox's access level for one context (§3.4)."""

    NONE = 0
    READ = 1
    WRITE = 2

    @property
    def can_read(self) -> bool:
        return self is not Permission.NONE

    @property
    def can_write(self) -> bool:
        return self is Permission.WRITE


@dataclass(frozen=True)
class MiddleboxInfo:
    """A middlebox entry in the session's middlebox list.

    ``mbox_id`` encodes path order (1 is nearest the client); ``name`` is
    the certified identity the endpoints authenticate; ``address`` is an
    opaque locator (the protocol never interprets it).
    """

    mbox_id: int
    name: str
    address: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.mbox_id <= MAX_MIDDLEBOXES:
            raise ValueError("middlebox id must be in 1..254")


@dataclass(frozen=True)
class ContextDefinition:
    """One encryption context: id, application-meaningful purpose, and the
    permission granted to each middlebox (missing entries mean NONE)."""

    context_id: int
    purpose: str
    permissions: Dict[int, Permission] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.context_id <= MAX_CONTEXTS:
            raise ValueError("context id must be in 1..255")

    def permission_for(self, mbox_id: int) -> Permission:
        return self.permissions.get(mbox_id, Permission.NONE)


@dataclass(frozen=True)
class SessionTopology:
    """The complete middlebox/context declaration for one session."""

    middleboxes: Sequence[MiddleboxInfo] = ()
    contexts: Sequence[ContextDefinition] = (
        ContextDefinition(context_id=1, purpose="default"),
    )

    def __post_init__(self) -> None:
        mbox_ids = [m.mbox_id for m in self.middleboxes]
        if len(set(mbox_ids)) != len(mbox_ids):
            raise ValueError("duplicate middlebox ids")
        ctx_ids = [c.context_id for c in self.contexts]
        if len(set(ctx_ids)) != len(ctx_ids):
            raise ValueError("duplicate context ids")
        if not self.contexts:
            raise ValueError("at least one context is required")
        known = set(mbox_ids)
        for ctx in self.contexts:
            unknown = set(ctx.permissions) - known
            if unknown:
                raise ValueError(f"permissions reference unknown middleboxes {unknown}")

    # -- lookups ---------------------------------------------------------

    @property
    def context_ids(self) -> List[int]:
        return [c.context_id for c in self.contexts]

    @property
    def middlebox_ids(self) -> List[int]:
        return [m.mbox_id for m in self.middleboxes]

    def context(self, context_id: int) -> ContextDefinition:
        for ctx in self.contexts:
            if ctx.context_id == context_id:
                return ctx
        raise KeyError(f"unknown context {context_id}")

    def middlebox(self, mbox_id: int) -> MiddleboxInfo:
        for mbox in self.middleboxes:
            if mbox.mbox_id == mbox_id:
                return mbox
        raise KeyError(f"unknown middlebox {mbox_id}")

    def middlebox_by_name(self, name: str) -> Optional[MiddleboxInfo]:
        for mbox in self.middleboxes:
            if mbox.name == name:
                return mbox
        return None

    def permissions_of(self, mbox_id: int) -> Dict[int, Permission]:
        """Map context id → permission for one middlebox."""
        return {c.context_id: c.permission_for(mbox_id) for c in self.contexts}

    def readable_contexts(self, mbox_id: int) -> List[int]:
        return [
            c.context_id
            for c in self.contexts
            if c.permission_for(mbox_id).can_read
        ]

    def writable_contexts(self, mbox_id: int) -> List[int]:
        return [
            c.context_id
            for c in self.contexts
            if c.permission_for(mbox_id).can_write
        ]

    # -- wire format -------------------------------------------------------

    def encode(self) -> bytes:
        """Encode as the body of the MiddleboxListExtension: the
        middleboxes, then per context its id, purpose and one permission
        byte per middlebox in list order."""
        mbox_ids = [m.mbox_id for m in self.middleboxes]
        w = Writer().u8(len(mbox_ids))
        for mbox in self.middleboxes:
            w.u8(mbox.mbox_id).string8(mbox.name).string8(mbox.address)
        w.u8(len(self.contexts))
        for ctx in self.contexts:
            w.u8(ctx.context_id).string8(ctx.purpose)
            w.raw(bytes([ctx.permission_for(mbox_id) for mbox_id in mbox_ids]))
        return w.bytes()

    @classmethod
    def decode(cls, data: bytes) -> "SessionTopology":
        r = Reader(data)
        middleboxes = tuple(
            MiddleboxInfo(mbox_id=r.u8(), name=r.string8(), address=r.string8())
            for _ in range(r.u8())
        )
        contexts = []
        for _ in range(r.u8()):
            ctx_id = r.u8()
            purpose = r.string8()
            # One read for the context's permission bytes; a bad value
            # is reported before a truncation after it, as byte by byte.
            values = r.raw(min(len(middleboxes), r.remaining))
            permissions = {}
            for mbox, value in zip(middleboxes, values):
                try:
                    permission = Permission(value)
                except ValueError:
                    raise DecodeError(f"invalid permission value {value}") from None
                if permission is not Permission.NONE:
                    permissions[mbox.mbox_id] = permission
            if len(values) < len(middleboxes):
                raise DecodeError("message truncated")
            contexts.append(
                ContextDefinition(
                    context_id=ctx_id, purpose=purpose, permissions=permissions
                )
            )
        r.expect_end()
        return cls(middleboxes=middleboxes, contexts=tuple(contexts))


@dataclass(frozen=True)
class FieldDef:
    """One named byte range of a record payload (a Madtls sub-context).

    ``start``/``end`` index the *payload* of every record in the parent
    context.  Ranges are clamped to the actual payload length so the
    field codec is total over variable-length records: a field entirely
    past the end covers zero bytes (its MAC still binds the absence).
    """

    name: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end <= 0xFFFF:
            raise ValueError("field range must satisfy 0 <= start <= end <= 65535")
        if not self.name or len(self.name) > 255:
            raise ValueError("field name must be 1..255 bytes")

    def slice(self, payload):
        """The bytes of this field within ``payload`` (clamped)."""
        if self.start >= len(payload):
            return b""
        return payload[self.start : min(self.end, len(payload))]


@dataclass(frozen=True)
class FieldSchema:
    """Per-field sub-contexts for one encryption context (Madtls-style).

    Each field of the parent context's records gets its own MAC key,
    derived from the session's endpoint secret — so the handshake is
    unchanged — and its own set of per-middlebox *write grants*:
    ``write_grants[name]`` lists the middlebox ids allowed to modify
    that field.  Record-level write permission still gates whether a
    middlebox may rebuild the record at all; the field MACs then pin
    *which bytes* it legitimately changed.  Field read access is the
    parent context's read permission (fields share the context's
    encryption key); only write authority is refined per field.
    """

    context_id: int
    fields: Sequence[FieldDef] = ()
    write_grants: Dict[str, Sequence[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.context_id <= MAX_CONTEXTS:
            raise ValueError("context id must be in 1..255")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names")
        if len(self.fields) > 255:
            raise ValueError("at most 255 fields per context")
        unknown = set(self.write_grants) - set(names)
        if unknown:
            raise ValueError(f"write grants reference unknown fields {unknown}")

    def field_index(self, name: str) -> int:
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise KeyError(f"unknown field {name!r}")

    def writable_fields(self, mbox_id: int) -> List[int]:
        """Field indexes ``mbox_id`` may modify."""
        return [
            i
            for i, f in enumerate(self.fields)
            if mbox_id in self.write_grants.get(f.name, ())
        ]

    # -- wire format ---------------------------------------------------

    def encode(self) -> bytes:
        w = Writer()
        w.u8(self.context_id)
        w.u8(len(self.fields))
        for f in self.fields:
            w.string8(f.name)
            w.u16(f.start)
            w.u16(f.end)
            grants = tuple(self.write_grants.get(f.name, ()))
            w.u8(len(grants))
            for mbox_id in grants:
                w.u8(mbox_id)
        return w.bytes()

    @classmethod
    def decode_from(cls, r: Reader) -> "FieldSchema":
        context_id = r.u8()
        n_fields = r.u8()
        fields = []
        write_grants = {}
        for _ in range(n_fields):
            name = r.string8()
            start = r.u16()
            end = r.u16()
            try:
                fields.append(FieldDef(name=name, start=start, end=end))
            except ValueError as exc:
                raise DecodeError(str(exc)) from None
            n_grants = r.u8()
            grants = tuple(r.u8() for _ in range(n_grants))
            if grants:
                write_grants[name] = grants
        try:
            return cls(
                context_id=context_id,
                fields=tuple(fields),
                write_grants=write_grants,
            )
        except ValueError as exc:
            raise DecodeError(str(exc)) from None

    @classmethod
    def decode(cls, data: bytes) -> "FieldSchema":
        r = Reader(data)
        schema = cls.decode_from(r)
        r.expect_end()
        return schema


def restrict_topology(
    topology: SessionTopology, grants: Dict[int, Dict[int, Permission]]
) -> SessionTopology:
    """Apply a server-side policy: ``grants[mbox_id][ctx_id]`` caps the
    client-proposed permission (missing entries keep the proposal).

    Used by servers that want to say "no" (e.g. the online-banking use
    case, §4.2): the returned topology drives which half-keys the server
    distributes, so an un-granted permission never materialises even if the
    client granted its own half.
    """
    contexts = []
    for ctx in topology.contexts:
        permissions = {}
        for mbox_id, permission in ctx.permissions.items():
            cap = grants.get(mbox_id, {}).get(ctx.context_id, permission)
            effective = min(permission, cap)
            if effective is not Permission.NONE:
                permissions[mbox_id] = Permission(effective)
        contexts.append(
            ContextDefinition(
                context_id=ctx.context_id,
                purpose=ctx.purpose,
                permissions=permissions,
            )
        )
    return SessionTopology(middleboxes=topology.middleboxes, contexts=tuple(contexts))
