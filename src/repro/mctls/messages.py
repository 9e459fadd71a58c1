"""mcTLS-specific handshake messages.

These extend the TLS message set (they use private-range handshake type
numbers and flow inside ordinary handshake records):

* ``MiddleboxHello`` — a middlebox's random value;
* ``MiddleboxCertificateMessage`` — its certificate chain;
* ``MiddleboxKeyExchange`` — a signed ephemeral DH public key, one
  towards each endpoint (two separate key pairs prevent small-subgroup
  attacks, §3.5 step 3);
* ``MiddleboxKeyMaterial`` — (partial) context keys AuthEnc'd under the
  pairwise endpoint↔middlebox key, or under ``K_endpoints`` when
  addressed to the opposite endpoint.

A middlebox's hello/certificate/key-exchange flight is propagated to
*both* endpoints so both can authenticate every middlebox and include the
same messages in their transcript hashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto.certs import Certificate
from repro.mctls.contexts import FieldSchema
from repro.mctls.keys import MAC_BLOCK_LEN
from repro.tls import messages as tls_msgs
from repro.wire import DecodeError, Reader, Writer

# Senders / targets for key material.
SENDER_CLIENT = 1
SENDER_SERVER = 2

# Direction tags for middlebox key exchanges.
TOWARD_CLIENT = 1
TOWARD_SERVER = 2

# Handshake-mode values (negotiated via ServerHello extension).
EXT_MCTLS_MODE = 0xFF02
MODE_DEFAULT = 0
MODE_CLIENT_KEY_DIST = 1
MODE_DELEGATION = 2  # mdTLS: warrants instead of per-middlebox key dist

# Key-transport selection for MiddleboxKeyMaterial (ClientHello extension).
# DHE is the paper's design (Figure 1); RSA is the shortcut its evaluated
# prototype used (§5, at the cost of forward secrecy).
EXT_MCTLS_KEY_TRANSPORT = 0xFF03
KT_DHE = 0
KT_RSA = 1

# Record-framing negotiation (ClientHello offer, echoed verbatim in the
# ServerHello on acceptance).  The body is ``framing_id(1) ||
# n_schemas(1) || FieldSchema*`` — the client's proposed wire geometry
# plus the per-field sub-context schemas the compact framing carries.
# Absent extension (or no ServerHello echo) means the default framing:
# framing is negotiated, never implied.  Abbreviated (resumption)
# handshakes never echo it — field keys are distributed in the full
# handshake's key material flight, which resumption skips.
EXT_MCTLS_FRAMING = 0xFF04


def encode_framing_offer(framing_id: int, schemas: Sequence[FieldSchema]) -> bytes:
    """Body of the ``EXT_MCTLS_FRAMING`` extension."""
    w = Writer()
    w.u8(framing_id)
    w.u8(len(schemas))
    for schema in schemas:
        w.raw(schema.encode())
    return w.bytes()


def decode_framing_offer(data: bytes):
    """``(framing_id, schemas)`` from an ``EXT_MCTLS_FRAMING`` body."""
    r = Reader(data)
    framing_id = r.u8()
    n_schemas = r.u8()
    schemas = tuple(FieldSchema.decode_from(r) for _ in range(n_schemas))
    r.expect_end()
    seen = [s.context_id for s in schemas]
    if len(set(seen)) != len(seen):
        raise DecodeError("duplicate field schema context ids")
    return framing_id, schemas


@dataclass
class MiddleboxHello:
    mbox_id: int
    random: bytes

    msg_type = tls_msgs.MIDDLEBOX_HELLO

    def encode(self) -> bytes:
        return Writer().u8(self.mbox_id).raw(self.random).bytes()

    @classmethod
    def decode(cls, body: bytes) -> "MiddleboxHello":
        r = Reader(body)
        mbox_id = r.u8()
        random = r.raw(tls_msgs.RANDOM_LEN)
        r.expect_end()
        return cls(mbox_id=mbox_id, random=random)


@dataclass
class MiddleboxCertificateMessage:
    mbox_id: int
    chain: Sequence[Certificate]

    msg_type = tls_msgs.MIDDLEBOX_CERTIFICATE

    def encode(self) -> bytes:
        inner = Writer()
        for cert in self.chain:
            inner.vec24(cert.to_bytes())
        return Writer().u8(self.mbox_id).vec24(inner.bytes()).bytes()

    @classmethod
    def decode(cls, body: bytes) -> "MiddleboxCertificateMessage":
        r = Reader(body)
        mbox_id = r.u8()
        inner = Reader(r.vec24())
        r.expect_end()
        chain = []
        while not inner.exhausted:
            chain.append(Certificate.from_bytes(inner.vec24()))
        return cls(mbox_id=mbox_id, chain=tuple(chain))


@dataclass
class MiddleboxKeyExchange:
    """``Sign_{PK_M}(DH_M+)`` towards one endpoint."""

    mbox_id: int
    direction: int  # TOWARD_CLIENT or TOWARD_SERVER
    dh_public: bytes
    signature: bytes

    msg_type = tls_msgs.MIDDLEBOX_KEY_EXCHANGE

    def signed_bytes(self, mbox_random: bytes, endpoint_random: bytes) -> bytes:
        """What the middlebox signs: both randoms bind the key to this
        session; the direction byte binds it to one endpoint."""
        return (
            endpoint_random
            + mbox_random
            + bytes([self.direction])
            + self.dh_public
        )

    def encode(self) -> bytes:
        return (
            Writer()
            .u8(self.mbox_id)
            .u8(self.direction)
            .vec16(self.dh_public)
            .vec16(self.signature)
            .bytes()
        )

    @classmethod
    def decode(cls, body: bytes) -> "MiddleboxKeyExchange":
        r = Reader(body)
        mbox_id = r.u8()
        direction = r.u8()
        if direction not in (TOWARD_CLIENT, TOWARD_SERVER):
            raise DecodeError(f"invalid key exchange direction {direction}")
        dh_public = r.vec16()
        signature = r.vec16()
        r.expect_end()
        return cls(
            mbox_id=mbox_id,
            direction=direction,
            dh_public=dh_public,
            signature=signature,
        )


# -- key material ----------------------------------------------------------


@dataclass
class ContextKeyShare:
    """(Partial or full) key material for one context.

    ``reader_material`` is present when the target may read the context;
    ``writer_material`` additionally when it may write.  On the wire:
    ``context_id(1) || vec8(reader_material) || vec8(writer_material)``.
    """

    context_id: int
    reader_material: bytes = b""
    writer_material: bytes = b""

    def encode(self) -> bytes:
        reader, writer = self.reader_material, self.writer_material
        return (
            bytes((self.context_id, len(reader)))
            + reader
            + bytes((len(writer),))
            + writer
        )


# Marker byte introducing the optional field-key block after the context
# key shares inside a sealed MiddleboxKeyMaterial blob.  When no field
# keys travel (every default-framing session) the block is absent and
# the sealed bytes are identical to what the repo produced before the
# framing seam existed — pinned by the frozen golden transcripts.
FIELD_KEY_BLOCK = 0xF1


def encode_key_shares(
    shares: Sequence[ContextKeyShare],
    field_keys=None,
) -> bytes:
    """Key-share blob, optionally carrying per-field MAC keys.

    ``field_keys`` maps ``context_id -> {field_index: MAC block}`` —
    only the fields the target middlebox holds a write grant for (for a
    middlebox target) or every field (for the opposite endpoint's copy).
    Built in one pass: a count byte, then each share's bytes.
    """
    out = bytearray((len(shares),))
    for share in shares:
        out += share.encode()
    if field_keys:
        out += bytes((FIELD_KEY_BLOCK, len(field_keys)))
        for context_id in sorted(field_keys):
            entries = field_keys[context_id]
            out += bytes((context_id, len(entries)))
            for index in sorted(entries):
                out.append(index)
                out += entries[index]
    return bytes(out)


def decode_key_shares_ex(data: bytes):
    """``(shares, field_keys)`` — the inverse of :func:`encode_key_shares`.

    The shares, which scale with the number of contexts, are parsed in
    one pass over ``data``; a share cut short anywhere is one
    ``DecodeError("message truncated")``, as from :class:`Reader`.
    """
    size = len(data)
    if not size:
        raise DecodeError("message truncated")
    shares, pos = [], 1
    for _ in range(data[0]):
        reader_start = pos + 2  # after context_id and the reader length
        if reader_start > size:
            raise DecodeError("message truncated")
        writer_start = reader_start + data[pos + 1] + 1
        if writer_start > size:
            raise DecodeError("message truncated")
        end = writer_start + data[writer_start - 1]
        if end > size:
            raise DecodeError("message truncated")
        shares.append(
            ContextKeyShare(
                data[pos], data[reader_start : writer_start - 1], data[writer_start:end]
            )
        )
        pos = end
    field_keys = {}
    if pos < size:
        r = Reader(data[pos:])
        marker = r.u8()
        if marker != FIELD_KEY_BLOCK:
            raise DecodeError(f"invalid key share trailer marker 0x{marker:02x}")
        n_contexts = r.u8()
        for _ in range(n_contexts):
            context_id = r.u8()
            n_entries = r.u8()
            entries = {}
            for _ in range(n_entries):
                index = r.u8()
                entries[index] = r.raw(MAC_BLOCK_LEN)
            field_keys[context_id] = entries
        r.expect_end()
    return shares, field_keys


def decode_key_shares(data: bytes) -> List[ContextKeyShare]:
    return decode_key_shares_ex(data)[0]


@dataclass
class MiddleboxKeyMaterial:
    """AuthEnc'd context key shares from one endpoint to one target.

    ``target`` is a middlebox id, or ``0xFF`` for the opposite endpoint
    (whose copy exists so it can verify what was distributed and include
    it in the transcript).
    """

    sender: int  # SENDER_CLIENT or SENDER_SERVER
    target: int  # mbox_id or contexts.ENDPOINT_TARGET
    sealed: bytes

    msg_type = tls_msgs.MIDDLEBOX_KEY_MATERIAL

    def encode(self) -> bytes:
        return Writer().u8(self.sender).u8(self.target).vec16(self.sealed).bytes()

    @classmethod
    def decode(cls, body: bytes) -> "MiddleboxKeyMaterial":
        r = Reader(body)
        sender = r.u8()
        if sender not in (SENDER_CLIENT, SENDER_SERVER):
            raise DecodeError(f"invalid key material sender {sender}")
        target = r.u8()
        sealed = r.vec16()
        r.expect_end()
        return cls(sender=sender, target=target, sealed=sealed)
