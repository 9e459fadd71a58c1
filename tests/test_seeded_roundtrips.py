"""Seeded property-based encode/decode round-trips.

Random-but-reproducible inputs (``random.Random`` with fixed seeds — no
new dependencies) exercise ``repro.wire`` and the mcTLS handshake
message codecs far beyond the hand-written cases: arbitrary op
sequences, boundary-sized vectors, and truncation negatives.
"""

import random

import pytest

from repro.mctls import messages as mm
from repro.mctls.contexts import (
    ContextDefinition,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.wire import DecodeError, Reader, Writer

SEED = 0xC0FFEE
N_CASES = 30


def _rng(name: str) -> random.Random:
    return random.Random(f"{SEED}:{name}")


def _rand_bytes(rng: random.Random, max_len: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(rng.randrange(max_len + 1)))


def _rand_text(rng: random.Random, max_len: int) -> str:
    return "".join(
        chr(rng.choice((rng.randrange(32, 127), rng.randrange(0xA0, 0x2FF))))
        for _ in range(rng.randrange(max_len + 1))
    )


# -- repro.wire ---------------------------------------------------------------

_UINT_BITS = {"u8": 8, "u16": 16, "u24": 24, "u32": 32, "u64": 64}
_OPS = tuple(_UINT_BITS) + ("vec8", "vec16", "vec24", "string8", "string16")


def _random_ops(rng: random.Random):
    ops = []
    for _ in range(rng.randrange(1, 13)):
        op = rng.choice(_OPS)
        if op in _UINT_BITS:
            bits = _UINT_BITS[op]
            # Mix arbitrary values with the boundary ones.
            value = rng.choice(
                (rng.randrange(1 << bits), 0, (1 << bits) - 1)
            )
            ops.append((op, value))
        elif op.startswith("vec"):
            ops.append((op, _rand_bytes(rng, 64)))
        else:
            ops.append((op, _rand_text(rng, 24)))
    return ops


def test_wire_op_sequences_roundtrip():
    rng = _rng("wire")
    for _ in range(N_CASES):
        ops = _random_ops(rng)
        w = Writer()
        for op, value in ops:
            getattr(w, op)(value)
        encoded = w.bytes()
        assert len(w) == len(encoded)
        r = Reader(encoded)
        decoded = [(op, getattr(r, op)()) for op, _ in ops]
        r.expect_end()
        assert decoded == ops


def test_wire_truncation_raises():
    rng = _rng("wire-truncate")
    for _ in range(N_CASES):
        data = _rand_bytes(rng, 64) + b"x"  # never empty
        encoded = Writer().vec16(data).bytes()
        cut = rng.randrange(1, len(encoded))
        with pytest.raises(DecodeError):
            Reader(encoded[:cut]).vec16()


def test_wire_trailing_bytes_raise():
    encoded = Writer().u16(7).bytes() + b"\x00"
    r = Reader(encoded)
    r.u16()
    with pytest.raises(DecodeError):
        r.expect_end()


# -- repro.mctls.messages ------------------------------------------------------


def test_middlebox_hello_roundtrip():
    rng = _rng("hello")
    for _ in range(N_CASES):
        msg = mm.MiddleboxHello(
            mbox_id=rng.randrange(1, 255),
            random=bytes(rng.getrandbits(8) for _ in range(32)),
        )
        assert mm.MiddleboxHello.decode(msg.encode()) == msg


def test_middlebox_key_exchange_roundtrip():
    rng = _rng("kx")
    for _ in range(N_CASES):
        msg = mm.MiddleboxKeyExchange(
            mbox_id=rng.randrange(1, 255),
            direction=rng.choice((mm.TOWARD_CLIENT, mm.TOWARD_SERVER)),
            dh_public=_rand_bytes(rng, 256),
            signature=_rand_bytes(rng, 256),
        )
        assert mm.MiddleboxKeyExchange.decode(msg.encode()) == msg


def test_middlebox_key_exchange_rejects_bad_direction():
    msg = mm.MiddleboxKeyExchange(
        mbox_id=1, direction=mm.TOWARD_CLIENT, dh_public=b"p", signature=b"s"
    )
    encoded = bytearray(msg.encode())
    encoded[1] = 9  # invalid direction tag
    with pytest.raises(DecodeError, match="direction"):
        mm.MiddleboxKeyExchange.decode(bytes(encoded))


def test_middlebox_key_material_roundtrip():
    rng = _rng("mkm")
    for _ in range(N_CASES):
        msg = mm.MiddleboxKeyMaterial(
            sender=rng.choice((mm.SENDER_CLIENT, mm.SENDER_SERVER)),
            target=rng.choice((rng.randrange(1, 255), 0xFF)),
            sealed=_rand_bytes(rng, 512),
        )
        assert mm.MiddleboxKeyMaterial.decode(msg.encode()) == msg


def test_middlebox_key_material_rejects_bad_sender():
    encoded = bytearray(
        mm.MiddleboxKeyMaterial(sender=mm.SENDER_CLIENT, target=1, sealed=b"x").encode()
    )
    encoded[0] = 0
    with pytest.raises(DecodeError, match="sender"):
        mm.MiddleboxKeyMaterial.decode(bytes(encoded))


def test_key_shares_roundtrip():
    rng = _rng("shares")
    for _ in range(N_CASES):
        shares = [
            mm.ContextKeyShare(
                context_id=ctx_id,
                reader_material=_rand_bytes(rng, 64),
                writer_material=_rand_bytes(rng, 64),
            )
            for ctx_id in rng.sample(range(1, 256), rng.randrange(0, 6))
        ]
        assert mm.decode_key_shares(mm.encode_key_shares(shares)) == shares


def test_key_shares_truncation_raises():
    shares = [mm.ContextKeyShare(context_id=1, reader_material=b"r" * 32)]
    encoded = mm.encode_key_shares(shares)
    with pytest.raises(DecodeError):
        mm.decode_key_shares(encoded[:-1])


def test_session_topology_roundtrip():
    rng = _rng("topology")
    for _ in range(N_CASES):
        n_mboxes = rng.randrange(0, 5)
        middleboxes = tuple(
            MiddleboxInfo(
                mbox_id=i + 1,
                name=f"mbox{i + 1}.example",
                address=_rand_text(rng, 12),
            )
            for i in range(n_mboxes)
        )
        contexts = tuple(
            ContextDefinition(
                context_id=ctx_id,
                purpose=_rand_text(rng, 16),
                permissions={
                    m.mbox_id: perm
                    for m in middleboxes
                    # Codec treats NONE as "no entry"; mirror that here.
                    if (perm := rng.choice(tuple(Permission)))
                    is not Permission.NONE
                },
            )
            for ctx_id in sorted(rng.sample(range(1, 256), rng.randrange(1, 5)))
        )
        topology = SessionTopology(middleboxes=middleboxes, contexts=contexts)
        assert SessionTopology.decode(topology.encode()) == topology


def _rand_field_schema(rng: random.Random):
    from repro.mctls.contexts import FieldDef, FieldSchema

    n_fields = rng.randrange(0, 6)
    names = rng.sample(
        ["hdr", "body", "crc", "unit", "setpoint", "seqno", "aux"], n_fields
    )
    fields = []
    for name in names:
        start = rng.randrange(0, 128)
        end = start + rng.randrange(0, 128)
        fields.append(FieldDef(name=name, start=start, end=end))
    write_grants = {
        f.name: tuple(sorted(rng.sample(range(1, 9), rng.randrange(1, 4))))
        for f in fields
        # Codec treats an empty grant list as "no entry"; mirror that.
        if rng.random() < 0.7
    }
    return FieldSchema(
        context_id=rng.randrange(1, 256),
        fields=tuple(fields),
        write_grants=write_grants,
    )


def test_field_schema_roundtrip():
    from repro.mctls.contexts import FieldSchema

    rng = _rng("field-schema")
    for _ in range(N_CASES):
        schema = _rand_field_schema(rng)
        assert FieldSchema.decode(schema.encode()) == schema


def test_field_schema_truncation_raises():
    rng = _rng("field-schema-truncate")
    for _ in range(N_CASES):
        schema = _rand_field_schema(rng)
        encoded = schema.encode()
        if len(encoded) < 3:
            continue
        cut = rng.randrange(1, len(encoded))
        with pytest.raises(DecodeError):
            from repro.mctls.contexts import FieldSchema

            FieldSchema.decode(encoded[:cut])


def test_framing_offer_roundtrip():
    rng = _rng("framing-offer")
    for _ in range(N_CASES):
        framing_id = rng.randrange(0, 3)
        n_schemas = rng.randrange(0, 4)
        schemas, used = [], set()
        while len(schemas) < n_schemas:
            schema = _rand_field_schema(rng)
            if schema.context_id in used:
                continue
            used.add(schema.context_id)
            schemas.append(schema)
        encoded = mm.encode_framing_offer(framing_id, tuple(schemas))
        got_id, got_schemas = mm.decode_framing_offer(encoded)
        assert got_id == framing_id
        assert got_schemas == tuple(schemas)


def test_framing_offer_rejects_duplicate_context_ids():
    from repro.mctls.contexts import FieldDef, FieldSchema

    schema = FieldSchema(context_id=1, fields=(FieldDef("hdr", 0, 8),))
    encoded = mm.encode_framing_offer(2, (schema, schema))
    with pytest.raises(DecodeError, match="duplicate"):
        mm.decode_framing_offer(encoded)


def test_key_shares_with_field_keys_roundtrip():
    rng = _rng("field-keys")
    for _ in range(N_CASES):
        shares = [
            mm.ContextKeyShare(
                context_id=ctx_id,
                reader_material=_rand_bytes(rng, 64),
                writer_material=_rand_bytes(rng, 64),
            )
            for ctx_id in rng.sample(range(1, 256), rng.randrange(0, 4))
        ]
        field_keys = {
            ctx_id: {
                # A field's MAC block: mac_c2s || mac_s2c.
                index: bytes(rng.getrandbits(8) for _ in range(64))
                for index in rng.sample(range(8), rng.randrange(1, 4))
            }
            for ctx_id in rng.sample(range(1, 256), rng.randrange(0, 3))
        }
        encoded = mm.encode_key_shares(shares, field_keys)
        got_shares, got_field_keys = mm.decode_key_shares_ex(encoded)
        assert got_shares == shares
        assert got_field_keys == field_keys
        # The compat accessor still returns just the shares.
        assert mm.decode_key_shares(encoded) == shares


def test_key_shares_rejects_bad_trailer_marker():
    field_keys = {1: {0: b"c" * 32 + b"s" * 32}}
    encoded = bytearray(mm.encode_key_shares([], field_keys))
    encoded[1] = 0x42  # corrupt the FIELD_KEY_BLOCK marker
    with pytest.raises(DecodeError, match="trailer marker"):
        mm.decode_key_shares_ex(bytes(encoded))


def test_session_topology_rejects_bad_permission():
    topology = SessionTopology(
        middleboxes=(MiddleboxInfo(1, "m.example"),),
        contexts=(ContextDefinition(1, "data", {1: Permission.READ}),),
    )
    encoded = bytearray(topology.encode())
    encoded[-1] = 7  # permission byte is last for a single mbox/context
    with pytest.raises(DecodeError, match="permission"):
        SessionTopology.decode(bytes(encoded))
