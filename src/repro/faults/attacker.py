"""On-path attackers for the fault-injection harness.

Three adversaries, matching the rows of Table 1 (§3.4):

* :class:`TamperProxy` — a **third party** on the wire.  It holds no
  keys; all it can do is parse record framing and mutate ciphertext,
  drop, replay or reorder records, or rewrite cleartext handshake
  messages.  It implements the two-sided relay interface, so it takes a
  hop's slot in a :class:`repro.transport.Chain` and, through
  ``build_path(..., attacker=...)``, in a ``repro.netsim`` path.
* :class:`MaliciousReader` — a **reader** middlebox that abuses its
  reader keys to forge records (recomputing ``MAC_readers`` only).
  Downstream readers accept the forgery — the paper's documented
  limitation — but writers and endpoints catch it via ``MAC_writers``.
* a malicious **writer** needs no machinery: an honest
  :class:`~repro.mctls.middlebox.McTLSMiddlebox` with a ``transformer``
  *is* the legal-modification case the endpoint flags via
  ``MAC_endpoints``.

Everything the proxy does not touch is forwarded byte-identically, so an
un-attacked session through a :class:`TamperProxy` behaves exactly like a
bare wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.endpoint import RelayQueues
from repro.faults.mutations import (
    HandshakeMutator,
    RecordMutator,
    RecordView,
    parse_records,
)
from repro.mctls import keys as mk
from repro.mctls import record as mrec
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, Permission
from repro.mctls.middlebox import McTLSMiddlebox
from repro.mctls.record import MiddleboxRecordProcessor, OpenedRecord
from repro.tls import messages as tls_msgs
from repro.tls import record as rec


@dataclass
class TamperPlan:
    """What a :class:`TamperProxy` should do, and when.

    ``record_index`` counts APPLICATION_DATA records in ``direction``
    (0-based); the mutator receives ``mutator.window`` consecutive
    records starting there.  ``handshake_mutator`` applies to cleartext
    handshake messages in ``direction`` before ChangeCipherSpec.
    """

    seed: int = 0
    record_mutator: Optional[RecordMutator] = None
    record_index: int = 0
    handshake_mutator: Optional[HandshakeMutator] = None
    direction: str = mk.C2S


class _DirState:
    """Per-direction parsing/mutation state inside a TamperProxy."""

    def __init__(self) -> None:
        self.inbuf = bytearray()
        self.hs_buf = tls_msgs.HandshakeBuffer()
        self.protected = False  # ChangeCipherSpec seen
        self.app_index = 0  # APPLICATION_DATA records seen
        self.pending: List[RecordView] = []  # window under collection
        self.done = False  # record mutation already applied


class TamperProxy(RelayQueues):
    """A key-less on-path attacker with the two-sided relay interface.

    Tampering per :class:`TamperPlan`; every other byte is forwarded
    verbatim.  ``log`` records ``(direction, action)`` pairs for test
    introspection.
    """

    def __init__(self, plan: TamperPlan):
        super().__init__()
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.log: List[Tuple[str, str]] = []
        self._c2s = _DirState()
        self._s2c = _DirState()

    # -- relay interface ----------------------------------------------------

    def receive_from_client(self, data: bytes) -> List[object]:
        self._process(mk.C2S, self._c2s, self._to_server, data)
        return []

    def receive_from_server(self, data: bytes) -> List[object]:
        self._process(mk.S2C, self._s2c, self._to_client, data)
        return []

    # -- internals ----------------------------------------------------------

    def _process(
        self, direction: str, state: _DirState, out: List[bytes], data: bytes
    ) -> None:
        state.inbuf += data
        for view in parse_records(state.inbuf):
            self._handle_record(direction, state, out, view)

    def _handle_record(
        self, direction: str, state: _DirState, out: List[bytes], view: RecordView
    ) -> None:
        targeted = direction == self.plan.direction

        if view.content_type == rec.CHANGE_CIPHER_SPEC:
            state.protected = True
            out.append(view.to_bytes())
            return

        if (
            targeted
            and not state.protected
            and view.content_type == rec.HANDSHAKE
            and self.plan.handshake_mutator is not None
        ):
            self._mutate_handshake(direction, state, out, view)
            return

        if (
            targeted
            and state.protected
            and view.content_type == rec.APPLICATION_DATA
            and self.plan.record_mutator is not None
            and not state.done
        ):
            index = state.app_index
            state.app_index += 1
            mutator = self.plan.record_mutator
            start = self.plan.record_index
            if start <= index < start + mutator.window:
                state.pending.append(view)
                if len(state.pending) == mutator.window:
                    mutated = mutator.mutate(state.pending, self.rng)
                    state.pending = []
                    state.done = True
                    self.log.append((direction, mutator.name))
                    for m in mutated:
                        out.append(m.to_bytes())
                return  # held for the window, or just emitted
            out.append(view.to_bytes())
            return

        if targeted and state.protected and view.content_type == rec.APPLICATION_DATA:
            state.app_index += 1
        out.append(view.to_bytes())

    def _mutate_handshake(
        self, direction: str, state: _DirState, out: List[bytes], view: RecordView
    ) -> None:
        """Re-frame handshake messages one per record, mutating en route."""
        state.hs_buf.feed(bytes(view.fragment))
        while True:
            message = state.hs_buf.next_message()
            if message is None:
                return
            msg_type, body, raw = message
            replacement = self.plan.handshake_mutator.mutate_message(
                msg_type, body, self.rng
            )
            if replacement is None:
                framed = [raw]
            else:
                self.log.append((direction, self.plan.handshake_mutator.name))
                framed = [tls_msgs.frame(t, b) for t, b in replacement]
            for msg_raw in framed:
                out.append(
                    mrec.encode_header(rec.HANDSHAKE, ENDPOINT_CONTEXT_ID, len(msg_raw))
                    + msg_raw
                )


# -- insider attackers ---------------------------------------------------------


def forge_reader_record(
    processor: MiddleboxRecordProcessor, opened: OpenedRecord, new_payload: bytes
) -> bytes:
    """Forge a record the way a malicious *reader* can (§3.4, Table 1).

    A reader holds the context's reader keys only, so it can recompute
    ``MAC_readers`` over its forged payload but must carry
    ``MAC_endpoints``, ``MAC_writers`` and every field MAC as received,
    in the session's framing.  Downstream readers verify happily; the
    first writer or endpoint rejects via ``MAC_writers``.
    """
    ctx = processor.context(opened.context_id)
    carried = tuple((field_def, None) for field_def, _ in ctx.fields)
    return processor.reseal(ctx, opened, new_payload, (None, None, ctx.macs[2]), carried)


FORGED_CONTEXT_ID = 1


class MaliciousReader(McTLSMiddlebox):
    """A middlebox that completes the handshake honestly with READ
    permission, then forges the application records of context
    ``FORGED_CONTEXT_ID`` in flight."""

    def __init__(self, name, config, **kwargs):
        super().__init__(name, config, **kwargs)
        self.forged: List[Tuple[str, int]] = []

    def _handle_protected_record(
        self, side, processor, content_type, context_id, fragment, raw
    ):
        if (
            content_type != rec.APPLICATION_DATA
            or context_id != FORGED_CONTEXT_ID
            or self.permissions.get(context_id) is not Permission.READ
        ):
            super()._handle_protected_record(
                side, processor, content_type, context_id, fragment, raw
            )
            return
        opened = processor.open_record(content_type, context_id, fragment)
        forged = forge_reader_record(processor, opened, b"forged:" + opened.payload)
        self.forged.append((processor.direction, opened.seq))
        self._out_for(side).append(forged)


__all__ = [
    "MaliciousReader",
    "TamperPlan",
    "TamperProxy",
    "forge_reader_record",
]
