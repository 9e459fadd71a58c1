"""mdTLS session machinery: transcript tags, canonical orders, tickets.

The delegation handshake keeps mcTLS's record-layer wire geometry and
most of its message flow; what changes is *who distributes keys*:

* the server adds a ``WarrantIssue`` between its ServerKeyExchange and
  ServerHelloDone;
* middlebox flights are CKD-shaped (hello, certificate, one
  client-directed signed key exchange — the signature under the
  warranted certificate key doubles as the proof of possession);
* the client sends a ``WarrantIssue`` after its ClientKeyExchange and
  **no key material at all**;
* after verifying the client's Finished, the server sends each
  middlebox one ``DelegatedKeyMaterial``, sealed to its certificate key
  and clamped to the intersection of both warrants.

The canonical orders below mirror :mod:`repro.mctls.session`'s: both
endpoints can assemble them from the topology alone, independent of
arrival order.

Tickets: an mdTLS ticket seals the mcTLS session state **plus the
middlebox certificates** (the server must re-seal fresh delegated key
material on resumption, statelessly).  The payload rides under its own
ticket kind so an mdTLS ticket can never resume an mcTLS session or
vice versa, and the sealed topology is re-checked byte-for-byte against
the new ClientHello — resumption can never widen the warranted access.
"""

from __future__ import annotations

from typing import List

from repro.crypto.certs import Certificate
from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import SessionTopology
from repro.wire import DecodeError, Reader, Writer

TAG_SERVER_WARRANTS = "server_warrants"
TAG_CLIENT_WARRANTS = "client_warrants"


def tag_dkm(mbox_id: int) -> str:
    return f"dkm:{mbox_id}"


# -- canonical transcript orders -------------------------------------------
#
# Same ``(topology, mode, key_transport)`` signature as the mcTLS orders
# they stand in for; the delegation flow has one mode and one transport,
# so only the topology matters.


def delegation_full_order_client(
    topology: SessionTopology, mode=None, key_transport=None
) -> List[str]:
    """Messages covered by the client's Finished in a full handshake."""
    tags = [
        ms.TAG_CLIENT_HELLO,
        ms.TAG_SERVER_HELLO,
        ms.TAG_SERVER_CERT,
        ms.TAG_SERVER_KE,
        TAG_SERVER_WARRANTS,
        ms.TAG_SERVER_HELLO_DONE,
    ]
    for mbox in topology.middleboxes:
        tags.append(ms.tag_mbox_hello(mbox.mbox_id))
        tags.append(ms.tag_mbox_cert(mbox.mbox_id))
        tags.append(ms.tag_mbox_ke(mbox.mbox_id, mm.TOWARD_CLIENT))
    tags.append(ms.TAG_CLIENT_KE)
    tags.append(TAG_CLIENT_WARRANTS)
    return tags


def delegation_full_order_server(
    topology: SessionTopology, mode=None, key_transport=None
) -> List[str]:
    """Messages covered by the server's Finished in a full handshake:
    everything the client finished over, the client's Finished itself,
    and the delegated key material — so the client (and transcript)
    detects suppression or reordering of any DelegatedKeyMaterial."""
    tags = delegation_full_order_client(topology)
    tags.append(ms.TAG_CLIENT_FINISHED)
    for mbox in topology.middleboxes:
        tags.append(tag_dkm(mbox.mbox_id))
    return tags


def delegation_resumed_order_server(
    topology: SessionTopology, mode=None, key_transport=None
) -> List[str]:
    """The abbreviated flow's server Finished covers the fresh warrants
    and re-sealed key material the server sent before it."""
    tags = [ms.TAG_CLIENT_HELLO, ms.TAG_SERVER_HELLO, TAG_SERVER_WARRANTS]
    for mbox in topology.middleboxes:
        tags.append(tag_dkm(mbox.mbox_id))
    return tags


def delegation_resumed_order_client(
    topology: SessionTopology, mode=None, key_transport=None
) -> List[str]:
    """The abbreviated flow's client Finished additionally covers the
    server's Finished and the client's fresh warrants."""
    tags = delegation_resumed_order_server(topology)
    tags.append(ms.TAG_SERVER_FINISHED)
    tags.append(TAG_CLIENT_WARRANTS)
    return tags


DELEGATION_ORDERS = ms.TranscriptOrders(
    full_client=delegation_full_order_client,
    full_server=delegation_full_order_server,
    resumed_server=delegation_resumed_order_server,
    resumed_client=delegation_resumed_order_client,
)


# -- ticket payload ---------------------------------------------------------


def encode_mdtls_ticket_state(state: ms.McTLSSessionState) -> bytes:
    """The mcTLS ticket payload plus the middlebox certificates the
    server needs to re-seal delegated key material statelessly."""
    w = Writer()
    w.vec16(ms.encode_ticket_state(state))
    w.u8(len(state.middlebox_certs))
    for mbox_id in sorted(state.middlebox_certs):
        w.u8(mbox_id)
        w.vec24(state.middlebox_certs[mbox_id].to_bytes())
    return w.bytes()


def decode_mdtls_ticket_state(payload: bytes) -> ms.McTLSSessionState:
    from repro.tls.tickets import TicketError

    try:
        r = Reader(payload)
        state = ms.decode_ticket_state(r.vec16())
        for _ in range(r.u8()):
            mbox_id = r.u8()
            state.middlebox_certs[mbox_id] = Certificate.from_bytes(r.vec24())
        r.expect_end()
    except DecodeError as exc:
        raise TicketError(f"malformed mdTLS ticket payload: {exc}") from exc
    return state
