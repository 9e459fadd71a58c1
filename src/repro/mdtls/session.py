"""mdTLS session machinery: transcript tags, canonical orders, session state.

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

Session state: :class:`MdTLSSessionState` is the mcTLS session state
under its own client-store namespace, so a stored mdTLS session is never
offered to an mcTLS server or vice versa; the server's cache keeps the
middlebox certificates it re-seals delegated key material to, and
re-checks the cached topology byte-for-byte against the new ClientHello
— resumption can never widen the warranted access.
"""

from __future__ import annotations

from typing import List

from repro.mctls import messages as mm
from repro.mctls import session as ms
from repro.mctls.contexts import SessionTopology

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


# -- session state ----------------------------------------------------------


class MdTLSSessionState(ms.McTLSSessionState):
    """The mcTLS session state, under its own client-store namespace."""

    store_namespace = "mdtls"
