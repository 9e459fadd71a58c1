"""Helpers for building wired mcTLS sessions in tests."""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.crypto.dh import GROUP_TEST_512
from repro.faults import HandshakeMutator
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    SessionTopology,
)
from repro.mctls.session import HandshakeMode
from repro.tls import messages as tls_msgs
from repro.tls.connection import TLSConfig
from repro.transport import Chain

EXT_SESSION_TICKET = 0x0023  # RFC 5077's, as OpenSSL clients send it


def offer_ticket(client, ticket: bytes = b""):
    """Make ``client``'s ClientHello carry extension 0x0023 holding
    ``ticket`` (empty: "issue me a ticket"), as OpenSSL clients do.  No
    stack here keeps tickets: a server ignores the extension and resumes,
    or not, from the session id alone (RFC 5077 §3.4), while the bytes
    stay in the transcript both Finished messages cover."""
    send = client._send_handshake

    def sending(message, tag=None):
        if isinstance(message, tls_msgs.ClientHello):
            extensions = [*message.extensions, (EXT_SESSION_TICKET, ticket)]
            message = dataclasses.replace(message, extensions=extensions)
        send(message, tag)

    client._send_handshake = sending
    return client


class FlipTicketBit(HandshakeMutator):
    """On path: flip one seeded bit inside the ticket a ClientHello offers."""

    name = "hs-flip-ticket"

    def __init__(self, ticket: bytes):
        self.ticket = ticket

    def mutate_message(self, msg_type, body, rng):
        index = body.find(self.ticket) if msg_type == tls_msgs.CLIENT_HELLO else -1
        if index < 0:
            return None
        mutated = bytearray(body)
        mutated[index + rng.randrange(len(self.ticket))] ^= 1 << rng.randrange(8)
        return [(msg_type, bytes(mutated))]


def build_session(
    ca,
    server_identity,
    mbox_identities: Sequence,
    contexts: Sequence[ContextDefinition],
    mode: HandshakeMode = HandshakeMode.DEFAULT,
    topology_policy=None,
    transformer=None,
    observer=None,
    key_transport=None,
    session_store=None,
    session_cache=None,
    framing: str = "mctls-default",
    field_schemas: Sequence = (),
    offered_ticket: Optional[bytes] = None,
):
    """Wire a client ⇄ N middleboxes ⇄ server session; returns
    (client, middleboxes, server, chain) with the handshake already pumped.

    Pass the same ``session_store`` (client side) and ``session_cache``
    (server side) across two calls to exercise session resumption, and
    ``offered_ticket`` to have the client also offer that ticket
    (:func:`offer_ticket`)."""
    middleboxes = [
        MiddleboxInfo(i + 1, identity.name) for i, identity in enumerate(mbox_identities)
    ]
    topology = SessionTopology(middleboxes=middleboxes, contexts=contexts)

    client = McTLSClient(
        TLSConfig(
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            dh_group=GROUP_TEST_512,
            framing=framing,
            field_schemas=field_schemas,
        ),
        topology=topology,
        key_transport=key_transport,
        session_store=session_store,
    )
    server = McTLSServer(
        TLSConfig(
            identity=server_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
        mode=mode,
        topology_policy=topology_policy,
        session_cache=session_cache,
    )
    mboxes = [
        McTLSMiddlebox(
            identity.name,
            TLSConfig(
                identity=identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
            transformer=transformer,
            observer=observer,
        )
        for identity in mbox_identities
    ]
    if offered_ticket is not None:
        offer_ticket(client, offered_ticket)
    chain = Chain(client, mboxes, server)
    client.start_handshake()
    chain.pump()
    return client, mboxes, server, chain
