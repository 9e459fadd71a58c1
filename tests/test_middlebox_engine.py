"""The middlebox on the record engine.

* **One key install for every mode** — default mode's combined halves,
  CKD's and resumption's client key blocks (from the cache, with or
  without a ticket offered beside the session id) and mdTLS's
  warrant-clamped server blocks all grant ``min(client, server)``,
  complete the middlebox handshake exactly once and leave both record
  processors doing what the grant allows: nothing under NONE, open but
  not rebuild under READ, rebuild under WRITE.
* **A reader forges in the negotiated framing** — the (reader, endpoint)
  and (reader, reader-mbox) cells of Table 1 under ``mctls-compact``
  with a field schema: the forgery carries ``MAC_endpoints``,
  ``MAC_writers`` and the field MACs, a downstream reader accepts it and
  the endpoint rejects it on ``MAC_writers``, as under default framing.
"""

from __future__ import annotations

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.faults import MaliciousReader, failure_info
from repro.mctls import McTLSClient, McTLSMiddlebox, McTLSServer, MiddleboxInfo, SessionTopology
from repro.mctls.contexts import ContextDefinition, FieldDef, FieldSchema, Permission
from repro.mctls.middlebox import MiddleboxHandshakeComplete
from repro.mctls.record import MacVerificationError, McTLSRecordError, split_records
from repro.mctls.session import KeyTransport, McTLSApplicationData
from repro.tls.connection import TLSConfig, TLSError
from repro.tls.sessioncache import ClientSessionStore, SessionCache
from repro.transport import Chain

from tests.mctls_helpers import offer_ticket

# "ticket-resumed": resumed from the cache by a client that also offers
# an RFC 5077 ticket, which no server here opens (it is ignored).
PATHS = ("default-full", "ckd", "cache-resumed", "ticket-resumed", "mdtls")
LEVELS = (Permission.NONE, Permission.READ, Permission.WRITE)


@pytest.fixture(scope="module")
def bed():
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512, key_transport=KeyTransport.DHE)


def _stores(path):
    if path.endswith("resumed"):
        return {"session_store": ClientSessionStore()}, {"session_cache": SessionCache()}
    return {}, {}


def _session(bed, path, level):
    """A handshake through one middlebox granted ``level`` on context 1;
    the resumed paths run a full handshake first and return the second."""
    mode = {"ckd": Mode.MCTLS_CKD, "mdtls": Mode.MDTLS}.get(path, Mode.MCTLS)
    topology = bed.topology(1, permission=level)
    client_stores, server_stores = _stores(path)
    for _ in range(2 if path.endswith("resumed") else 1):
        client = bed.make_client(mode, topology, **client_stores)
        if path == "ticket-resumed":
            offer_ticket(client, bytes(range(64)))
        server = bed.make_server(mode, **server_stores)
        relay = bed.make_relay(mode, 0, 1)
        chain = Chain(client, [relay], server)
        client.start_handshake()
        chain.pump()
    assert client.handshake_complete and server.handshake_complete
    assert client.resumed == path.endswith("resumed")
    return client, relay, server, chain


@pytest.mark.parametrize("level", LEVELS, ids=lambda p: p.name)
@pytest.mark.parametrize("path", PATHS)
def test_one_key_install_for_every_mode(bed, path, level):
    client, relay, server, chain = _session(bed, path, level)
    mbox_id = client.topology.middleboxes[0].mbox_id
    proposed = client.topology.contexts[0].permission_for(mbox_id)
    approved = server.approved_topology.contexts[0].permission_for(mbox_id)
    grant = min(proposed, approved)
    assert relay.permissions == {1: grant}
    for processor in (relay._proc_c2s, relay._proc_s2c):
        assert processor.permissions.get(1, Permission.NONE) is grant

    client.send_application_data(b"ping", context_id=1)
    wire = client.data_to_send()
    content_type, context_id, fragment, _ = next(split_records(bytearray(wire)))
    opened = relay._proc_c2s.open_record(content_type, context_id, fragment)
    if grant is Permission.NONE:
        assert opened.payload is None
    elif grant is Permission.READ:
        assert opened.payload == b"ping"
        with pytest.raises(McTLSRecordError, match="lacks write permission"):
            relay._proc_c2s.rebuild_record(opened, b"pong")
    else:
        events = server.receive_data(relay._proc_c2s.rebuild_record(opened, b"pong"))
        (data,) = [e for e in events if isinstance(e, McTLSApplicationData)]
        assert (data.data, data.legally_modified) == (b"pong", True)

    server.send_application_data(b"back", context_id=1)
    chain.pump()
    done = [e for e in chain.events if isinstance(e, MiddleboxHandshakeComplete)]
    assert len(done) == 1
    assert done[0].permissions == {1: grant}


# -- a reader forges in the negotiated framing --------------------------------

SCHEMA = FieldSchema(context_id=1, fields=(FieldDef("hdr", 0, 8), FieldDef("body", 8, 64)))


def _config(ca, identity=None, **options):
    return TLSConfig(
        identity=identity, trusted_roots=[ca.certificate], dh_group=GROUP_TEST_512, **options
    )


@pytest.mark.parametrize("detector", ["endpoint", "reader-mbox"])
def test_reader_forgery_under_compact_framing(ca, server_identity, mbox_identities, detector):
    identities = mbox_identities[: 1 if detector == "endpoint" else 2]
    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(i + 1, identity.name) for i, identity in enumerate(identities)],
        contexts=(
            ContextDefinition(1, "context-1", {i + 1: Permission.READ for i in range(len(identities))}),
        ),
    )
    client = McTLSClient(
        _config(
            ca, server_name=server_identity.name, framing="mctls-compact", field_schemas=(SCHEMA,)
        ),
        topology=topology,
    )
    seen = []
    forger = MaliciousReader(identities[0].name, _config(ca, identities[0]))
    relays = [forger] + [
        McTLSMiddlebox(i.name, _config(ca, i), observer=lambda d, c, data: seen.append(data))
        for i in identities[1:]
    ]
    chain = Chain(client, relays, McTLSServer(_config(ca, server_identity)))
    client.start_handshake()
    chain.pump()
    assert relays[-1]._proc_c2s.framing.name == "mctls-compact"

    client.send_application_data(bytes(range(40)), context_id=1)
    with pytest.raises(TLSError) as caught:
        chain.pump()
    info = failure_info(caught.value)
    assert isinstance(info, MacVerificationError)
    assert (info.mac, info.where) == ("writers", "endpoint")
    assert forger.forged
    # A downstream reader accepts the forgery (the documented limitation).
    assert seen == [b"forged:" + bytes(range(40))] * (len(relays) - 1)
