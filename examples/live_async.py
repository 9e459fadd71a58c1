#!/usr/bin/env python
"""A live mcTLS deployment over real loopback TCP sockets.

Runs a production-shaped ``repro.aio`` server and middlebox relay on
loopback — accept-backpressure, timeouts and stats — and drives several
concurrent clients plus a quick load-generator burst through them.

Run:  python examples/live_async.py
"""

import asyncio

from repro.aio import AsyncEndpointServer, AsyncRelayServer, connect, run_load
from repro.crypto.certs import CertificateAuthority, Identity
from repro.crypto.dh import GROUP_MODP_1024
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.tls.connection import TLSConfig


async def main() -> None:
    print("Generating keys...")
    ca = CertificateAuthority.create_root("Live Demo CA", key_bits=1024)
    server_identity = Identity.issued_by(ca, "live.example", key_bits=1024)
    proxy_identity = Identity.issued_by(ca, "proxy.live.example", key_bits=1024)

    topology = SessionTopology(
        middleboxes=[MiddleboxInfo(1, "proxy.live.example")],
        contexts=[
            ContextDefinition(1, "request", {1: Permission.READ}),
            ContextDefinition(2, "response", {1: Permission.READ}),
        ],
    )

    # The echo server: answer every request verbatim in the response
    # context, serving sessions until each peer hangs up (the server
    # turns the peer's clean end-of-session into the end of this
    # handler).
    async def handle(conn) -> None:
        while True:
            event = await conn.recv_app_data()
            await conn.send(event.data, context_id=2)

    server = AsyncEndpointServer(
        ("127.0.0.1", 0),
        connection_factory=lambda: McTLSServer(
            TLSConfig(
                identity=server_identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_MODP_1024,
            )
        ),
        handler=handle,
        max_connections=64,
    )
    await server.start()

    observed = []
    relay = AsyncRelayServer(
        ("127.0.0.1", 0),
        upstream_addr=("127.0.0.1", server.port),
        relay_factory=lambda: McTLSMiddlebox(
            "proxy.live.example",
            TLSConfig(identity=proxy_identity, trusted_roots=[ca.certificate]),
            observer=lambda d, ctx, data: observed.append((ctx, data)),
        ),
    )
    await relay.start()
    print(f"[setup] server on :{server.port}, middlebox on :{relay.port}")

    def make_client():
        return McTLSClient(
            TLSConfig(
                trusted_roots=[ca.certificate],
                server_name="live.example",
                dh_group=GROUP_MODP_1024,
            ),
            topology=topology,
        )

    # A handful of clients, concurrently, through the same relay.
    async def one_client(i: int) -> bytes:
        conn = await connect(("127.0.0.1", relay.port), make_client())
        await conn.handshake()
        await conn.send(f"hello #{i}".encode(), context_id=1)
        reply = await conn.recv_app_data()
        assert reply.context_id == 2
        await conn.close()
        return reply.data

    replies = await asyncio.gather(*(one_client(i) for i in range(4)))
    print(f"[clients] {len(replies)} concurrent sessions complete")
    assert sorted(replies) == sorted(
        f"hello #{i}".encode() for i in range(4)
    )
    assert all((1, f"hello #{i}".encode()) in observed for i in range(4))

    # And a short load-generator burst against the same chain.
    result = await run_load(
        ("127.0.0.1", relay.port),
        lambda resume: make_client(),
        connections=8,
        concurrency=4,
        payload=b"ping",
        context_id=1,
    )
    pct = result.latency_percentiles()
    print(
        f"[loadgen] {result.completed}/{result.requested} sessions, "
        f"{result.conn_per_s:.1f} conn/s, handshake p50={pct['p50']:.3f}s"
    )
    assert result.failed == 0

    await relay.stop()
    await server.stop()
    print(
        f"[stats] server: {server.stats.handshakes_ok} handshakes, "
        f"relay: {relay.stats.accepted} sessions relayed"
    )
    assert server.stats.handshakes_ok == 12
    assert relay.stats.accepted == 12
    print("OK: async runtime served concurrent mcTLS sessions through a relay.")


if __name__ == "__main__":
    asyncio.run(main())
