"""Golden-vector generator for session-ticket payloads and sealed blobs.

Freezes, for each session-state class — plain TLS, mcTLS and mdTLS —
the ticket kind, the payload the state encodes for a ticket, and the
blob a :class:`~repro.tls.tickets.TicketKeyManager` seals it into.  The
manager runs on a seeded ``rng`` and a fixed ``clock``, so key names,
secrets, nonces and the sealed ``issued_at`` are reproducible; the
middlebox certificates of the mdTLS state are built from fixed bytes
rather than generated keys.

Run ``python tests/golden/gen_ticket_vectors.py`` to (re)generate
``ticket_vectors.json`` — only for an intentional ticket-format change,
never to make a failing test pass.  ``tests/test_tickets.py`` compares
:func:`build_vectors` against the frozen file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.crypto.certs import Certificate
from repro.crypto.rsa import RSAPublicKey
from repro.mctls.contexts import (
    ContextDefinition,
    MiddleboxInfo,
    Permission,
    SessionTopology,
)
from repro.mctls.session import HandshakeMode, KeyTransport, McTLSSessionState
from repro.mdtls.session import MdTLSSessionState
from repro.tls.sessioncache import TLSSessionState
from repro.tls.tickets import TicketKeyManager

TICKET_VECTORS_PATH = Path(__file__).resolve().parent / "ticket_vectors.json"

SEED = 5077
CLOCK = 1_000_000.25
SUITE_ID = 0x0067

TOPOLOGY = SessionTopology(
    middleboxes=[MiddleboxInfo(1, "mbox1.example"), MiddleboxInfo(2, "mbox2.example")],
    contexts=[
        ContextDefinition(1, "headers", {1: Permission.WRITE, 2: Permission.READ}),
        ContextDefinition(2, "body", {1: Permission.READ}),
    ],
)


def _certificate(name: str) -> Certificate:
    """A certificate with a fixed 512-bit modulus (never verified here:
    the ticket carries its bytes, nothing more)."""
    n = int.from_bytes(hashlib.sha512(name.encode()).digest(), "big") | (1 << 511) | 1
    return Certificate(
        subject=name,
        issuer="ca.example",
        public_key=RSAPublicKey(n=n, e=65537),
        serial=len(name),
        is_ca=False,
        signature=hashlib.sha512(b"signature " + name.encode()).digest(),
    )


def states() -> dict:
    """One state per session-state class, each with fixed contents."""
    return {
        "tls": TLSSessionState(
            session_id=b"",
            master_secret=bytes(range(48)),
            cipher_suite_id=SUITE_ID,
            server_name="server.example",
        ),
        "mctls": McTLSSessionState(
            session_id=b"",
            endpoint_secret=bytes(range(48, 96)),
            cipher_suite_id=SUITE_ID,
            mode=int(HandshakeMode.DEFAULT),
            key_transport=int(KeyTransport.RSA),
            topology_bytes=TOPOLOGY.encode(),
        ),
        "mdtls": MdTLSSessionState(
            session_id=b"",
            endpoint_secret=bytes(range(96, 144)),
            cipher_suite_id=SUITE_ID,
            mode=int(HandshakeMode.DELEGATION),
            key_transport=int(KeyTransport.DHE),
            topology_bytes=TOPOLOGY.encode(),
            middlebox_certs={
                1: _certificate("mbox1.example"),
                2: _certificate("mbox2.example"),
            },
        ),
    }


def manager() -> TicketKeyManager:
    """The sealing manager: seeded key material and nonces, fixed time."""
    return TicketKeyManager(rng=random.Random(SEED).randbytes, clock=lambda: CLOCK)


def build_vectors() -> dict:
    sealer = manager()
    vectors = {"schema": "ticket-golden/1", "seed": SEED, "clock": CLOCK, "states": {}}
    for name, state in states().items():
        payload = state.ticket_payload()
        vectors["states"][name] = {
            "kind": state.ticket_kind,
            "payload": payload.hex(),
            "sealed": sealer.seal(state.ticket_kind, payload).hex(),
        }
    return vectors


def main() -> int:
    vectors = build_vectors()
    TICKET_VECTORS_PATH.write_text(json.dumps(vectors, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TICKET_VECTORS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
