"""Multi-context TLS (mcTLS) — the paper's primary contribution.

mcTLS extends the TLS 1.2 substrate (:mod:`repro.tls`) with:

* **encryption contexts** — independently keyed slices of the application
  data stream, each with per-middlebox READ / WRITE / NONE permissions
  (:mod:`repro.mctls.contexts`);
* **contributory context keys** — client and server each contribute half
  of every context key and distribute the halves to middleboxes they
  approve of (:mod:`repro.mctls.keys`);
* **the endpoint-writer-reader record protocol** — three MACs per record
  so endpoints detect legal and illegal modifications, writers detect
  illegal modifications, and readers detect third-party modifications
  (:mod:`repro.mctls.record`);
* **the extended handshake** with middlebox hellos, certificates, signed
  ephemeral DH key exchanges and encrypted ``MiddleboxKeyMaterial``
  messages, in both the default and the client-key-distribution modes
  (:mod:`repro.mctls.client` / ``server`` / ``middlebox``).
"""

from repro.mctls.contexts import (
    ContextDefinition,
    MiddleboxInfo,
    Permission,
    SessionTopology,
    restrict_topology,
)
from repro.mctls.client import McTLSClient
from repro.mctls.middlebox import McTLSMiddlebox
from repro.mctls.server import McTLSServer
from repro.mctls.session import (
    HandshakeMode,
    KeyTransport,
    McTLSApplicationData,
    McTLSHandshakeComplete,
    McTLSSessionState,
)

__all__ = [
    "ContextDefinition",
    "HandshakeMode",
    "KeyTransport",
    "McTLSApplicationData",
    "McTLSClient",
    "McTLSHandshakeComplete",
    "McTLSMiddlebox",
    "McTLSServer",
    "McTLSSessionState",
    "MiddleboxInfo",
    "Permission",
    "SessionTopology",
    "restrict_topology",
]
