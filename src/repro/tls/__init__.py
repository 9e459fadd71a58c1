"""A from-scratch, sans-I/O TLS 1.2 subset.

This package implements enough of TLS 1.2 (RFC 5246) to act as the
substrate the mcTLS extension builds on, and as the protocol for the
SplitTLS / E2E-TLS baselines the paper compares against:

* the record protocol with MAC-then-encrypt CBC protection — the one
  record engine, which the mcTLS record layer extends,
* the DHE-RSA handshake (ClientHello → ServerHello/Certificate/
  ServerKeyExchange/ServerHelloDone → ClientKeyExchange/CCS/Finished →
  CCS/Finished),
* alerts and transcript (Finished) verification.

All protocol objects are sans-I/O state machines implementing the
``repro.core.Connection`` protocol: feed received bytes with
``receive_data()``, drain output with ``data_to_send()``, observe progress
through returned events.  The same code runs over in-memory pipes, real
sockets and the discrete-event network simulator.
"""

from repro.tls.ciphersuites import (
    CipherSuite,
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
)
from repro.tls.client import TLSClient
from repro.tls.connection import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    HandshakeComplete,
    TLSConfig,
    TLSError,
)
from repro.tls.server import TLSServer
from repro.tls.sessioncache import (
    ClientSessionStore,
    SessionCache,
    TLSSessionState,
    new_session_id,
)

__all__ = [
    "AlertReceived",
    "ApplicationData",
    "CipherSuite",
    "ClientSessionStore",
    "ConnectionClosed",
    "HandshakeComplete",
    "SessionCache",
    "SUITE_DHE_RSA_AES128_CBC_SHA256",
    "SUITE_DHE_RSA_SHACTR_SHA256",
    "TLSClient",
    "TLSConfig",
    "TLSError",
    "TLSServer",
    "TLSSessionState",
    "new_session_id",
]
