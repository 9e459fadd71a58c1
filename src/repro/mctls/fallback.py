"""Graceful fallback from mcTLS to plain TLS (§5.4).

"Finally, we note that clients and servers can easily fall back to
regular TLS if an mcTLS connection cannot be negotiated."

:func:`connect_with_fallback` tries an mcTLS handshake first; if the
attempt fails in a way that suggests the peer does not speak mcTLS (bad
record version, missing extension, handshake failure alerts), it dials a
fresh connection and retries once in plain TLS.  The two attempts use
separate transport connections, mirroring how browsers retry with a
downgraded protocol.

Note the deliberate asymmetry with security failures: certificate or MAC
verification errors do NOT trigger fallback — downgrading in response to
an active attack would defeat the point.
"""

from __future__ import annotations

from repro.mctls.client import McTLSClient
from repro.mctls.contexts import SessionTopology
from repro.tls.client import TLSClient
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    ALERT_BAD_RECORD_MAC,
    ALERT_DECRYPT_ERROR,
    TLSConfig,
    TLSError,
)

# Alert codes that mean "attack or corruption" — never fall back on these.
_SECURITY_ALERTS = {ALERT_BAD_CERTIFICATE, ALERT_DECRYPT_ERROR, ALERT_BAD_RECORD_MAC}


def is_negotiation_failure(error: TLSError) -> bool:
    """True when the failure looks like "peer does not speak mcTLS"
    rather than a security violation."""
    if error.alert in _SECURITY_ALERTS:
        # One exception: a record-version mismatch surfaces with the
        # bad_record_mac alert but is the canonical "peer speaks plain
        # TLS" symptom.
        return "record version" in str(error)
    return True


def connect_with_fallback(config: TLSConfig, topology: SessionTopology, dial):
    """Establish "mcTLS, else TLS" over in-memory / test transports.

    ``dial()`` must return a fresh (server_like, pump) pair each call,
    where ``pump(client, server_like)`` exchanges bytes until quiet.
    Returns the connected client (mcTLS or TLS); a failure of the one
    TLS retry is raised, never downgraded again.
    """
    client = McTLSClient(config, topology=topology)
    server, pump = dial()
    client.start_handshake()
    try:
        pump(client, server)
        if client.handshake_complete:
            return client
        raise TLSError("mcTLS handshake did not complete")
    except TLSError as exc:
        if not is_negotiation_failure(exc):
            raise
    client = TLSClient(config)
    server, pump = dial()
    client.start_handshake()
    pump(client, server)
    if not client.handshake_complete:
        raise TLSError("fallback TLS handshake did not complete")
    return client
