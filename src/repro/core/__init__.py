"""The sans-I/O core: one connection interface for every protocol stack.

Every protocol implementation in this repository — plain TLS 1.2, mcTLS,
and the three baselines (SplitTLS, E2E-TLS, NoEncrypt) — is a sans-I/O
state machine: bytes in, bytes out, events up.  This package makes that
contract *formal* instead of duck-typed:

* :class:`Connection` / :class:`RelayProcessor` — runtime-checkable
  protocols every endpoint / middlebox implements natively;
* :class:`Endpoint` / :class:`RelayQueues`
  (:mod:`repro.core.endpoint`) — the one implementation of those
  protocols' plumbing (out-queues, ``receive_data`` and its fail-once
  alert accounting, handshake reassembly, alerts, close) that the
  stacks extend with only their record layer and handshake;
* :mod:`repro.core.events` — the shared event vocabulary
  (:class:`HandshakeComplete`, :class:`ApplicationData`,
  :class:`ContextData`, :class:`AlertReceived`, :class:`SessionClosed`);
* :class:`DriveLoop` — the one in-memory drive/pump loop every
  byte-shuttling harness builds on (``transport.pump``,
  ``transport.Chain``, the experiment harnesses);
* :mod:`repro.core.instrument` — a zero-cost-when-disabled counter /
  histogram plane threaded through the stacks' single event seam, plus
  the :class:`ServerStats` ledger the servers expose.

Runtimes (``repro.aio``, ``repro.netsim`` glue) are
generic over :class:`Connection`: they never inspect protocol types, only
drive the interface.
"""

from repro.core.driveloop import DriveLoop
from repro.core.endpoint import Endpoint, RelayQueues
from repro.core.events import (
    AlertReceived,
    ApplicationData,
    ConnectionClosed,
    ContextData,
    Event,
    HandshakeComplete,
    SessionClosed,
)
from repro.core.instrument import Counter, Histogram, Instruments, ServerStats
from repro.core.interface import Connection, RelayProcessor

__all__ = [
    "AlertReceived",
    "ApplicationData",
    "Connection",
    "ConnectionClosed",
    "ContextData",
    "Counter",
    "DriveLoop",
    "Endpoint",
    "Event",
    "HandshakeComplete",
    "Histogram",
    "Instruments",
    "RelayProcessor",
    "RelayQueues",
    "ServerStats",
    "SessionClosed",
]
