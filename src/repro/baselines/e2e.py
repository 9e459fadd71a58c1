"""E2E-TLS: a blind forwarding relay.

The endpoints run plain TLS end to end; the middlebox shuttles bytes
between its two connections without interpreting them.  This is the
paper's "E2E-TLS" baseline: maximal security, zero in-network
functionality, and (as Figure 5 shows) near-zero middlebox CPU cost.
"""

from __future__ import annotations

from typing import List

from repro.core.endpoint import RelayQueues


class BlindRelay(RelayQueues):
    """Forwards bytes verbatim in both directions."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes_relayed = 0

    def receive_from_client(self, data: bytes) -> List[object]:
        self._to_server.append(data)
        self.bytes_relayed += len(data)
        return []

    def receive_from_server(self, data: bytes) -> List[object]:
        self._to_client.append(data)
        self.bytes_relayed += len(data)
        return []
