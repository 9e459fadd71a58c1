"""NoEncrypt: plain TCP endpoints and relay.

The cleartext baseline.  :class:`PlainConnection` implements the
:class:`repro.core.Connection` protocol over nothing at all (the
"handshake" completes instantly, bytes pass through untouched), so
harness code treats all six protocol modes uniformly;
:class:`PlainRelay` forwards bytes and can observe or transform them —
a cleartext middlebox sees everything.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.endpoint import Endpoint, RelayQueues
from repro.core.events import ApplicationData, Event, HandshakeComplete


class PlainConnection(Endpoint):
    """A no-op 'secure' connection: bytes in, bytes out.

    The shared endpoint with no record layer: only the intake, the
    (instant) handshake and ``close`` (plain TCP has no close_notify)
    are its own.
    """

    def start_handshake(self) -> None:
        """No handshake on plain TCP; completes instantly."""
        if not self.handshake_complete:
            self.handshake_complete = True
            self._emit(HandshakeComplete(cipher_suite="none"))

    def receive_data(self, data: bytes) -> List[Event]:
        if not self.handshake_complete:
            self.start_handshake()
        if data:
            self._emit(ApplicationData(data=data))
        return self._drain_events()

    def send_application_data(self, data: bytes, context_id: int = 0) -> None:
        if self.instruments is not None:
            self.instruments.inc("records.out")
            self.instruments.inc(f"context.{context_id}.bytes_out", len(data))
        self._out.append(data)

    def close(self) -> None:
        self.closed = True


class PlainRelay(RelayQueues):
    """A cleartext relay with optional transform/observe hooks."""

    def __init__(
        self,
        transformer: Optional[Callable[[str, bytes], bytes]] = None,
        observer: Optional[Callable[[str, bytes], None]] = None,
    ):
        super().__init__()
        self.transformer = transformer
        self.observer = observer

    def _relay(self, direction: str, data: bytes, out: List[bytes]) -> List[Event]:
        if self.transformer is not None:
            data = self.transformer(direction, data)
        if self.observer is not None:
            self.observer(direction, data)
        out.append(data)
        return []

    def receive_from_client(self, data: bytes) -> List[Event]:
        return self._relay("c2s", data, self._to_server)

    def receive_from_server(self, data: bytes) -> List[Event]:
        return self._relay("s2c", data, self._to_client)
