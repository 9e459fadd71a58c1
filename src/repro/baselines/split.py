"""SplitTLS: today's TLS interception practice (§2.2).

The middlebox holds a *custom root* certificate that has been installed
in the client's trust store (e.g. by an enterprise administrator).  It
presents a certificate for the intended server name signed by that root
(minted once per name and cached) and terminates the client's TLS
connection itself; a second, independent TLS connection carries the data
on to the real server.  Everything is decrypted and re-encrypted in the
middle, and the middlebox has unrestricted read/write access — the
all-or-nothing model mcTLS replaces.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.endpoint import RelayQueues
from repro.crypto.certs import Identity
from repro.tls.client import TLSClient
from repro.tls.connection import ApplicationData, Event, TLSConfig
from repro.tls.server import TLSServer


class SplitTLSRelay(RelayQueues):
    """A TLS-terminating middlebox using an interception CA.

    ``forged_identity`` is the certificate the relay impersonates the
    server with, issued by a root the client must trust (real proxies
    mint one per server name and cache it); ``upstream_config``
    configures the relay's own TLS client towards the real server.
    ``transformer``/``observer`` see *all* plaintext in both directions —
    split TLS has no least privilege.
    """

    def __init__(
        self,
        forged_identity: Identity,
        upstream_config: TLSConfig,
        transformer: Optional[Callable[[str, bytes], bytes]] = None,
        observer: Optional[Callable[[str, bytes], None]] = None,
    ):
        super().__init__()
        self.transformer = transformer
        self.observer = observer

        downstream_config = TLSConfig(
            identity=forged_identity,
            cipher_suites=upstream_config.cipher_suites,
            dh_group=upstream_config.dh_group,
        )
        self.client_side = TLSServer(downstream_config)  # we act as the server
        self.server_side = TLSClient(upstream_config)  # we act as the client
        self.server_side.start_handshake()

        self._pending_to_server: List[bytes] = []
        self._pending_to_client: List[bytes] = []
        self._collect()

    # -- relay interface ------------------------------------------------------

    def ready_to_dial_upstream(self) -> bool:
        """A transparent split-TLS proxy contacts the real server only
        once the client-side handshake has completed and the first
        decrypted request bytes are in hand (squid-style behaviour; this
        is what makes SplitTLS cost the same 4-RTT TTFB as E2E-TLS in the
        paper's Figure 3)."""
        return bool(self.client_side.handshake_complete and self._pending_to_server)

    def receive_from_client(self, data: bytes) -> List[Event]:
        return self._receive(self.client_side, "c2s", data)

    def receive_from_server(self, data: bytes) -> List[Event]:
        return self._receive(self.server_side, "s2c", data)

    # -- plumbing ----------------------------------------------------------------

    def _receive(self, side, direction: str, data: bytes) -> List[Event]:
        try:
            events = side.receive_data(data)
            for event in events:
                if isinstance(event, ApplicationData):
                    self._forward(direction, event.data)
            self._flush_pending()
        finally:
            # Also on failure: the side's fatal alert must reach its peer.
            self._collect()
        return events

    def _collect(self) -> None:
        """Move what the two TLS connections queued onto the relay's
        own out-queues."""
        self._to_client += self.client_side.data_to_send_views()
        self._to_server += self.server_side.data_to_send_views()

    def _forward(self, direction: str, payload: bytes) -> None:
        if self.transformer is not None:
            payload = self.transformer(direction, payload)
        if self.observer is not None:
            self.observer(direction, payload)
        if direction == "c2s":
            if self.server_side.handshake_complete:
                self.server_side.send_application_data(payload)
            else:
                self._pending_to_server.append(payload)
        else:
            if self.client_side.handshake_complete:
                self.client_side.send_application_data(payload)
            else:
                self._pending_to_client.append(payload)

    def _flush_pending(self) -> None:
        if self.server_side.handshake_complete and self._pending_to_server:
            for payload in self._pending_to_server:
                self.server_side.send_application_data(payload)
            self._pending_to_server.clear()
        if self.client_side.handshake_complete and self._pending_to_client:
            for payload in self._pending_to_client:
                self.client_side.send_application_data(payload)
            self._pending_to_client.clear()
