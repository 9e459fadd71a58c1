"""An HTTP cache proxy (Table 1 row: Cache).

Permissions: read request headers; read/write response headers and body.

mcTLS record semantics forbid a middlebox from injecting records, so an
in-session cache cannot short-circuit a request the way a cleartext cache
would.  What it *can* do — and what this app does — is maintain the cache
(keyed by ``Host + target``), annotate responses with ``X-Cache:
HIT|MISS`` so downstream parties observe cachability, and expose hit
statistics.  Serving from cache would happen at session setup (the client
opens its session *to the cache*, which is then an endpoint, not a
middlebox) — a deployment choice the paper discusses in §4.2.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.http.messages import HttpParser
from repro.mctls.contexts import Permission
from repro.middleboxes.base import HttpMiddleboxApp, PermissionSpec


class CacheProxy(HttpMiddleboxApp):
    DISPLAY_NAME = "Cache"
    PERMISSIONS = PermissionSpec(
        request_headers=Permission.READ,
        response_headers=Permission.WRITE,
        response_body=Permission.WRITE,
    )

    def __init__(self, name, config, max_entries: int = 1024):
        super().__init__(name, config)
        self.max_entries = max_entries
        self._request_parser = HttpParser("request")
        self._pending_urls = []  # FIFO of URLs awaiting their responses
        self._current_url: Optional[str] = None
        self._current_body = bytearray()
        self._current_cacheable = False
        self.store: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    # -- request side (read-only) ---------------------------------------

    def observe_request_headers(self, payload: bytes) -> None:
        for request in self._request_parser.feed(payload):
            host = request.get_header("Host") or ""
            self._pending_urls.append(f"{host}{request.target}")

    # -- response side (read/write) -----------------------------------------

    def transform_response_headers(self, payload: bytes) -> bytes:
        if not self._pending_urls:
            return payload
        self._finish_current()
        self._current_url = self._pending_urls.pop(0)
        if self._current_url in self.store:
            self.hits += 1
            verdict = b"HIT"
            self._current_cacheable = False
        else:
            self.misses += 1
            verdict = b"MISS"
            self._current_cacheable = True
        # Annotate: insert the X-Cache header before the terminating CRLF.
        if payload.endswith(b"\r\n\r\n"):
            return payload[:-2] + b"X-Cache: " + verdict + b"\r\n\r\n"
        return payload

    def transform_response_body(self, payload: bytes) -> bytes:
        if self._current_cacheable:
            self._current_body += payload
        return payload

    def _finish_current(self) -> None:
        if self._current_url is not None and self._current_cacheable:
            if len(self.store) < self.max_entries:
                self.store[self._current_url] = bytes(self._current_body)
        self._current_url = None
        self._current_body = bytearray()
        self._current_cacheable = False

    def flush(self) -> None:
        """Commit the in-flight response to the cache (call at idle)."""
        self._finish_current()
