"""Optional fixes for the reader-policing gap (§3.4).

With the standard endpoint-writer-reader MAC scheme, readers cannot
detect *illegal modifications made by other readers* (everyone holding
``K_readers`` can forge a readers MAC).  The paper sketches two optional
remedies and judges their overhead not generally worthwhile, suggesting
they "could be implemented as optional modes negotiated during the
handshake":

(a) **pairwise MACs** — writers/endpoints share a pairwise key with each
    reader and append one extra MAC per reader;
(b) **signatures** — endpoints/writers append a digital signature
    instead of the writers MAC, which readers can verify but not forge.

This module implements both as record-level codecs so their security and
overhead can be tested and benchmarked (the ablation bench quantifies
exactly the cost the paper declined to pay by default).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.mctls.record import McTLSRecordError, mac_input

# Each pairwise MAC is a full HMAC-SHA256 digest.
MAC_LEN = hashlib.sha256().digest_size


def _mac(key: bytes, data: bytes) -> bytes:
    return _hmac.new(key, data, hashlib.sha256).digest()


# -- option (a): pairwise reader MACs ---------------------------------------


@dataclass
class PairwiseReaderMACs:
    """Writers/endpoints append one MAC per reader under a pairwise key.

    ``reader_keys`` maps reader id → pairwise key (each shared between
    that reader and every writer/endpoint).  A reader verifies *its own*
    MAC, which no other reader can forge.
    """

    reader_keys: Dict[int, bytes]

    def protect(
        self, seq: int, content_type: int, context_id: int, payload: bytes
    ) -> bytes:
        """Append the per-reader MAC trailer (reader-id order)."""
        trailer = b"".join(
            _mac(key, mac_input(seq, content_type, context_id, payload))
            for _, key in sorted(self.reader_keys.items())
        )
        return payload + trailer

    def verify(
        self,
        reader_id: int,
        seq: int,
        content_type: int,
        context_id: int,
        protected: bytes,
    ) -> bytes:
        """Verify reader ``reader_id``'s MAC; returns the payload."""
        n = len(self.reader_keys)
        if len(protected) < n * MAC_LEN:
            raise McTLSRecordError("record shorter than its pairwise MAC trailer")
        payload = protected[: -n * MAC_LEN]
        trailer = protected[-n * MAC_LEN :]
        ordered_ids = sorted(self.reader_keys)
        index = ordered_ids.index(reader_id)
        mac = trailer[index * MAC_LEN : (index + 1) * MAC_LEN]
        expected = _mac(
            self.reader_keys[reader_id],
            mac_input(seq, content_type, context_id, payload),
        )
        if not _hmac.compare_digest(mac, expected):
            raise McTLSRecordError(
                "pairwise reader MAC verification failed (reader-level tampering)"
            )
        return payload

    def overhead_bytes(self) -> int:
        return len(self.reader_keys) * MAC_LEN


# -- option (b): writer signatures ------------------------------------------


@dataclass
class WriterSignatures:
    """Endpoints/writers sign records; readers verify but cannot forge."""

    signing_key: RSAPrivateKey

    def protect(
        self, seq: int, content_type: int, context_id: int, payload: bytes
    ) -> bytes:
        signature = self.signing_key.sign(
            mac_input(seq, content_type, context_id, payload)
        )
        return payload + len(signature).to_bytes(2, "big") + signature

    @staticmethod
    def verify(
        verify_keys: Sequence[RSAPublicKey],
        seq: int,
        content_type: int,
        context_id: int,
        protected: bytes,
    ) -> bytes:
        """Verify against any authorized writer/endpoint key."""
        if len(protected) < 2:
            raise McTLSRecordError("record shorter than its signature trailer")
        # Trailer layout: payload || len(2) || signature.  Try each
        # authorized key's modulus size from the end of the record.
        for key in verify_keys:
            k = key.byte_length
            if len(protected) < 2 + k:
                continue
            length = int.from_bytes(protected[-(k + 2) : -k], "big")
            if length != k:
                continue
            payload = protected[: -(k + 2)]
            signature = protected[-k:]
            covered = mac_input(seq, content_type, context_id, payload)
            if key.verify(covered, signature):
                return payload
        raise McTLSRecordError("writer signature verification failed")

    def overhead_bytes(self) -> int:
        return 2 + self.signing_key.byte_length
