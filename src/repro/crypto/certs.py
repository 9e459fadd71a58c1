"""A minimal X.509-like certificate infrastructure.

Real TLS uses ASN.1/DER X.509; nothing in the mcTLS design depends on the
encoding details, so we use a compact length-prefixed format carrying the
fields that matter to the protocol: subject name, issuer name, RSA public
key, serial number, CA flag, and an RSA PKCS#1 v1.5 signature by the
issuer over the to-be-signed bytes.

Chain building and verification mirror what browsers do for TLS: walk from
the leaf to a trusted self-signed root, checking each signature and that
intermediates carry the CA flag, then check that the leaf's subject matches
the expected name.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.crypto.rsa import RSAError, RSAPrivateKey, RSAPublicKey, generate_rsa_key
from repro.wire import DecodeError


class CertificateError(Exception):
    """Raised when certificate parsing or chain validation fails."""


class CertificateDecodeError(CertificateError, DecodeError):
    """The one error :meth:`Certificate.from_bytes` raises for malformed
    bytes.  Also a :class:`~repro.wire.DecodeError`, so every connection
    class that decodes a Certificate message ends the handshake through
    its existing decode-failure path (fatal alert, typed ``TLSError``)."""


def _pack_bytes(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise CertificateError("certificate field too long")
    return len(data).to_bytes(2, "big") + data


class _Reader:
    """Sequential reader for the length-prefixed certificate encoding."""

    def __init__(self, data: bytes):
        self._data = data
        self._offset = 0

    def take(self, n: int) -> bytes:
        if self._offset + n > len(self._data):
            raise CertificateDecodeError("truncated certificate")
        chunk = self._data[self._offset : self._offset + n]
        self._offset += n
        return chunk

    def take_field(self) -> bytes:
        n = int.from_bytes(self.take(2), "big")
        return self.take(n)

    @property
    def exhausted(self) -> bool:
        return self._offset == len(self._data)


@dataclass(frozen=True)
class Certificate:
    """A signed binding between a subject name and an RSA public key."""

    subject: str
    issuer: str
    public_key: RSAPublicKey
    serial: int
    is_ca: bool
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The to-be-signed encoding (everything except the signature)."""
        return (
            _pack_bytes(self.subject.encode("utf-8"))
            + _pack_bytes(self.issuer.encode("utf-8"))
            + _pack_bytes(self.public_key.to_bytes())
            + self.serial.to_bytes(8, "big")
            + (b"\x01" if self.is_ca else b"\x00")
        )

    def to_bytes(self) -> bytes:
        return self.tbs_bytes() + _pack_bytes(self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        reader = _Reader(data)
        try:
            subject = reader.take_field().decode("utf-8")
            issuer = reader.take_field().decode("utf-8")
            public_key = RSAPublicKey.from_bytes(reader.take_field())
        except (UnicodeDecodeError, RSAError) as exc:
            raise CertificateDecodeError(f"malformed certificate: {exc}") from exc
        serial = int.from_bytes(reader.take(8), "big")
        is_ca = reader.take(1) == b"\x01"
        signature = reader.take_field()
        if not reader.exhausted:
            raise CertificateDecodeError("trailing bytes after certificate")
        return cls(
            subject=subject,
            issuer=issuer,
            public_key=public_key,
            serial=serial,
            is_ca=is_ca,
            signature=signature,
        )

    @property
    def is_self_signed(self) -> bool:
        return self.subject == self.issuer

    def verify_signature(self, issuer_key: RSAPublicKey) -> bool:
        return issuer_key.verify(self.tbs_bytes(), self.signature)


@dataclass
class CertificateAuthority:
    """A certificate issuer with its own (possibly self-signed) certificate."""

    name: str
    key: RSAPrivateKey
    certificate: Certificate

    @classmethod
    def create_root(cls, name: str, key_bits: int = 2048) -> "CertificateAuthority":
        """Create a self-signed root CA."""
        key = generate_rsa_key(key_bits)
        tbs = Certificate(
            subject=name,
            issuer=name,
            public_key=key.public_key,
            serial=secrets.randbits(63),
            is_ca=True,
            signature=b"",
        )
        signed = Certificate(
            subject=tbs.subject,
            issuer=tbs.issuer,
            public_key=tbs.public_key,
            serial=tbs.serial,
            is_ca=tbs.is_ca,
            signature=key.sign(tbs.tbs_bytes()),
        )
        return cls(name=name, key=key, certificate=signed)

    def issue(
        self,
        subject: str,
        public_key: RSAPublicKey,
        is_ca: bool = False,
    ) -> Certificate:
        """Issue a certificate for ``subject`` binding ``public_key``."""
        tbs = Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            serial=secrets.randbits(63),
            is_ca=is_ca,
            signature=b"",
        )
        return Certificate(
            subject=tbs.subject,
            issuer=tbs.issuer,
            public_key=tbs.public_key,
            serial=tbs.serial,
            is_ca=tbs.is_ca,
            signature=self.key.sign(tbs.tbs_bytes()),
        )

    def issue_intermediate(self, name: str, key_bits: int = 2048) -> "CertificateAuthority":
        """Create a subordinate CA whose certificate this CA signs."""
        key = generate_rsa_key(key_bits)
        cert = self.issue(name, key.public_key, is_ca=True)
        return CertificateAuthority(name=name, key=key, certificate=cert)


@dataclass(frozen=True)
class Identity:
    """A certified endpoint or middlebox: key pair + certificate chain.

    ``chain`` is ordered leaf-first and excludes the trusted root.
    """

    name: str
    key: RSAPrivateKey
    chain: Sequence[Certificate]

    @property
    def certificate(self) -> Certificate:
        return self.chain[0]

    @classmethod
    def issued_by(
        cls, ca: CertificateAuthority, name: str, key_bits: int = 2048
    ) -> "Identity":
        key = generate_rsa_key(key_bits)
        cert = ca.issue(name, key.public_key)
        chain: List[Certificate] = [cert]
        if not ca.certificate.is_self_signed:
            chain.append(ca.certificate)
        return cls(name=name, key=key, chain=tuple(chain))


def verify_chain(
    chain: Sequence[Certificate],
    trusted_roots: Iterable[Certificate],
    expected_subject: Optional[str] = None,
) -> Certificate:
    """Validate a leaf-first certificate chain against trusted roots.

    Returns the leaf certificate on success; raises
    :class:`CertificateError` on any failure.  Counted as one
    ``asym_verify`` per signature checked (inside :meth:`RSAPublicKey.verify`).
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    roots = {(c.subject, c.public_key.n): c for c in trusted_roots}
    leaf = chain[0]
    if expected_subject is not None and leaf.subject != expected_subject:
        raise CertificateError(
            f"subject mismatch: expected {expected_subject!r}, got {leaf.subject!r}"
        )

    current = leaf
    for issuer_cert in list(chain[1:]) + [None]:
        # Is the current certificate's issuer a trusted root?
        root = next(
            (r for (subj, _n), r in roots.items() if subj == current.issuer), None
        )
        if root is not None:
            if not current.verify_signature(root.public_key):
                raise CertificateError("signature by trusted root does not verify")
            return leaf
        if issuer_cert is None:
            raise CertificateError("chain does not terminate at a trusted root")
        if issuer_cert.subject != current.issuer:
            raise CertificateError("chain is out of order")
        if not issuer_cert.is_ca:
            raise CertificateError("intermediate certificate is not a CA")
        if not current.verify_signature(issuer_cert.public_key):
            raise CertificateError("intermediate signature does not verify")
        current = issuer_cert
    raise CertificateError("chain does not terminate at a trusted root")
