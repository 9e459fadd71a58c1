"""Golden-vector generator for the OpenSSL-provider cipher suites.

Freezes byte-exact per-record *and* multi-record wire output for the two
suites the OpenSSL provider adds (``DHE-RSA-AES128CTR-SHA256`` 0xFF68
and ``DHE-RSA-CHACHA20-SHA256`` 0xFF69) under the same deterministic
nonce schedule as :mod:`tests.golden.gen_record_vectors`.  The existing
``record_vectors.json`` / ``batched_vectors.json`` are NOT touched —
the pure-Python suites' wire bytes are pinned there and must never
change.

Sequential groups reuse the record-vector helpers (TLS records, both
mcTLS directions with all three MAC slots, middlebox rebuild cases);
burst groups reuse the multi-record helpers, so the frozen TLS and
mcTLS bursts must equal the concatenation of the per-record wires in
the sequential groups (nonces are drawn in the same order either way).
``tests/test_provider.py`` asserts both the frozen bytes and that
cross-group identity.

Run ``python tests/golden/gen_provider_vectors.py`` to (re)generate
``provider_vectors.json`` — only for an intentional wire-format change,
never to make a failing test pass.  Requires ``cryptography``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.crypto.provider import OPENSSL
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128CTR_SHA256,
    SUITE_DHE_RSA_CHACHA20_SHA256,
)

from tests.golden.gen_batched_vectors import (
    _mctls_burst,
    _rebuild_burst,
    _tls_burst,
)
from tests.golden.gen_record_vectors import (
    _mctls_direction_vectors,
    _middlebox_rebuild_vectors,
    _patched_nonces,
    _tls_vectors,
)

PROVIDER_VECTORS_PATH = Path(__file__).resolve().parent / "provider_vectors.json"

PROVIDER_SUITES = {
    "aes128-ctr": SUITE_DHE_RSA_AES128CTR_SHA256,
    "chacha20": SUITE_DHE_RSA_CHACHA20_SHA256,
}


def build_provider_vectors() -> dict:
    if not OPENSSL.available:  # pragma: no cover - generator guard
        raise RuntimeError("cryptography unavailable; cannot build provider vectors")
    vectors = {"schema": "mctls-record-provider-golden/1", "suites": {}}
    for name, suite in PROVIDER_SUITES.items():
        with _patched_nonces():
            tls = _tls_vectors(suite)
        with _patched_nonces():
            c2s = _mctls_direction_vectors(suite, is_client=True)
        with _patched_nonces():
            s2c = _mctls_direction_vectors(suite, is_client=False)
        with _patched_nonces():
            rebuild = _middlebox_rebuild_vectors(suite)
        with _patched_nonces():
            tls_burst = _tls_burst(suite)
        with _patched_nonces():
            c2s_burst = _mctls_burst(suite, is_client=True)
        with _patched_nonces():
            s2c_burst = _mctls_burst(suite, is_client=False)
        with _patched_nonces():
            rebuild_burst = _rebuild_burst(suite)
        vectors["suites"][name] = {
            "suite_id": suite.suite_id,
            "tls": tls,
            "mctls_c2s": c2s,
            "mctls_s2c": s2c,
            "middlebox_rebuild": rebuild,
            "tls_burst": tls_burst,
            "mctls_c2s_burst": c2s_burst,
            "mctls_s2c_burst": s2c_burst,
            "middlebox_rebuild_burst": rebuild_burst,
        }
    return vectors


def main() -> int:
    vectors = build_provider_vectors()
    PROVIDER_VECTORS_PATH.write_text(
        json.dumps(vectors, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {PROVIDER_VECTORS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
