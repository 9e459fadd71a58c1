"""Record-protection throughput per cipher suite and protocol.

Not a paper figure — this bench quantifies the reproduction's
cipher-suite substitution: the SHA-CTR suite the simulation benches use
against the paper's AES-128-CBC, which runs on libcrypto's EVP where the
seam binds (``cipher_backend=openssl-evp``) and on pure-Python AES,
orders of magnitude slower, where it does not (``python``).  The record
*geometry* (what the paper's numbers depend on) is near-identical.  It
also shows the mcTLS-vs-TLS record cost ratio: three HMACs +
per-context keying vs one HMAC.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import emit, format_table

from repro.crypto.evp import CIPHER_BACKEND
from repro.crypto.fastcipher import KEYSTREAM_BACKEND
from repro.mctls import keys as mk
from repro.mctls.record import McTLSRecordLayer
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
)
from repro.tls.record import APPLICATION_DATA, RecordLayer

PAYLOAD = b"x" * 16000  # near-full record
FAST_BYTES = 8_000_000
# Pure-Python AES is slow: keep its round small when it is what runs.
AES_BYTES = FAST_BYTES if CIPHER_BACKEND == "openssl-evp" else 256_000


def _tls_layer(suite):
    layer = RecordLayer()
    layer.write_state.activate(suite, suite.new_cipher(bytes(16)), b"m" * 32)
    return layer


def _mctls_layer(suite):
    layer = McTLSRecordLayer(is_client=True)
    layer.set_suite(suite)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    layer.install_context_keys(1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1))
    layer.activate_write()
    return layer


def _measure(encode, total_bytes):
    rounds = max(1, total_bytes // len(PAYLOAD))
    start = time.process_time()
    wire_len = 0
    for _ in range(rounds):
        wire_len = len(encode(PAYLOAD))
    elapsed = time.process_time() - start
    mbps = rounds * len(PAYLOAD) / elapsed / 1e6
    overhead_pct = 100.0 * (wire_len - len(PAYLOAD)) / len(PAYLOAD)
    return mbps, overhead_pct


def test_record_throughput(benchmark, capsys):
    def run():
        rows = []
        configs = [
            ("TLS / AES-128-CBC", _tls_layer(SUITE_DHE_RSA_AES128_CBC_SHA256), AES_BYTES,
             lambda layer: lambda p: layer.encode(APPLICATION_DATA, p)),
            ("TLS / SHA-CTR", _tls_layer(SUITE_DHE_RSA_SHACTR_SHA256), FAST_BYTES,
             lambda layer: lambda p: layer.encode(APPLICATION_DATA, p)),
            ("mcTLS / AES-128-CBC", _mctls_layer(SUITE_DHE_RSA_AES128_CBC_SHA256), AES_BYTES,
             lambda layer: lambda p: layer.encode(APPLICATION_DATA, p, 1)),
            ("mcTLS / SHA-CTR", _mctls_layer(SUITE_DHE_RSA_SHACTR_SHA256), FAST_BYTES,
             lambda layer: lambda p: layer.encode(APPLICATION_DATA, p, 1)),
        ]
        for name, layer, budget, make_encode in configs:
            mbps, overhead = _measure(make_encode(layer), budget)
            rows.append([name, f"{mbps:.2f}", f"{overhead:.2f}%"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "record_throughput",
        "Record protection throughput (16 kB records, single direction; "
        f"AES-128-CBC cipher_backend={CIPHER_BACKEND}, "
        f"SHA-CTR keystream_backend={KEYSTREAM_BACKEND})\n"
        + format_table(["configuration", "MB/s", "wire overhead"], rows)
        + "\n\nSHA-CTR preserves record geometry at tractable speed on any host,"
        "\nlibcrypto or not — the substitution the simulation benches and the"
        "\nscoreboard rely on (EXPERIMENTS.md #1).",
        capsys,
    )
