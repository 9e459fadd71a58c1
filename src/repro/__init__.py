"""Reproduction of mcTLS (Naylor et al., SIGCOMM 2015).

Multi-context TLS extends TLS with encryption contexts and explicit,
least-privilege middleboxes.  Package map:

* :mod:`repro.mctls` — the protocol (client, server, middlebox, contexts,
  keys, record layer, discovery, fallback, compliance data)
* :mod:`repro.tls` — the TLS 1.2 substrate and baseline protocol
* :mod:`repro.crypto` — from-scratch primitives (AES, DHE, RSA, PRF, PKI)
* :mod:`repro.http` — HTTP/1.1 + context strategies + stream multiplexing
* :mod:`repro.middleboxes` — the Table 1 applications
* :mod:`repro.baselines` — SplitTLS / E2E-TLS / NoEncrypt
* :mod:`repro.netsim` — deterministic network simulator (TCP with Nagle)
* :mod:`repro.workloads` / :mod:`repro.experiments` — the paper's evaluation
* :mod:`repro.core` — the sans-I/O seam every stack implements, and the
  shared endpoint / relay base they extend
* :mod:`repro.aio` — the real-socket runtime: client, endpoint and relay
  servers on one event loop in one process, and the load generator
* :mod:`repro.trace` — wire-stream decoder for debugging

Entry point for new users: ``examples/quickstart.py``.
"""

__version__ = "1.0.0"
