"""Experiment implementations, one module per paper table/figure.

=================  =====================================================
module             reproduces
=================  =====================================================
``opcounts``       Table 3 — crypto operations per handshake
``handshake_time`` Figure 3 — time to first byte vs contexts/middleboxes
``page_load``      Figures 4 & 6 — page load time CDFs
``throughput``     Figure 5 — handshakes/sec at server and middlebox
``transfer``       Figure 7 — file download times
``handshake_size`` Figure 8 — handshake sizes
``overhead``       §5.2 — record MAC/data volume overhead
``harness``        the bed and its stack factories, plus what the figures
                   share: one in-memory handshake
                   (``build_cell`` / ``drive_handshake``, and
                   ``profile_handshake`` with every party behind a
                   ``ProfiledNode``) for Table 3 and Figs. 5 and 8, and
                   one simulated request/response (``Exchange`` /
                   ``simulate_exchange``) for Figs. 3 and 7
=================  =====================================================

Each experiment is a plain function returning structured rows; the
``benchmarks/`` directory wraps them in pytest-benchmark entries that
print paper-style tables.
"""

from repro.experiments.harness import Mode, TestBed

__all__ = ["Mode", "TestBed"]
