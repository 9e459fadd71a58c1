"""Figure 6: page load time CDF, mcTLS vs the baselines.

Paper finding: SplitTLS, E2E-TLS and NoEncrypt perform the same; mcTLS
with Nagle adds half a second or more (multiple per-context sends stall);
disabling Nagle closes the gap — "mcTLS has no impact on real world Web
page load times."
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import BENCH_PAGES, emit, format_table, quick_testbed

from repro.experiments.page_load import figure6
from repro.experiments.stats import percentiles
from repro.workloads import generate_corpus


def test_fig6_plt_protocols(benchmark, capsys):
    bed = quick_testbed()
    corpus = generate_corpus(n_pages=BENCH_PAGES, seed=2015)
    rows = benchmark.pedantic(
        lambda: figure6(bed, corpus), rounds=1, iterations=1
    )
    by_label = {}
    for r in rows:
        by_label.setdefault(r.label, []).append(r.plt_s)
    table_rows = []
    for label in sorted(by_label):
        p10, p25, p50, p75, p90 = percentiles(by_label[label])
        table_rows.append(
            [label, f"{p10:.2f}", f"{p25:.2f}", f"{p50:.2f}", f"{p75:.2f}", f"{p90:.2f}"]
        )
    emit(
        "fig6_plt_protocols",
        f"Page load time percentiles (s), {BENCH_PAGES} synthetic pages\n"
        + format_table(["series", "p10", "p25", "p50", "p75", "p90"], table_rows),
        capsys,
    )
