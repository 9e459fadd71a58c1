"""Figure 4: page load time CDF across mcTLS context strategies.

Paper finding: 1-Context, 4-Context and Context-per-Header perform the
same (mcTLS is insensitive to context assignment), with Nagle-off curves
slightly left of Nagle-on.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import BENCH_PAGES, emit, format_table, quick_testbed

from repro.experiments.page_load import figure4
from repro.experiments.stats import percentiles
from repro.workloads import generate_corpus


def test_fig4_plt_strategies(benchmark, capsys):
    bed = quick_testbed()
    corpus = generate_corpus(n_pages=BENCH_PAGES, seed=2015)
    rows = benchmark.pedantic(
        lambda: figure4(bed, corpus), rounds=1, iterations=1
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
        "fig4_plt_strategies",
        f"Page load time percentiles (s), {BENCH_PAGES} synthetic pages\n"
        + format_table(["strategy", "p10", "p25", "p50", "p75", "p90"], table_rows),
        capsys,
    )
