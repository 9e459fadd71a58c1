"""Compare two result files written by ``run.py`` (all-workloads form).

    python3 benchmarks/e2e/compare.py parent.json change.json

For every end-to-end metric x workload it prints one verdict:

* ``regressed``  - the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` - the run-to-run spread is wider than the bound and the
  two sides' runs overlap, so neither "regressed" nor "unchanged" can be
  said;
* ``improved``   - better by more than the spread between runs (by more
  than the bound when a side has fewer than four runs to take a spread
  from);
* ``unchanged``  - everything else.

Per-layer metrics have no bound; their medians are printed side by side
so a saving can be followed into the layer it came from.  The exit
status is 1 only when something regressed.  Files made with
``run.py --repeat N`` carry N runs per cell; the bounds travel in the
files, so two files always get judged by the bounds they were made with.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List


def cells(document: dict, kind: str) -> Dict[str, List[float]]:
    """``workload/metric`` -> one value per set in the file."""
    out: Dict[str, List[float]] = {}
    for result_set in document["sets"]:
        for workload, entry in result_set.items():
            for name, cell in entry.get(kind, {}).get("metrics", {}).items():
                out.setdefault(f"{workload}/{name}", []).append(cell["value"])
    return out


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median; 0 when unknown."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    a, b = statistics.median(parent), statistics.median(change)
    if a == 0:
        return "unchanged" if b == 0 else "unresolved"
    worse_by = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    noise = max(spread(parent), spread(change))
    overlap = min(parent) <= max(change) and min(change) <= max(parent)
    if noise > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    resolution = noise if min(len(parent), len(change)) >= 4 else bound
    return "improved" if -worse_by > resolution else "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as first, open(argv[2]) as second:
        parent, change = json.load(first), json.load(second)
    bounds = parent["bounds"]
    regressions = 0
    a_cells, b_cells = cells(parent, "end_to_end"), cells(change, "end_to_end")
    print(f"{'workload/metric':42s} {'parent':>12s} {'change':>12s} {'delta':>8s}  verdict")
    for key in a_cells:
        if key not in b_cells:
            continue
        spec = bounds[key.split("/", 1)[1]]
        a, b = statistics.median(a_cells[key]), statistics.median(b_cells[key])
        outcome = verdict(a_cells[key], b_cells[key], spec["better"], spec["bound"])
        regressions += outcome == "regressed"
        delta = f"{(b - a) / abs(a):+8.1%}" if a else "     n/a"
        print(f"{key:42s} {a:12.5g} {b:12.5g} {delta}  {outcome}")
    a_layers, b_layers = cells(parent, "per_layer"), cells(change, "per_layer")
    if a_layers and b_layers:
        print(f"\n{'per-layer (no bound)':62s} {'parent':>12s} {'change':>12s} {'delta':>8s}")
        for key in a_layers:
            if key in b_layers:
                a, b = statistics.median(a_layers[key]), statistics.median(b_layers[key])
                delta = f"{(b - a) / abs(a):+8.1%}" if a else "     n/a"
                print(f"{key:62s} {a:12.5g} {b:12.5g} {delta}")
    print(f"\n{regressions} regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
