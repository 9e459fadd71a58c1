"""Small statistics helpers shared by experiments and benchmarks."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0..1): the sorted element at 0-based rank
    ⌊q·n⌋, capped at the last.  This is not nearest rank: p90 of 1..10 is
    10 here, where nearest rank gives 9."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (0.10, 0.25, 0.50, 0.75, 0.90)
) -> List[float]:
    return [percentile(values, q) for q in qs]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def cdf_points(values: Sequence[float], points: int = 100) -> List[Tuple[float, float]]:
    """(value, cumulative_fraction) pairs suitable for plotting."""
    if not values:
        raise ValueError("cannot build a CDF of no values")
    ordered = sorted(values)
    out = []
    for i in range(points + 1):
        fraction = i / points
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        out.append((ordered[index], fraction))
    return out


def group_by(rows: Sequence[object], key: str) -> Dict[object, List[object]]:
    """Group result rows by an attribute."""
    grouped: Dict[object, List[object]] = {}
    for row in rows:
        grouped.setdefault(getattr(row, key), []).append(row)
    return grouped
