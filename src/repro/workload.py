"""Workload generation (§5.1.2–5.1.3, §5.3).

Random rectangular queries are grounded on actual data values: each
endpoint pair is drawn from the column's values, guaranteeing the paper's
"meaningful query" assumption (every query that partially overlaps a
partition overlaps it non-trivially). Challenging queries (§5.3) are
drawn from inside the maximum-variance interval, located with a
length-δn sliding window over Σt² (the discretisation Appendix A.4 uses
for AVG queries; the ADP optimiser here minimises the SUM objective only).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .core.query import Query

#: Draws per query before a template too selective for ``min_count`` is
#: accepted as drawn.
MAX_TRIES = 50


def random_queries(
    pdf: pd.DataFrame,
    pred_cols: list[str],
    agg: str,
    n_queries: int,
    *,
    seed: int = 0,
    min_count: int = 10,
) -> list[Query]:
    """Random rectangular queries with at least ``min_count`` matching
    tuples (re-drawn up to :data:`MAX_TRIES` times)."""
    rng = np.random.default_rng(seed)
    cols = {c: pdf[c].to_numpy() for c in pred_cols}
    n = len(pdf)
    out: list[Query] = []
    while len(out) < n_queries:
        for _ in range(MAX_TRIES):
            lo, hi = [], []
            for c in pred_cols:
                v = cols[c]
                p1, p2 = v[rng.integers(0, n)], v[rng.integers(0, n)]
                lo.append(float(min(p1, p2)))
                hi.append(float(max(p1, p2)))
            q = Query(agg, tuple(pred_cols), tuple(lo), tuple(hi))
            if int(q.mask(pdf).sum()) >= min_count:
                out.append(q)
                break
        else:
            # Extremely selective template: accept the last draw anyway so
            # the generator always terminates.
            out.append(q)
    return out


def max_variance_interval(
    pdf: pd.DataFrame, pred_col: str, value_col: str, *, delta: float = 0.01
) -> tuple[float, float]:
    """Predicate range of the maximum-Σt² window of length δ·n — the
    'challenging' region of §5.3."""
    s = pdf.sort_values(pred_col)
    a = s[value_col].to_numpy(dtype=np.float64)
    c = s[pred_col].to_numpy(dtype=np.float64)
    n = len(a)
    L = max(2, int(round(delta * n)))
    csq = np.concatenate([[0.0], np.cumsum(a * a)])
    w = csq[L:] - csq[:-L]
    g = int(np.argmax(w)) + L - 1  # right endpoint of the best window
    return float(c[g - L + 1]), float(c[g])


def challenging_queries(
    pdf: pd.DataFrame,
    pred_col: str,
    value_col: str,
    agg: str,
    n_queries: int,
    *,
    delta: float = 0.01,
    widen: float = 4.0,
    seed: int = 0,
    min_count: int = 10,
) -> list[Query]:
    """Random queries drawn from (a ``widen``-times enlarged copy of) the
    maximum-variance interval."""
    lo, hi = max_variance_interval(pdf, pred_col, value_col, delta=delta)
    span = max(hi - lo, 1e-9)
    mid = (lo + hi) / 2
    region_lo, region_hi = mid - widen * span / 2, mid + widen * span / 2
    sub = pdf[(pdf[pred_col] >= region_lo) & (pdf[pred_col] <= region_hi)]
    if len(sub) < 2 * min_count:
        sub = pdf
    return random_queries(
        sub, [pred_col], agg, n_queries, seed=seed, min_count=min_count
    )
