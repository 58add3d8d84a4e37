"""Correctness checks of the benchmark. They all run outside the timed region.

* :func:`leaf_problems` — the Spark-built leaf SUM/COUNT/MIN/MAX and
  predicate extents against DuckDB over the same rows, grouped by
  ``syn.assign``;
* :func:`answer_problem` — one query's hard bounds against its exact answer;
* :func:`ingest_problems` — root and leaf SUM/COUNT after a stream of
  inserts against exact totals over the base rows plus the inserted rows;
* :func:`snapshot` / :func:`same_synopsis` — leaf stats and samples of two
  builds compared exactly.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def exact_sums(x: np.ndarray, v: np.ndarray, queries) -> tuple[np.ndarray, np.ndarray]:
    """Exact SUM and COUNT of ``v`` over the rows of ``x`` (n, d) that each
    query's rectangle selects; query columns follow the columns of ``x``.
    Rows are sorted on the first column once, so that each query scans only
    the rows inside its range on that column."""
    order = np.argsort(x[:, 0], kind="stable")
    cols = [np.ascontiguousarray(x[order, j]) for j in range(x.shape[1])]
    v = v[order]
    sums = np.empty(len(queries))
    counts = np.empty(len(queries))
    for i, q in enumerate(queries):
        a = np.searchsorted(cols[0], q.lo[0], side="left")
        b = np.searchsorted(cols[0], q.hi[0], side="right")
        m = np.ones(b - a, dtype=bool)
        for c, lo, hi in zip(cols[1:], q.lo[1:], q.hi[1:]):
            m &= (c[a:b] >= lo) & (c[a:b] <= hi)
        sums[i] = v[a:b][m].sum()
        counts[i] = np.count_nonzero(m)
    return sums, counts


def running_sums(x: np.ndarray, v: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """SUM and COUNT of the rows ``q`` selects among the first 1, 2, ...
    rows of ``x``/``v``."""
    m = np.all((x >= q.lo) & (x <= q.hi), axis=1)
    return np.cumsum(np.where(m, v, 0.0)), np.cumsum(m)


def truths(queries, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exact answers of SUM/COUNT/AVG queries from their SUM and COUNT."""
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        if q.agg == "sum":
            out[i] = sums[i]
        elif q.agg == "count":
            out[i] = counts[i]
        else:
            out[i] = sums[i] / counts[i] if counts[i] else float("nan")
    return out


def answer_problem(q, res, truth: float) -> str | None:
    """Why an answer is wrong, or None.

    The hard bounds of §2.3 must hold the exact answer. The estimate must lie
    where the estimator can put it: inside the bounds for COUNT and AVG, and
    at or above the lower bound for SUM (every aggregate value here is
    positive, so each sampled stratum adds a non-negative amount).

    An AVG query none of whose sampled rows match has no estimate: ``answer``
    returns NaN for it and its CI by design (§2.1). That is not a failure;
    :func:`workloads.quality` scores it as a relative error of 1.
    """
    if not np.isfinite(truth):
        return f"exact answer is {truth}"
    tol = REL_TOL * max(1.0, abs(truth))
    if not (np.isfinite(res.lb) and np.isfinite(res.ub)):
        return f"hard bounds [{res.lb}, {res.ub}] not finite"
    if not res.lb - tol <= truth <= res.ub + tol:
        return f"exact answer {truth} outside hard bounds [{res.lb}, {res.ub}]"
    if q.agg == "avg" and np.isnan(res.est) and np.isnan(res.ci_half):
        return None
    if not (np.isfinite(res.est) and np.isfinite(res.ci_half) and res.ci_half >= 0):
        return f"estimate {res.est} or CI half-width {res.ci_half} not finite"
    hi = float("inf") if q.agg == "sum" else res.ub + tol
    if not res.lb - tol <= res.est <= hi:
        return f"estimate {res.est} outside [{res.lb}, {hi}]"
    return None


def leaf_problems(syn, pdf: pd.DataFrame) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Compare every leaf with DuckDB over ``pdf`` grouped by ``syn.assign``.

    Returns the problems found and the exact per-leaf SUM and COUNT.
    """
    cols, value = syn.pred_cols, syn.value_col
    k = len(syn.leaves)
    t = pd.DataFrame({"leaf": syn.assign(pdf[cols].to_numpy(np.float64)), "v": pdf[value]})
    for j, c in enumerate(cols):
        t[f"c{j}"] = pdf[c].astype(np.float64)
    extents = "".join(f", MIN(c{j}), MAX(c{j})" for j in range(len(cols)))
    con = duckdb.connect()
    try:
        con.register("t", t)
        rows = con.execute(
            f"SELECT leaf, SUM(v), COUNT(*), MIN(v), MAX(v){extents} FROM t GROUP BY leaf"
        ).fetchall()
    finally:
        con.close()
    sums, counts = np.zeros(k), np.zeros(k)
    problems = []
    seen = set()
    for leaf, s, n, lo, hi, *ext in rows:
        if not 0 <= leaf < k:
            problems.append(f"row assigned to leaf {leaf} of {k}")
            continue
        seen.add(leaf)
        sums[leaf], counts[leaf] = s, n
        node = syn.leaves[leaf]
        got = [node.stats.sum, node.stats.count, node.stats.min, node.stats.max]
        got += [x for pair in zip(node.pred_min, node.pred_max) for x in pair]
        want = [s, n, lo, hi, *ext]
        if not all(_close(float(g), float(w)) for g, w in zip(got, want)):
            problems.append(f"leaf {leaf}: synopsis {got} != DuckDB {want}")
    for leaf in set(range(k)) - seen:
        if syn.leaves[leaf].stats.count != 0:
            problems.append(f"leaf {leaf}: count {syn.leaves[leaf].stats.count}, DuckDB has no rows")
    return problems, sums, counts


def ingest_problems(
    syn, base_sums: np.ndarray, base_counts: np.ndarray, x: np.ndarray, v: np.ndarray
) -> list[str]:
    """Root and leaf SUM/COUNT after inserting rows ``x``/``v`` into a
    synopsis whose exact per-leaf totals were ``base_sums``/``base_counts``."""
    k = len(syn.leaves)
    lids = syn.assign(x)
    sums = base_sums + np.bincount(lids, weights=v, minlength=k)
    counts = base_counts + np.bincount(lids, minlength=k)
    problems = []
    for i, leaf in enumerate(syn.leaves):
        if not (_close(leaf.stats.sum, sums[i]) and leaf.stats.count == counts[i]):
            problems.append(
                f"leaf {i}: SUM/COUNT {leaf.stats.sum}/{leaf.stats.count}, exact {sums[i]}/{counts[i]}"
            )
    root = syn.root.stats
    if not (_close(root.sum, sums.sum()) and root.count == counts.sum()):
        problems.append(f"root: SUM/COUNT {root.sum}/{root.count}, exact {sums.sum()}/{counts.sum()}")
    return problems


def snapshot(syn):
    """Leaf stats and extents plus every sampled row, copied."""
    leaves = np.array(
        [
            [l.stats.sum, l.stats.count, l.stats.min, l.stats.max, *l.pred_min, *l.pred_max]
            for l in syn.leaves
        ]
    )
    samples = {lid: (x.copy(), v.copy()) for lid, (x, v) in syn.samples.items()}
    return leaves, samples


def same_synopsis(a, b) -> bool:
    """Whether two snapshots are identical, bit for bit."""
    (la, sa), (lb, sb) = a, b
    if la.shape != lb.shape or not np.array_equal(la, lb, equal_nan=True) or sa.keys() != sb.keys():
        return False
    return all(
        np.array_equal(sa[k][0], sb[k][0]) and np.array_equal(sa[k][1], sb[k][1]) for k in sa
    )
