"""Brute-force references for the vectorised partitioner, tree, estimator and
Spark build code, the vectorised insert, and a Spark-free way to build a
:class:`PassSynopsis` from numpy arrays."""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core.partitioner import Router1D
from repro.core.spark_build import LEAF_COL
from repro.core.synopsis import PassSynopsis
from repro.core.tree import NodeStats, Tree, build_tree, mcf
from repro.core.variance import cal_v


def leaf_stats(x: np.ndarray, v: np.ndarray, lids: np.ndarray, n_leaves: int) -> NodeStats:
    """Exact per-leaf aggregates of rows ``x``/``v`` assigned to ``lids``,
    one row at a time."""
    leaves = NodeStats.empty(n_leaves, x.shape[1])
    for row, val, lid in zip(x, v, lids):
        leaves.sum[lid] += val
        leaves.count[lid] += 1
        leaves.min[lid] = min(leaves.min[lid], val)
        leaves.max[lid] = max(leaves.max[lid], val)
        leaves.pmin[lid] = np.minimum(leaves.pmin[lid], row)
        leaves.pmax[lid] = np.maximum(leaves.pmax[lid], row)
    return leaves


def children(tree: Tree, i: int) -> list[int]:
    """Child node indices of node ``i`` (pre-order: the first child follows
    its parent, each next child follows its elder sibling's subtree)."""
    out, c = [], i + 1
    while c < tree.end[i]:
        out.append(c)
        c = int(tree.end[c])
    return out


def classify_one(nodes: NodeStats, i: int, lo, hi) -> str:
    """The covered/partial/none rule for one node, written out per node."""
    if nodes.count[i] == 0:
        return "none"
    if np.any(nodes.pmax[i] < lo) or np.any(nodes.pmin[i] > hi):
        return "none"
    if np.all(lo <= nodes.pmin[i]) and np.all(nodes.pmax[i] <= hi):
        return "covered"
    return "partial"


def mcf_recursive(tree: Tree, lo, hi):
    """Algorithm 1 as a depth-first search from the root: stop at covered
    nodes, descend partial ones, keep partial leaves. Returns two node-index
    lists in visit order."""
    nodes = tree.nodes
    covered: list[int] = []
    partial: list[int] = []

    def visit(i: int) -> None:
        cls = classify_one(nodes, i, lo, hi)
        if cls == "none":
            return
        if cls == "covered":
            covered.append(i)
            return
        kids = children(tree, i)
        if not kids:
            partial.append(i)
        for c in kids:
            visit(c)

    visit(0)
    return covered, partial


def cover_count(tree: Tree, idx: np.ndarray) -> np.ndarray:
    """For every node, how many of the subtrees rooted at ``idx`` hold it
    (its own included): +1 at each root, −1 at its subtree end, summed."""
    n = len(tree.leaf_id)
    marks = np.bincount(idx, minlength=n + 1) - np.bincount(tree.end[idx], minlength=n + 1)
    return np.cumsum(marks[:n])


def sample_only_leaves_mcf(tree: Tree, lo, hi) -> np.ndarray:
    """The strata a sample-only answer read before it classified leaves
    directly: run MCF, then take every non-empty leaf under a covered
    frontier node and every partial leaf, in pre-order."""
    covered, partial = mcf(tree, lo, hi)
    under = cover_count(tree, covered) > 0
    under[partial] = True
    return np.flatnonzero(under & (tree.leaf_id >= 0) & (tree.nodes.count > 0))


def stratum_estimate_one(agg: str, values: np.ndarray, mask: np.ndarray, n_stratum: float):
    """One stratum's (estimate, variance, k_pred) with ``np.var(ddof=1)``."""
    k = int(values.size)
    if k == 0:
        return 0.0, 0.0, 0
    k_pred = int(mask.sum())
    fpc = 0.0 if n_stratum <= 1 else max(0.0, (n_stratum - k) / (n_stratum - 1.0))
    if agg == "count":
        est, phi = None, mask.astype(np.float64) * n_stratum
    elif agg == "sum":
        est, phi = None, mask * values * n_stratum
    else:
        if k_pred == 0:
            return float("nan"), float("nan"), 0
        est, phi = float(values[mask].mean()), mask * values * (k / k_pred)
    var = float(np.var(phi, ddof=1) / k * fpc) if k > 1 else 0.0
    return (float(phi.mean()) if est is None else est), var, k_pred


def synopsis_1d(
    c: np.ndarray, v: np.ndarray, boundaries: np.ndarray, per_leaf: int, *, fanout: int = 2,
    seed: int = 0,
) -> PassSynopsis:
    """PASS over one predicate column ``c`` with the given interior leaf
    boundaries and up to ``per_leaf`` uniform samples a leaf, without Spark."""
    assign = Router1D(boundaries)
    x = np.asarray(c, dtype=np.float64)[:, None]
    lids = assign(x)
    n_leaves = len(boundaries) + 1
    rng = np.random.default_rng(seed)
    samples = {}
    for lid in range(n_leaves):
        rows = np.flatnonzero(lids == lid)
        if rows.size:
            pick = rng.choice(rows, min(per_leaf, rows.size), replace=False)
            samples[lid] = (x[pick], v[pick])
    tree = build_tree(leaf_stats(x, v, lids, n_leaves), fanout=fanout)
    return PassSynopsis(tree, samples, ["c"], "a", len(v), assign=assign, seed=seed)


def insert_vectorised(syn: PassSynopsis, row: dict, rng: np.random.Generator) -> int:
    """:meth:`PassSynopsis.insert` with numpy on one row: the batch router,
    and MIN/MAX and extents written along the whole path. A NULL value is
    not handled."""
    x = np.array([[row[c] for c in syn.pred_cols]], dtype=np.float64)
    value = float(row[syn.value_col])
    lid = int(syn.assign(x)[0])
    nodes = syn.tree.nodes
    path = syn.tree.paths[lid]
    leaf = path[-1]
    nodes.sum[path] += value
    nodes.count[path] += 1.0
    if not value >= nodes.min[leaf]:
        nodes.min[path] = np.minimum(nodes.min[path], value)
    if not value <= nodes.max[leaf]:
        nodes.max[path] = np.maximum(nodes.max[path], value)
    nodes.pmin[path] = np.minimum(nodes.pmin[path], x)
    nodes.pmax[path] = np.maximum(nodes.pmax[path], x)
    syn.n_total += 1
    n_i = syn._seen.get(lid)
    if n_i is None:
        n_i = nodes.count[leaf] - 1  # before this insert
    n_i += 1
    syn._seen[lid] = int(n_i)
    sx, sv = syn.samples.get(lid, (np.empty((0, len(syn.sample_cols))), np.empty(0)))
    k_i = len(sv)
    if k_i and rng.random() < k_i / n_i:
        j = int(rng.integers(0, k_i))
        sx = sx.copy()
        sv = sv.copy()
        sx[j] = [row[c] for c in syn.sample_cols]
        sv[j] = value
        syn.samples[lid] = (sx, sv)
    return lid


# -- partitioning DP: scalar references ---------------------------------


class PrefixStats:
    """Prefix sums of t and t² over a predicate-sorted value array, with
    O(1) ``seg_sum``/``seg_ssq`` over inclusive index ranges."""

    def __init__(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        self.n = int(v.size)
        self._s = np.concatenate([[0.0], np.cumsum(v)]).tolist()
        self._q = np.concatenate([[0.0], np.cumsum(v * v)]).tolist()

    def seg_sum(self, lo: int, hi: int) -> float:
        """Σ t over the inclusive index range [lo, hi]."""
        return self._s[hi + 1] - self._s[lo]

    def seg_ssq(self, lo: int, hi: int) -> float:
        """Σ t² over the inclusive index range [lo, hi]."""
        return self._q[hi + 1] - self._q[lo]


def max_var_query_sum(ps: PrefixStats, lo: int, hi: int) -> float:
    """Median-split approximation of the maximum-𝒱 SUM/COUNT query inside
    [lo, hi] (Appendix A.3, Lemma A.3: a 4-approximation)."""
    n = hi - lo + 1
    if n < 2:
        return 0.0
    mid = lo + n // 2  # q1 = [lo, mid-1], q2 = [mid, hi]
    v1 = cal_v(n, ps.seg_ssq(lo, mid - 1), ps.seg_sum(lo, mid - 1))
    v2 = cal_v(n, ps.seg_ssq(mid, hi), ps.seg_sum(mid, hi))
    return max(v1, v2)


def max_var_query_sum_exact(ps: PrefixStats, lo: int, hi: int) -> float:
    """Exact maximum 𝒱 over every subinterval of [lo, hi] — O((hi−lo)²)."""
    n = hi - lo + 1
    best = 0.0
    for g in range(lo, hi + 1):
        for w in range(g, hi + 1):
            best = max(best, cal_v(n, ps.seg_ssq(g, w), ps.seg_sum(g, w)))
    return best


def dp_exact(a: np.ndarray, k: int) -> tuple[list[int], float]:
    """The naive O(k·m⁴) dynamic program with exhaustive SUM query
    enumeration: the gold partitioning the approximate algorithms are tested
    against."""
    m = int(len(a))
    k = min(k, m)
    ps = PrefixStats(a)

    def mvar(lo: int, hi: int) -> float:
        return max_var_query_sum_exact(ps, lo, hi)

    INF = float("inf")
    A = [[INF] * (k + 1) for _ in range(m + 1)]
    B = [[0] * (k + 1) for _ in range(m + 1)]
    A[0][0] = 0.0
    for j in range(1, k + 1):
        A[0][j] = 0.0
    for i in range(1, m + 1):
        A[i][1] = mvar(0, i - 1)
        for j in range(2, k + 1):
            best, arg = INF, j - 1
            for h in range(j - 1, i):
                v = max(A[h][j - 1], mvar(h, i - 1))
                if v < best:
                    best, arg = v, h
            A[i][j] = best
            B[i][j] = arg
    cuts = [m]
    i, j = m, k
    while j > 1:
        h = B[i][j]
        cuts.append(h)
        i, j = h, j - 1
    cuts.append(0)
    cuts = sorted(set(cuts))
    return cuts, A[m][k]


def adp_tables(a: np.ndarray, k_max: int):
    """ADP's DP tables ``(A, B)`` with the binary search of Appendix A.5 run
    one row ``i`` at a time and one scalar ``mvar`` per probe, as lists."""
    a = np.asarray(a, dtype=np.float64)
    m = int(a.size)
    k_max = max(1, min(k_max, m))
    ps = PrefixStats(a)

    def mvar(lo: int, hi: int) -> float:
        return max_var_query_sum(ps, lo, hi)

    A = [[0.0] * (k_max + 1) for _ in range(m + 1)]
    B = [[0] * (k_max + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        A[i][1] = mvar(0, i - 1)
    for j in range(2, k_max + 1):
        for i in range(1, m + 1):
            if i <= j:
                A[i][j], B[i][j] = 0.0, i - 1
                continue
            lo, hi = j - 1, i - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if A[mid][j - 1] >= mvar(mid, i - 1):
                    hi = mid
                else:
                    lo = mid + 1
            best, arg = float("inf"), lo
            for h in (lo - 1, lo, lo + 1):
                if j - 1 <= h <= i - 1:
                    v = max(A[h][j - 1], mvar(h, i - 1))
                    if v < best:
                        best, arg = v, h
            A[i][j], B[i][j] = best, arg
    return A, B


# -- Spark build path: the pandas-UDF bucketing and the window sampler ----


def udf_leaf_1d(df, pred_col: str, boundaries: np.ndarray):
    """Attach the 1-D leaf id with ``np.searchsorted`` in a pandas UDF."""
    b = np.asarray(boundaries, dtype=np.float64)

    @F.pandas_udf("long")
    def bucket(v: pd.Series) -> pd.Series:
        return pd.Series(np.searchsorted(b, v.to_numpy(dtype=np.float64), side="right"))

    return df.withColumn(LEAF_COL, bucket(F.col(pred_col)))


def udf_leaf_fn(df, pred_cols: list[str], assign):
    """Attach the leaf id given by a vectorised (rows × d → ids) assigner,
    run in a pandas UDF."""

    @F.pandas_udf("long")
    def bucket(*cols: pd.Series) -> pd.Series:
        x = np.column_stack([c.to_numpy(dtype=np.float64) for c in cols])
        return pd.Series(assign(x))

    return df.withColumn(LEAF_COL, bucket(*[F.col(c) for c in pred_cols]))


def window_sample(df_leaf, value_col: str, pred_cols: list[str], k_per_leaf: dict, seed: int = 0):
    """Exact per-stratum samples by ranking every row of its leaf on
    ``rand(seed)`` with a ``row_number()`` window and keeping rank ≤ K_i."""

    spark = df_leaf.sparkSession
    kmap = spark.createDataFrame(
        pd.DataFrame({LEAF_COL: list(k_per_leaf), "__k": [int(v) for v in k_per_leaf.values()]})
    )
    w = Window.partitionBy(LEAF_COL).orderBy("__r")
    out = (
        df_leaf.withColumn("__r", F.rand(seed))
        .withColumn("__rn", F.row_number().over(w))
        .join(F.broadcast(kmap), on=LEAF_COL, how="inner")
        .where(F.col("__rn") <= F.col("__k"))
        .select(LEAF_COL, *pred_cols, value_col)
    )
    return out.toPandas()
