"""Brute-force references for the vectorised partitioner, tree, estimator and
Spark build code, the vectorised insert, the all-numpy query path, and a
Spark-free way to build a :class:`PassSynopsis` from numpy arrays."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core.kdtree import KDTree
from repro.core.partitioner import Router1D
from repro.core.spark_build import LEAF_COL
from repro.core.synopsis import AqpResult, PassSynopsis, _tree_from_kd
from repro.core.tree import NodeStats, Tree, build_tree, mcf, overlapping_leaves
from repro.core.variance import LAMBDA_99, cal_v


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


def random_synopsis(
    seed: int, kind: str, d: int, n_rows: int, n_leaves: int, distinct: int = 3
) -> PassSynopsis:
    """A 1-D fanout-2/4 or a k-d synopsis over ``n_rows`` rows on an integer
    grid, with up to 4 sampled rows a leaf (some leaves whole, some empty)
    and ``distinct`` values (1: every leaf's values are equal)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 12, size=(n_rows, d)).astype(float)
    v = rng.choice([0.0, 1.0, 4.0][:distinct], n_rows) + 2.0
    if kind == "kd":
        kd = KDTree(x, v, n_leaves, seed=seed)
        router, n_leaves = kd.router(), kd.n_leaves
    else:
        x = x[:, :1]
        b = rng.choice(np.arange(-1.0, 14.0, 0.5), n_leaves - 1, replace=False)
        router = Router1D(np.sort(b))
    lids = router(x)
    stats = leaf_stats(x, v, lids, n_leaves)
    if kind == "kd":
        tree = _tree_from_kd(kd.root, stats)
    else:
        tree = build_tree(stats, fanout=2 if kind == "1d2" else 4)
    samples = {}
    for lid in np.unique(lids).tolist():
        rows = np.flatnonzero(lids == lid)[:4]
        samples[lid] = (x[rows], v[rows])
    cols = [f"c{j}" for j in range(x.shape[1])]
    return PassSynopsis(tree, samples, cols, "a", n_rows, assign=router)


def insert_vectorised(syn: PassSynopsis, row: dict, rng: np.random.Generator) -> int:
    """:meth:`PassSynopsis.insert` with numpy on one row: the batch router,
    and MIN/MAX and extents written along the whole path, NaN skipped by
    ``fmin``/``fmax``. A NULL value is not handled."""
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
    nodes.pmin[path] = np.fmin(nodes.pmin[path], x)
    nodes.pmax[path] = np.fmax(nodes.pmax[path], x)
    syn.n_total += 1
    n_i = nodes.count[leaf]
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

# -- query path: every per-node and per-stratum step in numpy -------------


def numpy_stratum_estimate(agg: str, values: np.ndarray, mask: np.ndarray, sizes, n_strata):
    """``variance.stratum_estimate`` with ``where=`` divides and ``k_pred``
    for every aggregate: per-stratum ``(estimate, variance, k_pred)``."""
    if agg not in ("sum", "count", "avg"):
        raise ValueError(f"stratum_estimate does not support {agg!r}")
    k = np.asarray(sizes, dtype=np.int64)
    n = np.asarray(n_strata, dtype=np.float64)
    if not k.all():  # estimate the sampled strata; one with no sample gives (0, 0, 0)
        sampled = k > 0
        out = np.zeros(len(k)), np.zeros(len(k)), np.zeros(len(k), dtype=np.int64)
        for o, r in zip(out, numpy_stratum_estimate(agg, values, mask, k[sampled], n[sampled])):
            o[sampled] = r
        return out
    starts = np.cumsum(k) - k
    k_pred = np.add.reduceat(mask, starts, dtype=np.int64)
    t = mask if agg == "count" else mask * values
    t_sum = np.add.reduceat(t, starts, dtype=np.float64)
    dev = t - np.repeat(t_sum / k, k)
    fpc = np.maximum(0.0, np.divide(n - k, n - 1.0, out=np.zeros(len(k)), where=n > 1))
    var = np.divide(np.add.reduceat(dev * dev, starts), k - 1.0, out=np.zeros(len(k)), where=k > 1) / k * fpc
    if agg != "avg":
        return t_sum / k * n, var * (n * n), k_pred
    matched = k_pred > 0
    scale = np.divide(k, k_pred, out=np.zeros(len(k)), where=matched)
    est = np.divide(t_sum, k_pred, out=np.zeros(len(k)), where=matched)
    var *= scale * scale
    est[~matched] = var[~matched] = np.nan
    return est, var, k_pred


def numpy_sum_range(nodes, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``variance.sum_range`` as numpy arrays."""
    s, c, lo, hi = nodes.sum[idx], nodes.count[idx], nodes.min[idx], nodes.max[idx]
    return (
        np.where(hi <= 0, s, np.minimum(0.0, c * lo)),
        np.where(lo >= 0, s, np.maximum(0.0, c * hi)),
    )


def numpy_hard_bounds(agg: str, nodes, covered: np.ndarray, partial: np.ndarray) -> tuple[float, float]:
    """``variance.hard_bounds`` with every sum, minimum and maximum over
    node arrays taken in numpy."""
    if agg == "count":
        lb = nodes.count[covered].sum()
        return float(lb), float(lb + nodes.count[partial].sum())
    if agg == "sum":
        base = nodes.sum[covered].sum()
        lo, hi = numpy_sum_range(nodes, partial)
        return float(base + lo.sum()), float(base + hi.sum())
    if agg == "avg":
        c_cnt = nodes.count[covered].sum()
        cov_avg = nodes.sum[covered].sum() / c_cnt if c_cnt > 0 else float("nan")
        if not partial.size:
            return float(cov_avg), float(cov_avg)
        p_min = nodes.min[partial].min()
        p_max = nodes.max[partial].max()
        if not c_cnt > 0:
            return float(p_min), float(p_max)
        return float(min(cov_avg, p_min)), float(max(cov_avg, p_max))
    if agg in ("min", "max"):
        if not (covered.size or partial.size):
            return float("nan"), float("nan")
        if agg == "min":
            lb = min(nodes.min[covered].min(initial=np.inf), nodes.min[partial].min(initial=np.inf))
            ub = nodes.min[covered].min() if covered.size else nodes.max[partial].max()
        else:
            ub = max(nodes.max[covered].max(initial=-np.inf), nodes.max[partial].max(initial=-np.inf))
            lb = nodes.max[covered].max() if covered.size else nodes.min[partial].min()
        return float(lb), float(ub)
    raise ValueError(f"unsupported aggregate {agg!r}")


def numpy_answer(syn: PassSynopsis, q) -> AqpResult:
    """:meth:`PassSynopsis.answer` with numpy over every per-node and
    per-stratum scalar: :func:`numpy_hard_bounds`,
    :func:`numpy_stratum_estimate`, and the AVG combine as arrays."""
    lo, hi, external = q.box(syn.pred_cols)
    nodes = syn.tree.nodes
    exact = syn.use_aggregates and not external
    if exact:
        covered, partial = mcf(syn.tree, lo, hi)
        lb, ub = numpy_hard_bounds(q.agg, nodes, covered, partial)
    else:
        partial = overlapping_leaves(syn.tree, lo, hi)
        covered = partial[:0]
        lb = ub = float("nan")
    n_strata = nodes.count[partial]
    skipped = 1.0 - float(n_strata.sum()) / syn.n_total if syn.n_total else 0.0
    no_sample = (np.empty((0, len(syn.sample_cols))), np.empty(0))
    drawn = [syn.samples.get(lid, no_sample) for lid in syn.tree.leaf_id[partial].tolist()]
    sizes = np.array([len(v) for _, v in drawn], dtype=np.int64)
    x, v = map(np.concatenate, zip(*drawn)) if drawn else no_sample
    m = q.sample_mask(x, syn.sample_cols)
    processed = int(v.size)

    if q.agg in ("sum", "count"):
        e, vr, _ = numpy_stratum_estimate(q.agg, v, m, sizes, n_strata)
        est = getattr(nodes, q.agg)[covered].sum() + e.sum()
        var = vr.sum()
        if not sizes.all():
            idle = partial[sizes == 0]
            if q.agg == "sum":
                r_lo, r_hi = numpy_sum_range(nodes, idle)
            else:
                r_lo, r_hi = np.zeros(idle.size), nodes.count[idle]
            half = (r_hi - r_lo) / 2.0
            est += (r_lo + half).sum()
            var += (half * half).sum()
        return AqpResult(float(est), LAMBDA_99 * math.sqrt(var), lb, ub, processed, skipped)

    if q.agg == "avg":
        e, vr, k_pred = numpy_stratum_estimate("avg", v, m, sizes, n_strata)
        if exact:
            zero = (nodes.count[partial] > 0) & (nodes.min[partial] == nodes.max[partial])
            e[zero] = nodes.min[partial[zero]]
            vr[zero] = 0.0
        use = k_pred > 0
        means = np.concatenate([nodes.sum[covered] / nodes.count[covered], e[use]])
        variances = np.concatenate([np.zeros(covered.size), vr[use]])
        weights = np.concatenate([nodes.count[covered], n_strata[use] * k_pred[use] / sizes[use]])
        if not weights.size:
            return AqpResult(float("nan"), float("nan"), lb, ub, processed, skipped)
        w = weights / weights.sum()
        est = float(np.dot(w, means))
        var = float(np.dot(w * w, variances))
        return AqpResult(est, LAMBDA_99 * math.sqrt(var), lb, ub, processed, skipped)

    pick = np.min if q.agg == "min" else np.max
    cand = np.concatenate([getattr(nodes, q.agg)[covered], v[m]])
    if not cand.size:
        return AqpResult(float("nan"), float("nan"), lb, ub, processed, skipped)
    half = (ub - lb) / 2.0 if np.isfinite(ub) and np.isfinite(lb) else float("nan")
    return AqpResult(float(pick(cand)), half, lb, ub, processed, skipped)


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
