"""AQP++ [36] and KD-US (§5.4): precomputed aggregates + a uniform sample.

Both baselines share :class:`AggPlusUniform`: a flat set of partitions
with exact SUM/COUNT/MIN/MAX, plus one *global uniform* sample. A query
is answered as ``exact(covered partitions) + uniform-estimate(gap)``
where the gap is the query region minus the covered partitions — the
AQP++ decomposition, with uniform rather than stratified gap sampling
(the key difference from PASS, §2.4).

* :func:`build_aqppp_1d` chooses the 1-D partition boundaries with the
  paper-described **hill-climbing** heuristic over the discretised
  maximum-variance objective (§5.1.3), then precomputes the aggregates
  with one Spark groupBy.
* :func:`build_kd_us` uses a shallowest-first k-d tree (the KD-US
  baseline of §5.4).
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame

from ..core import spark_build
from ..core.kdtree import KDTree
from ..core.partitioner import ADP, Router1D, cuts_to_boundaries, equal_depth_cuts
from ..core.query import Query
from ..core.synopsis import AqpResult
from ..core.tree import NodeStats, classify, synopsis_bytes
from ..core.variance import LAMBDA_99, hard_bounds, stratum_estimate


def hill_climb_cuts(
    a_sorted: np.ndarray, k: int, *, iters: int = 300, seed: int = 0
) -> list[int]:
    """AQP++'s iterative hill-climbing partition search.

    Starts from equal-depth cuts and repeatedly proposes moving one random
    interior boundary to a random new position, accepting moves that lower
    the maximum discretised per-partition SUM query variance.
    """
    m = int(len(a_sorted))
    k = max(1, min(k, m))
    helper = ADP(a_sorted, 1)  # reuse its O(1) discretised mvar
    cuts = equal_depth_cuts(m, k)
    seg = [helper.mvar(cuts[j], cuts[j + 1] - 1) for j in range(len(cuts) - 1)]
    rng = np.random.default_rng(seed)
    for _ in range(iters):
        if len(cuts) < 3:
            break
        j = int(rng.integers(1, len(cuts) - 1))
        lo, hi = cuts[j - 1] + 1, cuts[j + 1] - 1
        if lo >= hi:
            continue
        new = int(rng.integers(lo, hi + 1))
        if new == cuts[j]:
            continue
        left = helper.mvar(cuts[j - 1], new - 1)
        right = helper.mvar(new, cuts[j + 1] - 1)
        old_pair = max(seg[j - 1], seg[j])
        if max(left, right) < old_pair:
            cuts[j] = new
            seg[j - 1], seg[j] = left, right
    return cuts


class AggPlusUniform:
    """Flat partition aggregates + one global uniform sample."""

    def __init__(
        self,
        leaves: NodeStats,
        assign: Callable[[np.ndarray], np.ndarray],
        sample_x: np.ndarray,
        sample_v: np.ndarray,
        pred_cols: list[str],
        value_col: str,
        n_total: float,
        *,
        build_seconds: float = 0.0,
    ) -> None:
        self.leaves = leaves
        self.assign = assign
        self.x = sample_x
        self.v = sample_v
        self.sample_leaf = assign(sample_x) if len(sample_x) else np.empty(0, dtype=np.int64)
        self.pred_cols = list(pred_cols)
        self.value_col = value_col
        self.n_total = float(n_total)
        self.build_seconds = build_seconds

    # ------------------------------------------------------------------

    def answer(self, q: Query) -> AqpResult:
        m = q.sample_mask(self.x, self.pred_cols)
        lo, hi, _ = q.box(self.pred_cols)
        overlap, in_q = classify(self.leaves, lo, hi)
        covered, partial = np.flatnonzero(in_q), np.flatnonzero(overlap & ~in_q)
        lb, ub = hard_bounds(q.agg, self.leaves, covered, partial)
        cov_sum = self.leaves.sum[covered].sum()
        cov_cnt = self.leaves.count[covered].sum()
        k = len(self.v)
        gap = m & ~in_q[self.sample_leaf]

        if q.agg in ("sum", "count"):
            base = cov_sum if q.agg == "sum" else cov_cnt
            (e,), (var,), _ = stratum_estimate(q.agg, self.v, gap, [k], [self.n_total])
            return AqpResult(float(base + e), LAMBDA_99 * float(np.sqrt(var)), lb, ub, processed=k)
        if q.agg == "avg":
            (s_est,), (s_var,), _ = stratum_estimate("sum", self.v, gap, [k], [self.n_total])
            (c_est,), (c_var,), _ = stratum_estimate("count", self.v, gap, [k], [self.n_total])
            tot_s = float(cov_sum + s_est)
            tot_c = float(cov_cnt + c_est)
            if tot_c <= 0:
                return AqpResult(float("nan"), float("nan"), lb, ub, processed=k)
            est = tot_s / tot_c
            # Delta method on the ratio, including the sample covariance of
            # the SUM and COUNT φ-transforms over the gap region.
            if k > 1:
                phi_s = gap * self.v * self.n_total
                phi_c = gap.astype(np.float64) * self.n_total
                cov_sc = float(np.cov(phi_s, phi_c, ddof=1)[0, 1]) / k
            else:
                cov_sc = 0.0
            var = max(0.0, (s_var + est * est * c_var - 2 * est * cov_sc)) / (tot_c * tot_c)
            return AqpResult(est, LAMBDA_99 * float(np.sqrt(var)), lb, ub, processed=k)
        # MIN/MAX
        cand = np.concatenate([getattr(self.leaves, q.agg)[covered], self.v[m]])
        if not cand.size:
            return AqpResult(float("nan"), float("nan"), lb, ub, processed=k)
        est = float(cand.min() if q.agg == "min" else cand.max())
        return AqpResult(est, float("nan"), lb, ub, processed=k)

    @property
    def storage_bytes(self) -> int:
        d = len(self.pred_cols)
        return synopsis_bytes(len(self.leaves), d, len(self.v), d + 1)


def build_aqppp_1d(
    df: DataFrame,
    pred_col: str,
    value_col: str,
    *,
    n_partitions: int,
    k_sample: int,
    m_opt: int = 1024,
    seed: int = 0,
) -> AggPlusUniform:
    """AQP++: hill-climbed 1-D partitions + K-row uniform sample, over the
    rows with a value."""
    t0 = time.perf_counter()
    df = spark_build.valued(df, value_col)
    opt = spark_build.optimization_sample(df, value_col, [pred_col], m_opt, seed=seed)[0][:m_opt]
    a = opt[value_col].to_numpy(dtype=np.float64)
    c = opt[pred_col].to_numpy(dtype=np.float64)
    cuts = hill_climb_cuts(a, n_partitions, seed=seed)
    boundaries = cuts_to_boundaries(c, cuts)
    df_leaf = spark_build.with_leaf_1d(df, pred_col, boundaries)
    agg_pdf = spark_build.leaf_aggregates(df_leaf, value_col, [pred_col])
    leaves = spark_build.leaves_from_aggregates(agg_pdf, [pred_col], len(boundaries) + 1)
    sample = spark_build.uniform_sample(df, value_col, [pred_col], k_sample, seed=seed)
    return AggPlusUniform(
        leaves,
        Router1D(boundaries),
        sample[[pred_col]].to_numpy(dtype=np.float64),
        sample[value_col].to_numpy(dtype=np.float64),
        [pred_col],
        value_col,
        float(leaves.count.sum()),
        build_seconds=time.perf_counter() - t0,
    )


def build_kd_us(
    df: DataFrame,
    pred_cols: list[str],
    value_col: str,
    *,
    k_leaves: int,
    k_sample: int,
    m_opt: int = 2048,
    seed: int = 0,
) -> AggPlusUniform:
    """KD-US: shallowest-first k-d partition aggregates + uniform sample,
    over the rows with a value."""
    t0 = time.perf_counter()
    df = spark_build.valued(df, value_col)
    opt = spark_build.optimization_sample(df, value_col, pred_cols, m_opt, seed=seed)[0][:m_opt]
    kd = KDTree(
        opt[pred_cols].to_numpy(dtype=np.float64),
        opt[value_col].to_numpy(dtype=np.float64),
        k_leaves,
        policy="us",
        seed=seed,
    )
    df_leaf = spark_build.with_leaf_fn(df, pred_cols, kd)
    agg_pdf = spark_build.leaf_aggregates(df_leaf, value_col, pred_cols)
    leaves = spark_build.leaves_from_aggregates(agg_pdf, pred_cols, kd.n_leaves)
    sample = spark_build.uniform_sample(df, value_col, pred_cols, k_sample, seed=seed)
    return AggPlusUniform(
        leaves,
        kd.router(),
        sample[pred_cols].to_numpy(dtype=np.float64),
        sample[value_col].to_numpy(dtype=np.float64),
        pred_cols,
        value_col,
        float(leaves.count.sum()),
        build_seconds=time.perf_counter() - t0,
    )
