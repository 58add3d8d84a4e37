"""φ-transform estimators, confidence intervals, hard bounds, prefix-sum 𝒱.

Implements the estimator algebra of §2.1–§2.3:

* :func:`stratum_estimate` — the per-stratum estimate and estimator
  variance for SUM/COUNT/AVG via the φ-transforms of Equation 1, with the
  finite-population correction (footnote 1) so a 100% sample is exact.
* :func:`hard_bounds` — the deterministic worst-case bounds of §2.3 from
  covered/partial partition aggregates (SUM/COUNT/AVG/MIN/MAX).
* :class:`PrefixStats` / :func:`cal_v` — O(1) range sums and the
  𝒱_i(q) = n_i·Σt² − (Σt)² quantity of Appendix A.2 that every
  partitioning algorithm maximises over candidate queries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: λ for a 99% confidence interval (§5.1.3).
LAMBDA_99 = 2.576


def _fpc(n_pop: float, n_sample: float) -> float:
    """Finite population correction (N−K)/(N−1); 0 when the sample is the
    population, 1 when N is huge relative to K."""
    if n_pop <= 1:
        return 0.0
    return max(0.0, (n_pop - n_sample) / (n_pop - 1.0))


def stratum_estimate(
    agg: str, values: np.ndarray, mask: np.ndarray, n_stratum: float
) -> tuple[float, float, int]:
    """Estimate one stratum's contribution from its uniform sample.

    Args:
        agg:       'sum' | 'count' | 'avg'.
        values:    aggregate-column values of the K_i sampled tuples.
        mask:      predicate-match booleans for those tuples.
        n_stratum: N_i, the true number of tuples in the stratum.

    Returns:
        ``(estimate, variance_of_estimator, k_pred)`` where the variance is
        ``var(φ(S_i))/K_i`` times the FPC (Equations 3–4). For AVG the
        estimate is the plain mean of matching sampled values (equivalent
        to Equation 2) and k_pred is the number of matching samples; with
        no matching sample the estimate and its variance are both NaN.
    """
    k = int(values.size)
    if k == 0:
        return 0.0, 0.0, 0
    k_pred = int(mask.sum())
    fpc = _fpc(n_stratum, k)
    if agg == "count":
        phi = mask.astype(np.float64) * n_stratum
    elif agg == "sum":
        phi = mask * values * n_stratum
    elif agg == "avg":
        if k_pred == 0:
            return float("nan"), float("nan"), 0
        est = float(values[mask].mean())
        phi = mask * values * (k / k_pred)
        var = float(np.var(phi, ddof=1) / k * fpc) if k > 1 else 0.0
        return est, var, k_pred
    else:
        raise ValueError(f"stratum_estimate does not support {agg!r}")
    est = float(phi.mean())
    var = float(np.var(phi, ddof=1) / k * fpc) if k > 1 else 0.0
    return est, var, k_pred


@dataclass(frozen=True)
class PartStats:
    """Exact aggregate statistics of one partition (a tree node)."""

    sum: float
    count: float
    min: float
    max: float

    @property
    def avg(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def merge(self, other: "PartStats") -> "PartStats":
        """Mergeable-summary combine — parents are built from children."""
        return PartStats(
            self.sum + other.sum,
            self.count + other.count,
            min(self.min, other.min),
            max(self.max, other.max),
        )


def hard_bounds(
    agg: str, covered: list[PartStats], partial: list[PartStats]
) -> tuple[float, float]:
    """Deterministic (100%-confidence) bounds of §2.3.

    ``covered`` partitions are known to lie fully inside the predicate;
    ``partial`` partitions may contribute anywhere from zero tuples to all
    of their tuples. Assumes non-negative aggregate values for SUM
    (paper footnote 2).
    """
    if agg in ("sum", "count"):
        key = agg
        lb = sum(getattr(p, key) for p in covered)
        ub = lb + sum(getattr(p, key) for p in partial)
        return float(lb), float(ub)
    if agg == "avg":
        c_sum = sum(p.sum for p in covered)
        c_cnt = sum(p.count for p in covered)
        have_cov = c_cnt > 0
        cov_avg = c_sum / c_cnt if have_cov else float("nan")
        if not partial:
            return cov_avg, cov_avg
        p_min = min(p.min for p in partial)
        p_max = max(p.max for p in partial)
        if not have_cov:
            return float(p_min), float(p_max)
        return float(min(cov_avg, p_min)), float(max(cov_avg, p_max))
    if agg == "min":
        # True MIN <= every covered partition's MIN; it is >= the smallest
        # min of any relevant partition.
        relevant = covered + partial
        if not relevant:
            return float("nan"), float("nan")
        lb = min(p.min for p in relevant)
        ub = min(p.min for p in covered) if covered else max(p.max for p in partial)
        return float(lb), float(ub)
    if agg == "max":
        relevant = covered + partial
        if not relevant:
            return float("nan"), float("nan")
        ub = max(p.max for p in relevant)
        lb = max(p.max for p in covered) if covered else min(p.min for p in partial)
        return float(lb), float(ub)
    raise ValueError(f"unsupported aggregate {agg!r}")


class PrefixStats:
    """Prefix sums of t and t² over a predicate-sorted value array.

    Gives O(1) ``seg_sum``/``seg_ssq`` over index ranges — the machinery
    behind every 𝒱 evaluation in the partitioning DP (Appendix A).
    """

    def __init__(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        self.n = int(v.size)
        # Python-float lists: scalar indexing in the DP inner loop is much
        # faster than numpy 0-d extraction.
        self._s = np.concatenate([[0.0], np.cumsum(v)]).tolist()
        self._q = np.concatenate([[0.0], np.cumsum(v * v)]).tolist()

    def seg_sum(self, lo: int, hi: int) -> float:
        """Σ t over the inclusive index range [lo, hi]."""
        return self._s[hi + 1] - self._s[lo]

    def seg_ssq(self, lo: int, hi: int) -> float:
        """Σ t² over the inclusive index range [lo, hi]."""
        return self._q[hi + 1] - self._q[lo]


def cal_v(n_part: int, seg_ssq: float, seg_sum: float) -> float:
    """𝒱_i(q) = n_i·Σ_{h∈q} t_h² − (Σ_{h∈q} t_h)² (Appendix A.2)."""
    return n_part * seg_ssq - seg_sum * seg_sum


def max_var_query_sum(ps: PrefixStats, lo: int, hi: int) -> float:
    """Median-split approximation of the maximum-𝒱 SUM/COUNT query inside
    the candidate partition [lo, hi] (Appendix A.3, Lemma A.3: a
    4-approximation). Returns the approximated maximum 𝒱."""
    n = hi - lo + 1
    if n < 2:
        return 0.0
    mid = lo + n // 2  # q1 = [lo, mid-1], q2 = [mid, hi]
    v1 = cal_v(n, ps.seg_ssq(lo, mid - 1), ps.seg_sum(lo, mid - 1))
    v2 = cal_v(n, ps.seg_ssq(mid, hi), ps.seg_sum(mid, hi))
    return max(v1, v2)


def max_var_query_sum_exact(ps: PrefixStats, lo: int, hi: int) -> float:
    """Exact maximum 𝒱 over every subinterval of [lo, hi] — O((hi−lo)²);
    for tests and the naive DP only."""
    n = hi - lo + 1
    best = 0.0
    for g in range(lo, hi + 1):
        for w in range(g, hi + 1):
            best = max(best, cal_v(n, ps.seg_ssq(g, w), ps.seg_sum(g, w)))
    return best


def max_var_query_avg_exact(ps: PrefixStats, lo: int, hi: int, min_len: int = 1) -> float:
    """Exact maximum AVG-query variance (1/|q|²)·𝒱 over subintervals of
    [lo, hi] with at least ``min_len`` items — O((hi−lo)²); tests only."""
    n = hi - lo + 1
    best = 0.0
    for g in range(lo, hi + 1):
        for w in range(g + min_len - 1, hi + 1):
            q = w - g + 1
            v = cal_v(n, ps.seg_ssq(g, w), ps.seg_sum(g, w)) / (q * q)
            best = max(best, v)
    return best
