"""φ-transform estimators, confidence intervals, hard bounds, 𝒱.

Implements the estimator algebra of §2.1–§2.3:

* :func:`stratum_estimate` — the per-stratum estimate and estimator
  variance for SUM/COUNT/AVG via the φ-transforms of Equation 1, with the
  finite-population correction (footnote 1) so a 100% sample is exact;
  one call estimates every stratum of a query.
* :func:`hard_bounds` — the deterministic worst-case bounds of §2.3 from
  covered/partial partition aggregates (SUM/COUNT/AVG/MIN/MAX), for
  values of any sign.
* :func:`cal_v` — the 𝒱_i(q) = n_i·Σt² − (Σt)² quantity of Appendix A.2
  that every partitioning algorithm maximises over candidate queries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: λ for a 99% confidence interval (§5.1.3).
LAMBDA_99 = 2.576


def stratum_estimate(
    agg: str, values: np.ndarray, mask: np.ndarray, sizes, n_strata
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimate each stratum's contribution from its uniform sample.

    Args:
        agg:      'sum' | 'count' | 'avg'.
        values:   aggregate-column values of the sampled tuples, stratum by
                  stratum: the first ``sizes[0]`` belong to stratum 0, etc.
        mask:     predicate-match booleans for those tuples.
        sizes:    K_i, the number of sampled tuples of each stratum.
        n_strata: N_i, the true number of tuples in each stratum.

    Returns:
        Per-stratum arrays ``(estimate, variance_of_estimator, k_pred)``
        where the variance is ``var(φ(S_i))/K_i`` times the finite
        population correction (N_i−K_i)/(N_i−1) (Equations 3–4, footnote 1),
        so a 100% sample is exact. For AVG the estimate is the plain mean of
        matching sampled values (equivalent to Equation 2) and k_pred is the
        number of matching samples; with no matching sample the estimate and
        its variance are both NaN. A stratum with no sample gives (0, 0, 0).
    """
    if agg not in ("sum", "count", "avg"):
        raise ValueError(f"stratum_estimate does not support {agg!r}")
    k = np.asarray(sizes, dtype=np.int64)
    n = np.asarray(n_strata, dtype=np.float64)
    if not k.all():  # estimate the sampled strata; one with no sample gives (0, 0, 0)
        sampled = k > 0
        out = np.zeros(len(k)), np.zeros(len(k)), np.zeros(len(k), dtype=np.int64)
        for o, r in zip(out, stratum_estimate(agg, values, mask, k[sampled], n[sampled])):
            o[sampled] = r
        return out
    starts = np.cumsum(k) - k
    k_pred = np.add.reduceat(mask, starts, dtype=np.int64)
    # φ = t·(a per-stratum scale), so each stratum's sums over t are scaled once.
    t = mask if agg == "count" else mask * values
    t_sum = np.add.reduceat(t, starts, dtype=np.float64)
    dev = t - np.repeat(t_sum / k, k)
    fpc = np.maximum(0.0, np.divide(n - k, n - 1.0, out=np.zeros(len(k)), where=n > 1))
    var = np.divide(np.add.reduceat(dev * dev, starts), k - 1.0, out=np.zeros(len(k)), where=k > 1) / k * fpc
    if agg != "avg":
        return t_sum / k * n, var * (n * n), k_pred
    # AVG: φ = t·K_i/k_pred, whose mean is the mean of the matching values.
    matched = k_pred > 0
    scale = np.divide(k, k_pred, out=np.zeros(len(k)), where=matched)
    est = np.divide(t_sum, k_pred, out=np.zeros(len(k)), where=matched)
    var *= scale * scale
    est[~matched] = var[~matched] = np.nan
    return est, var, k_pred


@dataclass(frozen=True)
class PartStats:
    """Exact aggregate statistics of one partition (a tree node)."""

    sum: float
    count: float
    min: float
    max: float


def sum_range(nodes, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node of ``idx``: the least and greatest SUM any subset of its
    tuples can have, for values of any sign. A node whose values are all
    non-negative spans [0, SUM]; all non-positive, [SUM, 0]; mixed,
    [COUNT·MIN, COUNT·MAX]."""
    s, c, lo, hi = nodes.sum[idx], nodes.count[idx], nodes.min[idx], nodes.max[idx]
    return (
        np.where(hi <= 0, s, np.minimum(0.0, c * lo)),
        np.where(lo >= 0, s, np.maximum(0.0, c * hi)),
    )


def hard_bounds(agg: str, nodes, covered: np.ndarray, partial: np.ndarray) -> tuple[float, float]:
    """Deterministic (100%-confidence) bounds of §2.3.

    ``nodes`` holds per-node ``sum``/``count``/``min``/``max`` arrays (a
    :class:`~repro.core.tree.NodeStats`); ``covered`` indexes the nodes known
    to lie fully inside the predicate, ``partial`` those that may contribute
    anywhere from zero tuples to all of their tuples. SUM bounds hold for
    values of any sign (:func:`sum_range`).
    """
    if agg == "count":
        lb = nodes.count[covered].sum()
        return float(lb), float(lb + nodes.count[partial].sum())
    if agg == "sum":
        base = nodes.sum[covered].sum()
        lo, hi = sum_range(nodes, partial)
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
        # True MIN <= every covered partition's MIN; it is >= the smallest
        # min of any relevant partition (mirrored for MAX).
        if agg == "min":
            lb = min(nodes.min[covered].min(initial=np.inf), nodes.min[partial].min(initial=np.inf))
            ub = nodes.min[covered].min() if covered.size else nodes.max[partial].max()
        else:
            ub = max(nodes.max[covered].max(initial=-np.inf), nodes.max[partial].max(initial=-np.inf))
            lb = nodes.max[covered].max() if covered.size else nodes.min[partial].min()
        return float(lb), float(ub)
    raise ValueError(f"unsupported aggregate {agg!r}")


def cal_v(n_part: int, seg_ssq: float, seg_sum: float) -> float:
    """𝒱_i(q) = n_i·Σ_{h∈q} t_h² − (Σ_{h∈q} t_h)² (Appendix A.2)."""
    return n_part * seg_ssq - seg_sum * seg_sum
