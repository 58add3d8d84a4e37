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

import math
from dataclasses import dataclass

import numpy as np

#: λ for a 99% confidence interval (§5.1.3).
LAMBDA_99 = 2.576


def stratum_estimate(
    agg: str, values: np.ndarray, mask: np.ndarray, sizes, n_strata
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
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
        its variance are both NaN. SUM and COUNT need no k_pred and get None.
        A stratum with no sample gives (0, 0, 0).
    """
    if agg not in ("sum", "count", "avg"):
        raise ValueError(f"stratum_estimate does not support {agg!r}")
    k = np.asarray(sizes, dtype=np.int64)
    n = np.asarray(n_strata, dtype=np.float64)
    if 0 in sizes:  # estimate the sampled strata; one with no sample gives (0, 0, 0)
        sampled = k > 0
        out = []
        for r in stratum_estimate(agg, values, mask, k[sampled], n[sampled]):
            if r is not None:
                full = np.zeros(len(k), dtype=r.dtype)
                full[sampled] = r
                r = full
            out.append(r)
        return tuple(out)
    starts = np.add.accumulate(k) - k
    kf = k.astype(np.float64)  # float by float: no cast in every operation below
    # φ = t·(a per-stratum scale), so each stratum's sums over t are scaled once.
    t = mask if agg == "count" else mask * values
    t_sum = np.add.reduceat(t, starts, dtype=np.float64)
    dev = t - (t_sum / kf).repeat(k)
    # A sampled stratum has N_i >= K_i >= 1. The guards change no value: where
    # K_i = 1 the squared deviations sum to 0, where N_i = 1 so does N_i − K_i.
    fpc = np.maximum(0.0, (n - kf) / np.maximum(n - 1.0, 1.0))
    var = np.add.reduceat(dev * dev, starts) / np.maximum(kf - 1.0, 1.0) / kf * fpc
    if agg != "avg":
        return t_sum / kf * n, var * (n * n), None
    # AVG: φ = t·K_i/k_pred, whose mean is the mean of the matching values.
    k_pred = np.add.reduceat(mask, starts, dtype=np.int64)
    divisor = np.maximum(k_pred, 1)  # a stratum with no match is set to NaN below
    scale = kf / divisor
    est = t_sum / divisor
    var *= scale * scale
    unmatched = k_pred == 0
    est[unmatched] = var[unmatched] = np.nan
    return est, var, k_pred


@dataclass(frozen=True)
class PartStats:
    """Exact aggregate statistics of one partition (a tree node)."""

    sum: float
    count: float
    min: float
    max: float


def sum_range(nodes, idx: np.ndarray) -> tuple[list[float], list[float]]:
    """Per node of ``idx``: the least and greatest SUM any subset of its
    tuples can have, for values of any sign, as lists. A node whose values
    are all non-negative spans [0, SUM]; all non-positive, [SUM, 0]; mixed,
    [COUNT·MIN, COUNT·MAX]."""
    rows = list(zip(*(a[idx].tolist() for a in (nodes.sum, nodes.count, nodes.min, nodes.max))))
    return (
        [s if hi <= 0 else c * lo if lo < 0 else 0.0 for s, c, lo, hi in rows],
        [s if lo >= 0 else c * hi if hi > 0 else 0.0 for s, c, lo, hi in rows],
    )


def hard_bounds(agg: str, nodes, covered: np.ndarray, partial: np.ndarray) -> tuple[float, float]:
    """Deterministic (100%-confidence) bounds of §2.3.

    ``nodes`` holds per-node ``sum``/``count``/``min``/``max`` arrays (a
    :class:`~repro.core.tree.NodeStats`); ``covered`` indexes the nodes known
    to lie fully inside the predicate, ``partial`` those that may contribute
    anywhere from zero tuples to all of their tuples. SUM bounds hold for
    values of any sign (:func:`sum_range`). A query reads a handful of nodes,
    so their scalars are summed as Python floats: numpy's fixed cost per call
    is larger than the work.
    """
    if agg == "count":
        lb = sum(nodes.count[covered].tolist(), 0.0)
        return lb, sum(nodes.count[partial].tolist(), lb)
    if agg == "sum":
        base = sum(nodes.sum[covered].tolist(), 0.0)
        lo, hi = sum_range(nodes, partial)
        return sum(lo, base), sum(hi, base)
    if agg == "avg":
        c_cnt = sum(nodes.count[covered].tolist(), 0.0)
        cov_avg = sum(nodes.sum[covered].tolist(), 0.0) / c_cnt if c_cnt > 0 else math.nan
        if not partial.size:
            return cov_avg, cov_avg
        p_min = min(nodes.min[partial].tolist())
        p_max = max(nodes.max[partial].tolist())
        if not c_cnt > 0:
            return p_min, p_max
        return min(cov_avg, p_min), max(cov_avg, p_max)
    if agg in ("min", "max"):
        cov = getattr(nodes, agg)[covered].tolist()
        if not (cov or partial.size):
            return math.nan, math.nan
        # True MIN <= every covered partition's MIN; it is >= the smallest
        # min of any relevant partition (mirrored for MAX).
        if agg == "min":
            mins = nodes.min[partial].tolist()
            return min(cov + mins), min(cov) if cov else max(nodes.max[partial].tolist())
        maxs = nodes.max[partial].tolist()
        return max(cov) if cov else min(nodes.min[partial].tolist()), max(cov + maxs)
    raise ValueError(f"unsupported aggregate {agg!r}")


def cal_v(n_part: int, seg_ssq: float, seg_sum: float) -> float:
    """𝒱_i(q) = n_i·Σ_{h∈q} t_h² − (Σ_{h∈q} t_h)² (Appendix A.2)."""
    return n_part * seg_ssq - seg_sum * seg_sum
