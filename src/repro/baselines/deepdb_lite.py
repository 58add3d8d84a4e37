"""DeepDB [19] stand-in: a factorised histogram density model.

DeepDB learns a relational sum-product network from a data sample and
answers aggregates from the model alone. The reproduction substitutes
the closest model that exercises the same code path: per-predicate-column
equi-depth histograms holding count / Σa / Σa² of the aggregate column,
combined across columns under an **independence assumption** (what an
SPN without the right splits degrades to). This preserves DeepDB's
failure shape in the paper's Table 2 — fine on 1-D templates, sharply
worse on correlated multi-dimensional templates, and *not* improved by
training on more data (the model class, not the sample, is the
bottleneck).
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame

from ..core.query import Query
from ..core.synopsis import AqpResult

#: Equi-depth buckets per predicate column.
N_BUCKETS = 64


class _Marginal:
    """Equi-depth histogram over one predicate column with per-bucket
    count, Σa and range edges; in-bucket mass is assumed uniform."""

    def __init__(self, c: np.ndarray, a: np.ndarray, n_buckets: int) -> None:
        qs = np.linspace(0, 1, n_buckets + 1)
        edges = np.unique(np.quantile(c, qs))
        if len(edges) < 2:
            edges = np.array([edges[0], edges[0] + 1.0])
        self.edges = edges
        idx = np.clip(np.searchsorted(edges, c, side="right") - 1, 0, len(edges) - 2)
        nb = len(edges) - 1
        self.count = np.bincount(idx, minlength=nb).astype(np.float64)
        self.sum = np.bincount(idx, weights=a, minlength=nb)
        self.total_count = float(self.count.sum())
        self.total_sum = float(self.sum.sum())

    def fractions(self, lo: float, hi: float) -> tuple[float, float]:
        """(count fraction, sum fraction) of mass inside [lo, hi], with
        linear interpolation inside partially-covered edge buckets."""
        e = self.edges
        fc = fs = 0.0
        for b in range(len(e) - 1):
            b_lo, b_hi = e[b], e[b + 1]
            width = b_hi - b_lo
            ov_lo, ov_hi = max(lo, b_lo), min(hi, b_hi)
            if ov_hi < ov_lo:
                continue
            frac = 1.0 if width == 0 else min(1.0, (ov_hi - ov_lo) / width)
            fc += frac * self.count[b]
            fs += frac * self.sum[b]
        if self.total_count:
            fc = fc / self.total_count
        if self.total_sum:
            fs = fs / self.total_sum
        return fc, fs


class DeepDBLite:
    """Factorised histogram model over the predicate columns."""

    def __init__(
        self,
        marginals: dict[str, _Marginal],
        n_total: float,
        total_sum: float,
        build_seconds: float = 0.0,
    ) -> None:
        self.marginals = marginals
        self.n_total = float(n_total)
        self.total_sum = float(total_sum)
        self.build_seconds = build_seconds

    @classmethod
    def build(
        cls,
        df: DataFrame,
        pred_cols: list[str],
        value_col: str,
        *,
        train_frac: float = 1.0,
        seed: int = 0,
    ) -> "DeepDBLite":
        t0 = time.perf_counter()
        n_total = df.count()
        sdf = df if train_frac >= 1.0 else df.sample(fraction=train_frac, seed=seed)
        pdf = sdf.select(*pred_cols, value_col).toPandas()
        a = pdf[value_col].to_numpy(dtype=np.float64)
        scale = n_total / max(1, len(pdf))
        marginals = {
            c: _Marginal(pdf[c].to_numpy(dtype=np.float64), a, N_BUCKETS) for c in pred_cols
        }
        return cls(marginals, n_total, float(a.sum()) * scale, time.perf_counter() - t0)

    def answer(self, q: Query) -> AqpResult:
        fc = fs = 1.0
        for c, lo, hi in zip(q.cols, q.lo, q.hi):
            m = self.marginals[c]
            f_count, f_sum = m.fractions(lo, hi)
            fc *= f_count
            fs *= f_sum
        est_count = self.n_total * fc
        est_sum = self.total_sum * fs
        if q.agg == "count":
            return AqpResult(est_count, float("nan"))
        if q.agg == "sum":
            return AqpResult(est_sum, float("nan"))
        if q.agg == "avg":
            est = est_sum / est_count if est_count > 0 else float("nan")
            return AqpResult(est, float("nan"))
        raise ValueError(f"DeepDBLite does not support {q.agg!r}")

    @property
    def storage_bytes(self) -> int:
        return sum(
            (len(m.edges) + 2 * len(m.count)) * 8 for m in self.marginals.values()
        )
