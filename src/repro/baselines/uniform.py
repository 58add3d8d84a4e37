"""US baseline: uniform sampling (§2.1) as a PASS synopsis indexed on no column.

The synopsis is one leaf, the whole table, with no aggregates and a K-row
uniform sample of it. Every query then constrains a column outside the
(empty) index, so :meth:`PassSynopsis.answer` estimates it from that one
stratum's sample (the §5.4.1 rule) with the §2.1 φ-transform estimators,
and gives no hard bounds.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame

from ..core import spark_build
from ..core.synopsis import PassSynopsis
from ..core.tree import NodeStats, build_tree


def one_stratum(
    x: np.ndarray,
    v: np.ndarray,
    sample_cols: list[str],
    value_col: str,
    n_total: float,
    *,
    build_seconds: float = 0.0,
) -> PassSynopsis:
    """The sample ``x`` (K, s) over ``sample_cols``, ``v`` (K,), of an
    ``n_total``-row table as a one-leaf synopsis. The leaf knows its size
    only: its SUM/MIN/MAX are NaN."""
    nan = np.full(1, np.nan)
    leaf = NodeStats(nan, np.full(1, float(n_total)), nan, nan, np.empty((1, 0)), np.empty((1, 0)))
    return PassSynopsis(
        build_tree(leaf), {0: (x, v)}, [], value_col, n_total, sample_cols,
        build_seconds=build_seconds, use_aggregates=False,
    )


def sampled(
    df: DataFrame, pred_cols: list[str], value_col: str, k: int, n_rows: int, seed: int, t0: float
) -> PassSynopsis:
    """A ``k``-row uniform sample of the ``n_rows``-row frame ``df`` as
    :func:`one_stratum`, whose build started at ``t0``."""
    pdf = spark_build.uniform_sample(df, value_col, pred_cols, k, seed=seed)
    return one_stratum(
        pdf[pred_cols].to_numpy(dtype=np.float64),
        pdf[value_col].to_numpy(dtype=np.float64),
        pred_cols,
        value_col,
        n_rows,
        build_seconds=time.perf_counter() - t0,
    )


def build_uniform(
    df: DataFrame, pred_cols: list[str], value_col: str, *, k: int, seed: int = 0
) -> PassSynopsis:
    """US: a K-row uniform sample of the rows with a value answers every
    query."""
    t0 = time.perf_counter()
    df = spark_build.valued(df, value_col)
    return sampled(df, pred_cols, value_col, k, df.count(), seed, t0)
