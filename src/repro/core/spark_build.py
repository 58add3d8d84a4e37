"""Spark-side build path for PASS and the sampling baselines.

Everything that touches the full dataset happens here, through the
DataFrame/Catalyst API, and no Python code runs per row:

* leaf assignment — the partition function compiled into one Spark SQL
  expression: a balanced ``CASE`` over the 1-D boundaries, equal to
  ``np.searchsorted(side='right')``, or for a k-d tree a ``CASE`` per split
  dimension under each internal node, equal to :meth:`KDTree.assign`;
* per-leaf aggregates — one ``groupBy("leaf_id").agg(...)`` computing
  SUM/COUNT/MIN/MAX of the aggregation column plus the per-dimension
  min/max of every predicate column (the data extents the MCF classifier
  uses);
* stratified sampling — exact per-stratum sample sizes without a shuffle:
  every row draws ``rand(seed)``, one scan keeps the rows whose draw is
  under a per-leaf threshold set from the exact leaf size, and the driver
  keeps the K_i smallest draws of each leaf.

The collected outputs are tiny (k rows of aggregates, about K sampled
rows); query answering then runs driver-side over the synopsis, which is
the point of a synopsis structure.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .kdtree import KDTree
from .tree import NodeStats

LEAF_COL = "__leaf_id"
_DRAW = "__r"


def _double(x: float) -> str:
    """The float64 ``x`` as an exact Spark SQL literal."""
    x = float(x)
    return f"{x!r}D" if np.isfinite(x) else f"CAST('{x!r}' AS DOUBLE)"


def _name(col: str) -> str:
    return "`" + col.replace("`", "``") + "`"


def with_leaf_1d(df: DataFrame, pred_col: str, boundaries: np.ndarray) -> DataFrame:
    """Attach the 1-D partition id, the number of interior boundaries at or
    below the value: a balanced ``CASE`` of depth log2(k)."""
    b = np.asarray(boundaries, dtype=np.float64)
    c = _name(pred_col)

    def ids(lo: int, hi: int) -> str:
        # The id lies in [lo, hi]; it is below mid iff value < b[mid − 1].
        # A NULL or NaN value goes right, as NaN does in searchsorted.
        if lo == hi:
            return str(lo)
        mid = (lo + hi + 1) // 2
        return f"CASE WHEN {c} < {_double(b[mid - 1])} THEN {ids(lo, mid - 1)} ELSE {ids(mid, hi)} END"

    return df.withColumn(LEAF_COL, F.expr(ids(0, len(b))).cast("long"))


def with_leaf_fn(df: DataFrame, pred_cols: list[str], kd: KDTree) -> DataFrame:
    """Attach the leaf id of the k-d tree ``kd``: its flat decision tree as
    nested ``CASE`` expressions, one per split dimension of each internal
    node. A NULL or NaN coordinate is not above the split, as in numpy."""
    names = [_name(c) for c in pred_cols]
    # Spark orders NaN above every number; only a float column can hold one.
    nan_guard = [
        f" AND NOT isnan({n})" if isinstance(df.schema[c].dataType, (T.FloatType, T.DoubleType)) else ""
        for c, n in zip(pred_cols, names)
    ]

    def node(i: int) -> str:
        if kd.leaf_of[i] >= 0:
            return str(kd.leaf_of[i])

        def below(j: int, code: int) -> str:
            if j == len(names):
                return node(int(kd.child[i, code]))
            c = names[j]
            return (
                f"CASE WHEN {c} > {_double(kd.split[i, j])}{nan_guard[j]} "
                f"THEN {below(j + 1, code | 1 << j)} ELSE {below(j + 1, code)} END"
            )

        return below(0, 0)

    return df.withColumn(LEAF_COL, F.expr(node(0)).cast("long"))


def leaf_aggregates(df_leaf: DataFrame, value_col: str, pred_cols: list[str]) -> pd.DataFrame:
    """Exact per-leaf aggregates: the single groupBy of the build path."""
    aggs = [
        F.sum(value_col).alias("agg_sum"),
        F.count(F.lit(1)).alias("agg_count"),
        F.min(value_col).alias("agg_min"),
        F.max(value_col).alias("agg_max"),
    ]
    for c in pred_cols:
        aggs.append(F.min(c).alias(f"pmin_{c}"))
        aggs.append(F.max(c).alias(f"pmax_{c}"))
    return df_leaf.groupBy(LEAF_COL).agg(*aggs).toPandas()


def leaves_from_aggregates(
    agg_pdf: pd.DataFrame, pred_cols: list[str], n_leaves: int
) -> NodeStats:
    """Per-leaf aggregate arrays in leaf-id order; a leaf with no row is
    empty (count 0)."""
    leaves = NodeStats.empty(n_leaves, len(pred_cols))
    ids = agg_pdf[LEAF_COL].to_numpy(dtype=np.int64)
    for a in ("sum", "count", "min", "max"):
        getattr(leaves, a)[ids] = agg_pdf[f"agg_{a}"].to_numpy(dtype=np.float64)
    leaves.pmin[ids] = agg_pdf[[f"pmin_{c}" for c in pred_cols]].to_numpy(dtype=np.float64)
    leaves.pmax[ids] = agg_pdf[[f"pmax_{c}" for c in pred_cols]].to_numpy(dtype=np.float64)
    return leaves


def stratified_sample(
    df_leaf: DataFrame,
    value_col: str,
    pred_cols: list[str],
    k_per_leaf: dict[int, int],
    n_per_leaf,
    seed: int = 0,
) -> pd.DataFrame:
    """Exact per-stratum uniform samples: the K_i rows of leaf i with the
    smallest ``rand(seed)`` draws, in draw order.

    ``k_per_leaf`` maps leaf id → K_i; ``n_per_leaf[i]`` is N_i, the exact
    size of leaf i (from :func:`leaf_aggregates`). One scan keeps the rows
    drawing under t_i = min(1, (K_i + 4√K_i + 10)/N_i): about K_i + 4√K_i
    + 10 rows a leaf, 4 or more standard deviations above K_i, so about 1
    leaf in 30,000 or fewer needs the top-up scan of :func:`_smallest_draws`.
    Returns leaf_id + predicate columns + value column.
    """
    n = np.asarray(n_per_leaf, dtype=np.float64)
    k = np.zeros(len(n), dtype=np.int64)
    for i, k_i in k_per_leaf.items():
        k[i] = min(int(k_i), int(n[i]))
    t = np.minimum(1.0, (k + 4.0 * np.sqrt(k) + 10.0) / np.maximum(n, 1.0))
    return _smallest_draws(df_leaf, [LEAF_COL, *pred_cols, value_col], k, np.where(k > 0, t, 0.0), seed)


def _smallest_draws(
    df_leaf: DataFrame, cols: list[str], k: np.ndarray, t: np.ndarray, seed: int
) -> pd.DataFrame:
    """``cols`` of the ``k[i]`` rows of each leaf i with the smallest
    ``rand(seed)`` draws, leaf by leaf in draw order.

    A scan keeps the rows whose draw is under ``t[i]``; a leaf that kept
    fewer than ``k[i]`` rows (``k[i]`` must not exceed its size) is scanned
    again with every row kept. The draw is made in a projection straight
    over ``df_leaf``, so both scans see the same draw for each row.
    """
    drawn = df_leaf.select(*cols, F.rand(seed).alias(_DRAW))

    def scan(limit: np.ndarray) -> pd.DataFrame:
        under = f"{_DRAW} < array({', '.join(map(_double, limit))})[{LEAF_COL}]"
        return drawn.where(F.expr(under)).toPandas()

    rows = scan(t)
    short = np.bincount(rows[LEAF_COL], minlength=len(k)) < k
    if short.any():
        rows = pd.concat([rows[~short[rows[LEAF_COL].to_numpy()]], scan(short.astype(np.float64))])
    rows = rows.sort_values([LEAF_COL, _DRAW], kind="stable")
    rank = rows.groupby(LEAF_COL).cumcount().to_numpy()
    return rows[rank < k[rows[LEAF_COL].to_numpy()]][cols].reset_index(drop=True)


def uniform_sample(
    df: DataFrame, value_col: str, pred_cols: list[str], k: int, seed: int = 0
) -> pd.DataFrame:
    """Exactly-k uniform row sample (order by rand, take k)."""
    return (
        df.withColumn("__r", F.rand(seed))
        .orderBy("__r")
        .limit(int(k))
        .select(*pred_cols, value_col)
        .toPandas()
    )


def optimization_sample(
    df: DataFrame, value_col: str, pred_cols: list[str], m: int, n_total: int, seed: int = 0
) -> pd.DataFrame:
    """The m-row sample the partitioning DP runs on (§4.3.1), sorted by the
    first predicate column. Bernoulli sample with headroom, trimmed to m;
    rows whose value is NULL (or NaN) are left out, as NULLs are of the
    synopsis."""
    rows = df.select(*pred_cols, value_col)
    if m >= n_total:
        pdf = rows.toPandas().dropna(subset=[value_col])
    else:
        frac = min(1.0, 1.3 * m / n_total + 10.0 / n_total)
        pdf = rows.sample(fraction=frac, seed=seed).toPandas().dropna(subset=[value_col])
        if len(pdf) > m:
            pdf = pdf.sample(n=m, random_state=seed)
    return pdf.sort_values(pred_cols[0]).reset_index(drop=True)
