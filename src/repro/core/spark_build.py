"""Spark-side build path for PASS and the sampling baselines.

Everything that touches the full dataset happens here, through the
DataFrame/Catalyst API:

* leaf assignment — an Arrow-vectorised pandas UDF evaluating
  ``np.searchsorted`` over the 1-D boundaries, or an arbitrary vectorised
  assigner (the k-d tree descent) for multi-dimensional partitionings;
* per-leaf aggregates — one ``groupBy("leaf_id").agg(...)`` computing
  SUM/COUNT/MIN/MAX of the aggregation column plus the per-dimension
  min/max of every predicate column (the data extents the MCF classifier
  uses);
* stratified sampling — exact per-stratum sample sizes via
  ``row_number() over (partition by leaf_id order by rand(seed))``.

The collected outputs are tiny (k rows of aggregates, K sampled rows);
query answering then runs driver-side over the synopsis, which is the
point of a synopsis structure.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .tree import NodeStats

LEAF_COL = "__leaf_id"


def with_leaf_1d(df: DataFrame, pred_col: str, boundaries: np.ndarray) -> DataFrame:
    """Attach the 1-D partition id: searchsorted over interior boundaries."""
    b = np.asarray(boundaries, dtype=np.float64)

    @F.pandas_udf("long")
    def bucket(v: pd.Series) -> pd.Series:
        return pd.Series(np.searchsorted(b, v.to_numpy(dtype=np.float64), side="right"))

    return df.withColumn(LEAF_COL, bucket(F.col(pred_col)))


def with_leaf_fn(
    df: DataFrame, pred_cols: list[str], assign: Callable[[np.ndarray], np.ndarray]
) -> DataFrame:
    """Attach a partition id computed by an arbitrary vectorised assigner
    (rows × d → leaf ids); used for the k-d tree partitionings."""

    @F.pandas_udf("long")
    def bucket(*cols: pd.Series) -> pd.Series:
        x = np.column_stack([c.to_numpy(dtype=np.float64) for c in cols])
        return pd.Series(assign(x))

    return df.withColumn(LEAF_COL, bucket(*[F.col(c) for c in pred_cols]))


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
    seed: int = 0,
) -> pd.DataFrame:
    """Exact per-stratum uniform samples.

    ``k_per_leaf`` maps leaf id → sample size K_i. Rows get a rand(seed)
    key, are ranked within their stratum by a window, and rank ≤ K_i rows
    survive. Returns leaf_id + predicate columns + value column.
    """
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
    first predicate column. Bernoulli sample with headroom, trimmed to m."""
    if m >= n_total:
        pdf = df.select(*pred_cols, value_col).toPandas()
    else:
        frac = min(1.0, 1.3 * m / n_total + 10.0 / n_total)
        pdf = df.select(*pred_cols, value_col).sample(fraction=frac, seed=seed).toPandas()
        if len(pdf) > m:
            pdf = pdf.sample(n=m, random_state=seed)
    return pdf.sort_values(pred_cols[0]).reset_index(drop=True)
