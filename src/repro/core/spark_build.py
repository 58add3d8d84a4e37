"""Spark-side build path for PASS and the sampling baselines.

Everything that touches the full dataset happens here, through the
DataFrame/Catalyst API, and no Python code runs per row:

* leaf assignment — the partition function compiled into one Spark SQL
  expression: a balanced ``CASE`` over the 1-D boundaries, equal to
  ``np.searchsorted(side='right')``, or for a k-d tree a ``CASE`` per split
  dimension under each internal node, equal to the :class:`KDRouter`;
* per-leaf aggregates and sample candidates in one job — one
  ``groupBy("leaf_id").agg(...)`` computes SUM/COUNT/MIN/MAX of the
  aggregation column plus the per-dimension min/max of every predicate
  column (the data extents the MCF classifier uses), and, for a PASS build,
  collects per leaf the sampled columns of the rows whose ``rand(seed)``
  draw is under a per-leaf threshold, as lists of primitive values;
* stratified sampling — exact per-stratum sample sizes without a shuffle:
  the driver keeps the K_i smallest draws of each leaf from those
  candidates. The thresholds are set before the leaf sizes are known, from
  the held-out rows of the optimisation sample; a leaf that comes back short
  is scanned again, so the sample is the K_i smallest draws whatever the
  thresholds were;
* the optimisation sample — the rows with the smallest draws of a ``rand``
  stream of their own, one top-k job that needs no row count.

Each job runs with Spark's huge-method limit at HotSpot's 8,000-byte JIT
limit (:func:`jit_sized_methods`): the k-d ``CASE`` would otherwise compile
into one generated method too large to JIT.

The collected outputs are tiny (k rows of aggregates, a few times K
candidate rows); query answering then runs driver-side over the synopsis,
which is the point of a synopsis structure.
"""
from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .kdtree import KDRouter
from .tree import NodeStats

LEAF_COL = "__leaf_id"
_DRAW = "__r"
_KEEP = "__keep"
_HUGE_METHOD = "spark.sql.codegen.hugeMethodLimit"
_JIT_LIMIT = 8000


def _double(x: float) -> str:
    """The float64 ``x`` as an exact Spark SQL literal."""
    x = float(x)
    return f"{x!r}D" if np.isfinite(x) else f"CAST('{x!r}' AS DOUBLE)"


def _name(col: str) -> str:
    return "`" + col.replace("`", "``") + "`"


def _is_float(df: DataFrame, col: str) -> bool:
    """Whether ``col`` can hold NaN: only a float column can."""
    return isinstance(df.schema[col].dataType, (T.FloatType, T.DoubleType))


def valued(df: DataFrame, value_col: str) -> DataFrame:
    """The rows of ``df`` whose value is not NULL. A row without a value has
    nothing to aggregate: every synopsis leaves it out of its aggregates, its
    samples and its row total."""
    return df.where(F.col(value_col).isNotNull())


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


def with_leaf_fn(df: DataFrame, pred_cols: list[str], kd: KDRouter) -> DataFrame:
    """Attach the leaf id of the k-d tree ``kd``: its flat decision tree as
    nested ``CASE`` expressions, one per split dimension of each internal
    node. A NULL or NaN coordinate is not above the split, as in numpy."""
    names = [_name(c) for c in pred_cols]
    # Spark orders NaN above every number.
    nan_guard = [f" AND NOT isnan({n})" if _is_float(df, c) else "" for c, n in zip(pred_cols, names)]

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


@contextlib.contextmanager
def jit_sized_methods(spark: SparkSession):
    """Run the block with ``spark.sql.codegen.hugeMethodLimit`` at most 8,000
    bytes, HotSpot's limit on the bytecode of a method it compiles, and put
    the setting back exactly as it was afterwards (also on an exception).

    Under whole-stage codegen a k-d leaf-id ``CASE`` becomes one Java method
    over that limit, which the JVM then only interprets. With the limit set,
    Spark falls back to per-expression codegen for such a stage instead. A
    lower limit the caller set is kept.
    """
    old = spark.conf.get(_HUGE_METHOD, None)
    spark.conf.set(_HUGE_METHOD, str(_JIT_LIMIT if old is None else min(_JIT_LIMIT, int(old))))
    try:
        yield
    finally:
        if old is None:
            spark.conf.unset(_HUGE_METHOD)
        else:
            spark.conf.set(_HUGE_METHOD, old)


def _by_leaf(values: np.ndarray) -> str:
    """``values[leaf id]`` of the current row, as Spark SQL."""
    return f"array({', '.join(map(_double, values))})[{LEAF_COL}]"


def _sample_value(col: str) -> str:
    """A sampled column as DOUBLE, NULL as NaN, as Spark SQL."""
    return f"coalesce(CAST({_name(col)} AS DOUBLE), {_double(float('nan'))})"


def leaf_aggregates(
    df_leaf: DataFrame,
    value_col: str,
    pred_cols: list[str],
    sample: tuple[list[str], np.ndarray, int] | None = None,
) -> pd.DataFrame:
    """Exact per-leaf aggregates: the single groupBy of the build path.

    With ``sample = (sample_cols, thresholds, seed)``, one threshold per leaf
    id, the same job also draws ``rand(seed)`` for every row, in a projection
    straight over ``df_leaf``, and collects for each leaf i, as lists of
    primitive values, the draw (column ``__r``) and each of ``sample_cols``
    (column ``sample_<col>``) of the rows whose draw is under
    ``thresholds[i]``: the candidates of :func:`stratified_sample`.
    """
    # Spark SQL strings: each Column built through the Python API costs a
    # round trip to the JVM, an SQL string one for the whole expression.
    v = _name(value_col)
    aggs = [f"sum({v}) AS agg_sum", "count(1) AS agg_count", f"min({v}) AS agg_min", f"max({v}) AS agg_max"]
    for c in pred_cols:
        aggs += [f"{f}({_name(c)}) AS {_name(f'p{f}_{c}')}" for f in ("min", "max")]
    rows = df_leaf
    if sample is not None:
        sample_cols, thresholds, seed = sample
        # The test is its own column so that the plan is analysed with it
        # once, not once per list.
        rows = df_leaf.selectExpr("*", f"rand({int(seed)}L) AS {_DRAW}").selectExpr(
            "*", f"{_DRAW} < {_by_leaf(thresholds)} AS {_KEEP}"
        )
        aggs.append(f"collect_list(IF({_KEEP}, {_DRAW}, NULL)) AS {_DRAW}")
        for c in sample_cols:
            keep = f"IF({_KEEP}, {_sample_value(c)}, NULL)"
            aggs.append(f"collect_list({keep}) AS {_name('sample_' + c)}")
    with jit_sized_methods(df_leaf.sparkSession):
        return rows.groupBy(LEAF_COL).agg(*map(F.expr, aggs)).toPandas()


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


def candidate_threshold(k: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The draw threshold min(1, (K + 4√K + 10)/N) that keeps about
    K + 4√K + 10 of a leaf's N rows, 4 or more standard deviations above K;
    N is taken as at least 1."""
    return np.minimum(1.0, (k + 4.0 * np.sqrt(k) + 10.0) / np.maximum(n, 1.0))


def stratified_sample(
    df_leaf: DataFrame, sample_cols: list[str], candidates: pd.DataFrame, k: np.ndarray, seed: int = 0
) -> pd.DataFrame:
    """Exact per-stratum uniform samples: the ``k[i]`` rows of each leaf i
    with the smallest ``rand(seed)`` draws, leaf by leaf in draw order, as
    leaf id + ``sample_cols`` (DOUBLE, NULL as NaN).

    ``candidates`` is what :func:`leaf_aggregates` returned for ``df_leaf``
    given ``sample_cols`` and the same seed; ``k[i]`` must not exceed the
    size of leaf i. The rows under a threshold include the leaf's smallest
    draws whenever there are at least ``k[i]`` of them. A
    leaf with fewer is scanned again (one more Spark job), keeping the rows
    under :func:`candidate_threshold` of K_i and its exact size N_i; one
    still short then keeps every row. So the sample never depends on the
    thresholds. Every scan draws in a projection straight over ``df_leaf``,
    so each row has the same draw in all of them.
    """
    def scan(limit: np.ndarray) -> pd.DataFrame:
        drawn = df_leaf.selectExpr(
            LEAF_COL, *[f"{_sample_value(c)} AS {_name(c)}" for c in sample_cols],
            f"rand({int(seed)}L) AS {_DRAW}",
        )
        with jit_sized_methods(df_leaf.sparkSession):
            return drawn.where(f"{_DRAW} < {_by_leaf(limit)}").toPandas()

    ids = candidates[LEAF_COL].to_numpy(np.int64)
    rows = pd.DataFrame({LEAF_COL: np.repeat(ids, candidates[_DRAW].map(len).to_numpy())})
    for name, col in {_DRAW: _DRAW, **{c: f"sample_{c}" for c in sample_cols}}.items():
        rows[name] = np.concatenate([[], *candidates[col]]).astype(np.float64)
    n = np.zeros(len(k))
    n[ids] = candidates["agg_count"].to_numpy(np.float64)
    for limit in (candidate_threshold(k, n), 1.0):
        short = np.bincount(rows[LEAF_COL], minlength=len(k)) < k
        if not short.any():
            break
        kept = rows[~short[rows[LEAF_COL].to_numpy()]]
        rows = pd.concat([kept, scan(np.where(short, limit, 0.0))])
    rows = rows.sort_values([LEAF_COL, _DRAW], kind="stable")
    rank = rows.groupby(LEAF_COL).cumcount().to_numpy()
    return rows[rank < k[rows[LEAF_COL].to_numpy()]][[LEAF_COL, *sample_cols]].reset_index(drop=True)


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
    df: DataFrame, value_col: str, pred_cols: list[str], m: int, seed: int = 0
) -> tuple[pd.DataFrame, float]:
    """The m-row sample the partitioning optimiser runs on (§4.3.1), and m
    more rows held out to size the leaves it makes, from one Spark job and
    no row count.

    Only rows whose value and predicate columns are all neither NULL nor NaN
    are drawn (the others draw 2, above every draw, and are dropped if they
    come back): the optimiser places cuts at their values. Each draws from a
    ``rand`` stream of its own, seeded 2³² away from the strata's
    ``rand(seed)``, so the rows the optimiser sees are independent of the
    rows the stratified sample keeps. The 2m smallest draws come back, in
    draw order, and the first m of them are then sorted by the first
    predicate column: ``rows[:m]`` is the optimisation sample and ``rows[m:]``
    the held-out rows.

    Returns ``(rows, rate)``. The held-out rows are the drawn rows whose draw
    lies in (u₍ₘ₎, u₍₂ₘ₎], so each row of the frame is among them with
    probability ``rate`` = u₍₂ₘ₎ − u₍ₘ₎. With fewer than 2m rows every drawn
    row came back: ``rate`` is 1, and every row of ``rows`` sizes the leaves.
    """
    names = [_name(c) for c in (*pred_cols, value_col)]
    drawn = " AND ".join(
        f"{n} IS NOT NULL" + (f" AND NOT isnan({n})" if _is_float(df, c) else "")
        for c, n in zip((*pred_cols, value_col), names)
    )
    # No filter: each DataFrame call is a driver-side analysis of the plan.
    # Nor ``spark.sql`` over ``{df}``: dropping its temporary view uncaches df.
    top = (
        df.selectExpr(*names, f"IF({drawn}, rand({int(seed) + 2**32}L), 2D) AS {_DRAW}")
        .orderBy(_DRAW)
        .limit(2 * int(m))
    )
    # collect, not toPandas: through Arrow the top-k takes a second stage.
    pdf = pd.DataFrame.from_records(top.collect(), columns=[*pred_cols, value_col, _DRAW])
    pdf = pdf[pdf[_DRAW] < 1.0]
    u = pdf.pop(_DRAW).to_numpy(np.float64)
    rate = float(u[2 * m - 1] - u[m - 1]) if len(u) == 2 * m else 1.0
    head = pdf[:m].sort_values(pred_cols[0], kind="stable")
    return pd.concat([head, pdf[m:]]).reset_index(drop=True), rate
