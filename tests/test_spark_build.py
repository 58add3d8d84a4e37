"""Spark build path: leaf ids compiled to SQL, groupBy aggregates
(oracle-checked), threshold stratified sampling, NULL values; the leaf ids
and samples are checked against the pandas-UDF bucketing and the window
sampler they replace."""
import contextlib

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro import synth_data
from repro.core import spark_build, synopsis
from repro.core.kdtree import KDTree
from repro.core.partitioner import assign_partitions
from repro.core.query import Query
from repro.core.spark_build import LEAF_COL
from repro.core.synopsis import PassSynopsis, allocate_budget, sample_thresholds
from repro.oracle import assert_equivalent
from tests.reference import udf_leaf_1d, udf_leaf_fn, window_sample


@pytest.fixture(scope="module")
def intel_leaf_df(intel_df):
    b = np.array([30000.0, 60000.0, 120000.0])
    return spark_build.with_leaf_1d(intel_df, "time", b).cache(), b


def test_with_leaf_1d_matches_searchsorted(intel_leaf_df, intel_pdf):
    df, b = intel_leaf_df
    got = df.select("time", LEAF_COL).toPandas().sort_values("time")
    exp = np.searchsorted(b, got["time"].to_numpy(), side="right")
    assert np.array_equal(got[LEAF_COL].to_numpy(), exp)


def test_leaf_aggregates_against_duckdb_oracle(intel_leaf_df, intel_pdf):
    """The one groupBy of the build path must agree with DuckDB."""
    df, b = intel_leaf_df
    agg = spark_build.leaf_aggregates(df, "light", ["time"])
    spark_res = df.sparkSession.createDataFrame(
        agg.rename(columns={LEAF_COL: "leaf"})[
            ["leaf", "agg_sum", "agg_count", "agg_min", "agg_max"]
        ]
    )
    pdf = intel_pdf.copy()
    pdf["leaf"] = np.searchsorted(b, pdf["time"].to_numpy(), side="right")
    assert_equivalent(
        spark_res,
        """
        SELECT leaf,
               SUM(light) AS agg_sum,
               COUNT(*) AS agg_count,
               MIN(light) AS agg_min,
               MAX(light) AS agg_max
        FROM t GROUP BY leaf
        """,
        t=pdf,
    )


def test_leaf_aggregates_pred_extents(intel_leaf_df, intel_pdf):
    df, b = intel_leaf_df
    agg = spark_build.leaf_aggregates(df, "light", ["time"]).set_index(LEAF_COL)
    pdf = intel_pdf.copy()
    pdf["leaf"] = np.searchsorted(b, pdf["time"].to_numpy(), side="right")
    for leaf, grp in pdf.groupby("leaf"):
        assert agg.loc[leaf, "pmin_time"] == grp["time"].min()
        assert agg.loc[leaf, "pmax_time"] == grp["time"].max()


def test_leaves_from_aggregates_orders_and_fills(intel_leaf_df):
    df, b = intel_leaf_df
    agg = spark_build.leaf_aggregates(df, "light", ["time"])
    leaves = spark_build.leaves_from_aggregates(agg, ["time"], 6)
    assert len(leaves) == 6
    by_id = agg.set_index(LEAF_COL)
    for i in by_id.index:
        assert leaves.count[i] == by_id.loc[i, "agg_count"]
        assert leaves.sum[i] == by_id.loc[i, "agg_sum"]
        assert leaves.pmin[i, 0] == by_id.loc[i, "pmin_time"]
    # Leaves 4 and 5 don't exist in the data — empty nodes.
    assert leaves.count[5] == 0 and leaves.pmin[5, 0] == np.inf


def leaf_sizes(pdf, col, b):
    """N_i of every 1-D leaf: rows per ``searchsorted`` id."""
    return np.bincount(np.searchsorted(b, pdf[col].to_numpy(), side="right"), minlength=len(b) + 1)


def fused_sample(df_leaf, value, cols, k, n, t=None, seed=0):
    """The build's sample: one job aggregates and collects the rows drawing
    under ``t`` (by default about 3·K_i/N_i), then the driver keeps the K_i
    smallest draws, scanning short leaves again. ``k`` maps leaf id → K_i,
    capped at N_i = ``n[i]``."""
    n = np.asarray(n, dtype=np.float64)
    k_arr = np.zeros(len(n), dtype=np.int64)
    k_arr[list(k)] = list(k.values())
    k_arr = np.minimum(k_arr, n).astype(np.int64)
    if t is None:
        t = np.minimum(1.0, (3.0 * k_arr + 10.0) / np.maximum(n, 1.0))
    agg = spark_build.leaf_aggregates(df_leaf, value, cols, ([*cols, value], t, seed))
    return spark_build.stratified_sample(df_leaf, [*cols, value], agg, k_arr, seed)


def test_stratified_sample_sizes_exact(intel_leaf_df, intel_pdf):
    df, b = intel_leaf_df
    want = {0: 17, 1: 5, 2: 31, 3: 8}
    s = fused_sample(df, "light", ["time"], want, leaf_sizes(intel_pdf, "time", b), seed=3)
    got = s.groupby(LEAF_COL).size().to_dict()
    assert got == want


def test_stratified_sample_rows_belong_to_stratum(intel_leaf_df, intel_pdf):
    df, b = intel_leaf_df
    s = fused_sample(df, "light", ["time"], {0: 20, 3: 20}, leaf_sizes(intel_pdf, "time", b), seed=1)
    ids = np.searchsorted(b, s["time"].to_numpy(), side="right")
    assert np.array_equal(ids, s[LEAF_COL].to_numpy())


def test_stratified_sample_caps_at_stratum_size(spark):
    pdf = pd.DataFrame({"c": np.arange(20.0), "v": np.arange(20.0)})
    df = spark.createDataFrame(pdf)
    dfl = spark_build.with_leaf_1d(df, "c", np.array([10.0]))
    s = fused_sample(dfl, "v", ["c"], {0: 100, 1: 3}, [10, 10], seed=0)
    sizes = s.groupby(LEAF_COL).size()
    assert sizes[0] == 10 and sizes[1] == 3


def test_uniform_sample_exact_k(intel_df):
    s = spark_build.uniform_sample(intel_df, "light", ["time"], 123, seed=5)
    assert len(s) == 123
    assert set(s.columns) == {"time", "light"}


def test_uniform_sample_is_random(intel_df):
    s1 = spark_build.uniform_sample(intel_df, "light", ["time"], 50, seed=1)
    s2 = spark_build.uniform_sample(intel_df, "light", ["time"], 50, seed=2)
    assert set(s1["time"]) != set(s2["time"])


def test_optimization_sample_sorted_and_sized(intel_df, intel_pdf):
    """2m rows come back: the optimiser's m sorted by the predicate, then m
    held-out rows, drawn at a rate that puts m/rate near the row count."""
    rows, rate = spark_build.optimization_sample(intel_df, "light", ["time"], 300, seed=0)
    assert len(rows) == 600 and list(rows.columns) == ["time", "light"]
    assert rows["time"][:300].is_monotonic_increasing
    assert 0.6 * len(intel_pdf) < 300 / rate < 1.6 * len(intel_pdf)


def test_optimization_sample_full_when_m_exceeds_n(intel_df, intel_pdf):
    """Fewer than 2m rows: every row comes back, the first m sorted, at rate 1."""
    for m in (len(intel_pdf), 4000):
        rows, rate = spark_build.optimization_sample(intel_df, "light", ["time"], m, seed=0)
        assert len(rows) == len(intel_pdf) and rate == 1.0
        assert rows["time"][:m].is_monotonic_increasing
        assert sorted(rows["time"]) == sorted(intel_pdf["time"])


def test_with_leaf_fn_multidim(nyc_df, nyc_pdf):
    from repro.core.kdtree import KDTree

    cols = ["pickup_time", "pickup_date"]
    x = nyc_pdf[cols].to_numpy(float)
    a = nyc_pdf["trip_distance"].to_numpy(float)
    kd = KDTree(x, a, 16, policy="us")
    dfl = spark_build.with_leaf_fn(nyc_df, cols, kd)
    got = dfl.select(*cols, LEAF_COL).toPandas()
    exp = kd(got[cols].to_numpy(float))
    assert np.array_equal(got[LEAF_COL].to_numpy(), exp)


def test_tpch_groupby_oracle(nyc_df):
    """A groupBy over the shuffle path (broadcast joins are disabled by the
    fixture) agrees with the DuckDB oracle: per-day SUM and COUNT of
    ``trip_distance``."""
    res = nyc_df.groupBy("pickup_date").agg(
        F.sum("trip_distance").alias("sum_dist"),
        F.count(F.lit(1)).alias("cnt"),
    )
    assert_equivalent(
        res,
        "SELECT pickup_date, SUM(trip_distance) AS sum_dist, COUNT(*) AS cnt "
        "FROM nyc GROUP BY pickup_date",
        nyc=nyc_df,
    )


# -- leaf ids at the edges: every boundary value, repeats, ±inf, NaN, NULL --


def double_frame(spark, cols, rows):
    """A frame of DOUBLE columns in which NaN stays NaN and None is NULL."""
    schema = T.StructType([T.StructField(c, T.DoubleType()) for c in cols])
    return spark.createDataFrame([tuple(None if x is None else float(x) for x in r) for r in rows], schema)


def around(v: float) -> list[float]:
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def test_with_leaf_1d_edges_match_searchsorted(spark):
    """Every boundary value and its neighbours, a boundary repeated three
    times (two empty leaves between), ±inf, ±0, NaN and NULL get the id
    ``searchsorted(side='right')`` gives them."""
    b = np.array([-1e300, -3.0, 1e-05, 0.1, 2.5, 2.5, 2.5, 7.0, 1.5e20])
    vals = [x for v in b for x in around(float(v))]
    vals += [-np.inf, np.inf, -0.0, 0.0, float("nan"), None]
    df = double_frame(spark, ["c"], [(v,) for v in vals])
    got = spark_build.with_leaf_1d(df, "c", b).toPandas()
    exp = assign_partitions(got["c"].to_numpy(np.float64), b)
    assert np.array_equal(got[LEAF_COL].to_numpy(), exp)
    assert {0, len(b)} <= set(exp) and not {5, 6} & set(exp)


def test_with_leaf_1d_single_leaf(spark):
    df = double_frame(spark, ["c"], [(1.0,), (None,), (-np.inf,)])
    got = spark_build.with_leaf_1d(df, "c", np.array([])).toPandas()
    assert got[LEAF_COL].tolist() == [0, 0, 0]


def test_with_leaf_fn_edges_match_kd_assign(spark):
    """Every split value of every internal node, its neighbours, ±inf, NaN
    and NULL in each dimension get the id the ``KDTree`` router gives them, on
    a duplicate-heavy first dimension."""
    g = np.random.default_rng(5)
    x = np.column_stack([g.integers(0, 6, 600), g.normal(0, 1, 600)]).astype(np.float64)
    kd = KDTree(x, g.lognormal(0, 1, 600), 16, policy="us")
    splits = kd.split[kd.leaf_of < 0]
    assert len(splits) > 1
    rows = [(a, b) for s in splits for a in around(s[0]) for b in around(s[1])]
    rows += [(a, b) for a in splits[:, 0] for b in splits[:, 1]]
    odd = [-np.inf, np.inf, float("nan"), None]
    rows += [(a, 0.0) for a in odd] + [(3.0, b) for b in odd] + [(None, float("nan"))]
    df = double_frame(spark, ["p", "q"], rows)
    got = spark_build.with_leaf_fn(df, ["p", "q"], kd).toPandas()
    exp = kd(got[["p", "q"]].to_numpy(np.float64))
    assert np.array_equal(got[LEAF_COL].to_numpy(), exp)


# -- the threshold sampler picks the window's rows, in the same order --------


def same_samples(new: pd.DataFrame, old: pd.DataFrame, cols: list[str]) -> None:
    """Leaf by leaf, the same rows in the same order."""
    assert sorted(new[LEAF_COL].unique()) == sorted(old[LEAF_COL].unique())
    by_leaf = dict(list(old.groupby(LEAF_COL)))
    for lid, grp in new.groupby(LEAF_COL):
        assert np.array_equal(grp[cols].to_numpy(np.float64), by_leaf[lid][cols].to_numpy(np.float64))


@pytest.fixture(scope="module")
def intel_leaves(intel_df, intel_pdf):
    """Intel split at 8 quantiles: the compiled ids, the UDF ids, N_i, and
    K_i with leaf 2 sampled whole (K_i = N_i)."""
    b = np.quantile(intel_pdf["time"], np.linspace(0, 1, 9)[1:-1])
    n = np.bincount(assign_partitions(intel_pdf["time"].to_numpy(), b), minlength=8)
    k = {i: 20 + 3 * i for i in range(8)}
    k[2] = int(n[2])
    new = spark_build.with_leaf_1d(intel_df, "time", b)
    return new, udf_leaf_1d(intel_df, "time", b), n, k


@pytest.fixture(scope="module")
def nyc_leaves(nyc_df, nyc_pdf):
    """A 3-D KD-PASS tree over NYC, with the same roles as ``intel_leaves``."""
    cols = synth_data.NYC_PREDICATES[:3]
    kd = KDTree(nyc_pdf[cols].to_numpy(np.float64), nyc_pdf["trip_distance"].to_numpy(np.float64), 32)
    n = np.bincount(kd(nyc_pdf[cols].to_numpy(np.float64)), minlength=kd.n_leaves)
    k = {i: 15 + i for i in range(kd.n_leaves) if n[i] > 0}
    k[int(np.argmax(n > 0))] = int(n[n > 0][0])
    new = spark_build.with_leaf_fn(nyc_df, cols, kd)
    return new, udf_leaf_fn(nyc_df, cols, kd), n, k


@pytest.mark.parametrize("data,value,cols", [
    ("intel_leaves", "light", ["time"]),
    ("nyc_leaves", "trip_distance", synth_data.NYC_PREDICATES[:3] + ["dropoff_time"]),
])
def test_threshold_sample_equals_window(request, data, value, cols):
    new_leaf, udf_leaf, n, k = request.getfixturevalue(data)
    new = fused_sample(new_leaf, value, cols, k, n, seed=11)
    old = window_sample(udf_leaf, value, cols, k, seed=11)
    assert len(new) == sum(k.values())
    same_samples(new, old, cols + [value])


@pytest.mark.parametrize("data,value,cols", [
    ("intel_leaves", "light", ["time"]),
    ("nyc_leaves", "trip_distance", synth_data.NYC_PREDICATES[:3]),
])
def test_threshold_sample_top_up_equals_window(request, data, value, cols):
    """Thresholds far too small leave nearly every leaf short; the top-up
    scan must still give the window's rows."""
    new_leaf, udf_leaf, n, k = request.getfixturevalue(data)
    t = np.full(len(n), 0.002)
    new = fused_sample(new_leaf, value, cols, k, n, t, seed=4)
    old = window_sample(udf_leaf, value, cols, k, seed=4)
    assert len(new) == sum(k.values())
    same_samples(new, old, cols + [value])


def test_rescan_still_short_keeps_every_row(intel_leaves):
    """Leaf sizes overstated 1000× make the rescan's thresholds from N_i far
    too small as well: the last scan keeps every row of the leaves still
    short, and the sample is still the window's."""
    new_leaf, udf_leaf, n, k = intel_leaves
    k_arr = np.zeros(len(n), dtype=np.int64)
    k_arr[list(k)] = list(k.values())
    agg = spark_build.leaf_aggregates(new_leaf, "light", ["time"], (["time", "light"], np.full(len(n), 0.002), 6))
    agg["agg_count"] *= 1000
    new = spark_build.stratified_sample(new_leaf, ["time", "light"], agg, k_arr, 6)
    same_samples(new, window_sample(udf_leaf, "light", ["time"], k, seed=6), ["time", "light"])


@pytest.mark.parametrize("data,value,cols", [
    ("intel_leaves", "light", ["time"]),
    ("nyc_leaves", "trip_distance", synth_data.NYC_PREDICATES[:3]),
])
def test_estimated_thresholds_sample_equals_window(request, data, value, cols):
    """Thresholds set by ``sample_thresholds`` from a 5% driver-side sample
    that holds no row of the largest leaf: that leaf is collected whole
    (t = 1), the rest under estimated thresholds, and the sample is still
    the window's."""
    new_leaf, udf_leaf, n, k = request.getfixturevalue(data)
    lids = np.repeat(np.arange(len(n)), n)
    opt = np.random.default_rng(2).choice(lids, size=len(lids) // 20, replace=False)
    big = int(np.argmax(n))
    t = sample_thresholds(0.05, opt[opt != big], len(n), sum(k.values()), "equal")
    assert t[big] == 1.0 and (t < 1.0).any()
    new = fused_sample(new_leaf, value, cols, k, n, t, seed=5)
    old = window_sample(udf_leaf, value, cols, k, seed=5)
    assert len(new) == sum(k.values())
    same_samples(new, old, cols + [value])


def test_sample_thresholds_bounds():
    """Leaves without a held-out row, or with no row at all, get t = 1, and
    the estimated t_i·N_i exceeds K_i when the leaf size is as
    estimated."""
    opt = np.repeat([0, 1, 3], [500, 100, 400])  # leaf 2: no row
    t = sample_thresholds(0.01, opt, 4, 400, "equal")
    assert t[2] == 1.0 and (t[[0, 1, 3]] < 1.0).all()
    k = 133  # 400 over the 3 leaves with rows
    assert (t[[0, 1, 3]] * np.array([50_000, 10_000, 40_000]) > k + 4 * np.sqrt(k) + 10).all()
    assert (sample_thresholds(1.0, np.zeros(0, np.int64), 3, 100, "equal") == 1.0).all()


def build_samples_equal_window(syn, udf_leaf, sample_total, alloc, seed):
    """Every leaf's sample of ``syn`` is the window sampler's, drawn over the
    same NULL-free leaf frame, with K_i allocated from the exact leaf sizes."""
    k = allocate_budget([leaf.stats.count for leaf in syn.leaves], sample_total, alloc)
    want = {i: k_i for i, k_i in enumerate(k) if k_i > 0}
    old = window_sample(udf_leaf, syn.value_col, syn.sample_cols, want, seed=seed)
    assert sorted(syn.samples) == sorted(want)
    by_leaf = dict(list(old.groupby(LEAF_COL)))
    for lid, (x, v) in syn.samples.items():
        grp = by_leaf[lid]
        assert len(v) == want[lid]
        assert np.array_equal(x, grp[syn.sample_cols].to_numpy(np.float64), equal_nan=True)
        assert np.array_equal(v, grp[syn.value_col].to_numpy(np.float64))


def test_kd_build_equals_window(nyc_df, nyc_kd_synopsis):
    """The fixture KD-PASS build (samples carry a column the tree is not
    built on) samples exactly the window's rows."""
    syn = nyc_kd_synopsis
    udf = udf_leaf_fn(nyc_df, syn.pred_cols, syn.assign)
    build_samples_equal_window(syn, udf, 800, "equal", 7)


def test_build_restores_huge_method_limit(spark, intel_df):
    """A build runs its Spark jobs under a huge-method limit of at most 8,000
    and leaves the setting exactly as it found it: unset, a lower value the
    caller set (kept during the build too), or a higher one, also when a
    job fails. The failing build's optimisation sample does not read the
    column that raises; its leaf aggregates job, which samples it, does."""
    key = "spark.sql.codegen.hugeMethodLimit"

    def build(df):
        return PassSynopsis.build_1d(
            df, "time", "light", k_partitions=3, sample_total=60, sample_cols=["time", "boom"]
        )

    seen = []
    jit = spark_build.jit_sized_methods

    def spy(session):
        @contextlib.contextmanager
        def inner():
            with jit(session):
                seen.append(session.conf.get(key))
                yield
        return inner()

    working = intel_df.withColumn("boom", F.col("time"))
    failing = intel_df.withColumn("boom", F.expr("IF(time > 0, raise_error('boom'), time)"))
    try:
        spark.conf.unset(key)
        spark_build.jit_sized_methods = spy
        build(working)
        assert spark.conf.get(key, None) is None and seen[-1] == "8000"
        for before, during in (("4000", "4000"), ("65535", "8000")):
            spark.conf.set(key, before)
            build(working)
            assert spark.conf.get(key) == before and seen[-1] == during
            seen.clear()
            with pytest.raises(Exception, match="boom"):
                build(failing)
            assert spark.conf.get(key) == before and seen == [during]
        spark.conf.unset(key)
        seen.clear()
        with pytest.raises(Exception, match="boom"):
            build(failing)
        assert spark.conf.get(key, None) is None and seen == ["8000"]
    finally:
        spark_build.jit_sized_methods = jit
        spark.conf.unset(key)


# -- NULL aggregation values -----------------------------------------------


def test_null_values_left_out_of_synopsis(spark):
    """Rows whose value is NULL are in no leaf aggregate, no sample and not
    in the row total: leaf SUM/COUNT/MIN/MAX and extents equal DuckDB's
    ``WHERE v IS NOT NULL GROUP BY leaf``, and a covered AVG equals SQL AVG.
    The samples are the window's over the rows with a value; a NULL in a
    sampled column that is not the value is kept, as NaN."""
    g = np.random.default_rng(9)
    n = 3000
    c = g.integers(0, 500, n).astype(np.float64)
    v = g.lognormal(0, 1, n)
    null = g.random(n) < 0.2
    w = np.where(np.random.default_rng(10).random(n) < 0.1, None, c / 7.0)
    rows = [(ci, None if z else vi, wi) for ci, vi, z, wi in zip(c, v, null, w)]
    df = double_frame(spark, ["c", "v", "w"], rows)
    syn = PassSynopsis.build_1d(
        df, "c", "v", k_partitions=8, sample_total=400, m_opt=256, sample_cols=["c", "w"], seed=3
    )
    t = pd.DataFrame({"c": c, "v": pd.array(np.where(null, None, v), dtype="Float64")})
    t["leaf"] = syn.assign(c[:, None])
    con = duckdb.connect()
    try:
        con.register("t", t)
        rows = con.execute(
            "SELECT leaf, SUM(v), COUNT(*), MIN(v), MAX(v), MIN(c), MAX(c) "
            "FROM t WHERE v IS NOT NULL GROUP BY leaf"
        ).fetchall()
        sql_avg = con.execute("SELECT AVG(v) FROM t WHERE c BETWEEN 100 AND 300").fetchone()[0]
    finally:
        con.close()
    assert syn.n_total == n - null.sum()
    assert sum(r[2] for r in rows) == syn.n_total
    for leaf, s, cnt, lo, hi, cmin, cmax in rows:
        node = syn.leaves[leaf]
        assert node.stats.sum == pytest.approx(s, rel=1e-12)
        assert (node.stats.count, node.stats.min, node.stats.max) == (cnt, lo, hi)
        assert (node.pred_min[0], node.pred_max[0]) == (cmin, cmax)
    assert not any(np.isnan(sv).any() for _, sv in syn.samples.values())
    assert any(np.isnan(sx[:, 1]).any() for sx, _ in syn.samples.values())
    valued = df.where(F.col("v").isNotNull())
    build_samples_equal_window(syn, udf_leaf_fn(valued, ["c"], syn.assign), 400, "equal", 3)
    for m in (256, n):  # a sample, and every row
        opt, _ = spark_build.optimization_sample(df, "v", ["c"], m, seed=3)
        assert len(opt) and not opt["v"].isna().any()
    # The whole domain covers the root: AVG is answered from exact aggregates.
    root = syn.answer(Query("avg", ("c",), (-1.0,), (1000.0,)))
    assert root.est == pytest.approx(float(np.mean(v[~null])), rel=1e-12)
    # The same through SQL over a range that cuts leaves, via the hard bounds.
    part = syn.answer(Query("avg", ("c",), (100.0,), (300.0,)))
    assert part.lb <= sql_avg <= part.ub


def test_null_predicates_give_finite_boundaries_and_root(spark):
    """A predicate column 30% NULL: the optimisation sample draws only rows
    with a predicate value, so the ADP boundaries are finite and strictly
    increasing, and the NULL rows (in the last leaf, whose Spark MIN/MAX
    skip them) leave the root's extent finite. The rows still count."""
    g = np.random.default_rng(5)
    n = 5000
    c = g.uniform(0.0, 1000.0, n)
    null = g.random(n) < 0.3
    v = g.lognormal(0, 1, n)
    df = double_frame(spark, ["c", "v"], [(None if z else ci, vi) for ci, z, vi in zip(c, null, v)])
    for m in (256, 8000):
        syn = PassSynopsis.build_1d(df, "c", "v", k_partitions=16, sample_total=400, m_opt=m, seed=1)
        b = syn.assign.boundaries
        assert len(b) == 15 and np.isfinite(b).all() and (np.diff(b) > 0).all(), m
        assert np.isfinite(syn.root.pred_min).all() and np.isfinite(syn.root.pred_max).all(), m
        assert syn.n_total == n


# -- the optimisation sample: independent of the strata, sizes the leaves --


@pytest.fixture(scope="module")
def nyc_rid_df(spark, nyc_pdf):
    """The NYC frame with a row id, to follow rows into the samples."""
    df = spark.createDataFrame(nyc_pdf.assign(rid=np.arange(len(nyc_pdf), dtype=np.float64))).cache()
    df.count()
    return df


def test_optimiser_rows_independent_of_stratified_sample(nyc_rid_df, monkeypatch):
    """The rows the optimiser sees overlap the stratified sample about as
    often as independent draws would, m·ΣK_i/n rows (here at most 3× that),
    not in every row, as when both came from one ``rand(seed)`` stream."""
    seen = []
    draw = spark_build.optimization_sample

    def spy(*args, **kwargs):
        rows, rate = draw(*args, **kwargs)
        seen.append(rows)
        return rows, rate

    monkeypatch.setattr(spark_build, "optimization_sample", spy)
    m = 512
    pdf = nyc_rid_df.select("pickup_ts", "trip_distance", "rid").toPandas()
    for seed in (0, 1, 2):
        syn = PassSynopsis.build_1d(
            nyc_rid_df, "pickup_ts", "trip_distance", k_partitions=16, sample_total=800, m_opt=m,
            sample_cols=["pickup_ts", "rid"], seed=seed,
        )
        opt = seen[-1][:m]
        sampled = np.concatenate([x[:, 1] for x, _ in syn.samples.values()])
        # The optimiser's rows by (predicate, value): no two rows share both.
        rid = opt.merge(pdf, on=["pickup_ts", "trip_distance"])["rid"]
        assert len(rid) == m
        expected = m * len(sampled) / syn.n_total
        assert np.isin(rid, sampled).sum() <= 3 * expected, seed


@pytest.mark.parametrize("kind", ["1d", "kd"])
def test_leaf_size_low_estimate_rarely_above_size(nyc_df, monkeypatch, kind):
    """Over build seeds 0–9, at most 5% of the leaves hold fewer rows than
    the low size estimate N_lo their threshold was set from."""
    args = []
    thresholds = synopsis.sample_thresholds

    def spy(rate, held_leaves, n_leaves, total, alloc):
        args.append((rate, held_leaves, n_leaves))
        return thresholds(rate, held_leaves, n_leaves, total, alloc)

    monkeypatch.setattr(synopsis, "sample_thresholds", spy)
    below = leaves = 0
    for seed in range(10):
        if kind == "1d":
            syn = PassSynopsis.build_1d(
                nyc_df, "pickup_ts", "trip_distance", k_partitions=16, sample_total=800, m_opt=256, seed=seed
            )
        else:
            syn = PassSynopsis.build_kd(
                nyc_df, synth_data.NYC_PREDICATES[:3], "trip_distance", k_leaves=32, sample_total=800,
                m_opt=512, seed=seed,
            )
        n_lo, _ = synopsis.leaf_size_bounds(*args[-1])
        n = np.array([leaf.stats.count for leaf in syn.leaves])
        below += int((n < n_lo).sum())
        leaves += len(n)
    assert below <= 0.05 * leaves

