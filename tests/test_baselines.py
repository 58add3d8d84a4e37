"""Baselines: US, ST, AQP++, KD-US, VerdictDB-lite, DeepDB-lite."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import types as T

from repro.baselines.aqppp import AggPlusUniform, build_aqppp_1d, build_kd_us, hill_climb_cuts
from repro.baselines.deepdb_lite import DeepDBLite
from repro.baselines.stratified import build_stratified
from repro.baselines.uniform import build_uniform, one_stratum
from repro.baselines.verdictdb_lite import build_verdictdb
from repro.core import spark_build
from repro.core.query import Query
from repro.core.synopsis import PassSynopsis
from repro.core.tree import NodeStats, build_tree
from repro.core.variance import LAMBDA_99, stratum_estimate
from repro.synth_data import NYC_PREDICATES
from repro.workload import random_queries


@pytest.fixture(scope="module")
def us_full(intel_df):
    """US whose sample is the entire dataset — every estimate exact."""
    return build_uniform(intel_df, ["time"], "light", k=6000, seed=1)


@pytest.fixture(scope="module")
def us_small(intel_df):
    return build_uniform(intel_df, ["time"], "light", k=300, seed=1)


@pytest.fixture(scope="module")
def aqppp(intel_df):
    return build_aqppp_1d(intel_df, "time", "light", n_partitions=16, k_sample=300, m_opt=400, seed=1)


# -- uniform -------------------------------------------------------------


@pytest.mark.parametrize("agg", ["sum", "count", "avg", "min", "max"])
def test_us_full_sample_exact(us_full, intel_pdf, agg):
    q = Query(agg, ("time",), (40000.0,), (120000.0,))
    t = q.truth(intel_pdf, "light")
    res = us_full.answer(q)
    assert res.est == pytest.approx(t, rel=1e-9)
    if agg in ("sum", "count", "avg"):
        assert res.ci_half == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_us_small_sample_reasonable(us_small, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 30, seed=2, min_count=300)
    errs = []
    for q in qs:
        t = q.truth(intel_pdf, "light")
        if np.isfinite(t) and t:
            errs.append(abs(us_small.answer(q).est - t) / abs(t))
    assert np.median(errs) < 0.35


def test_us_ci_covers(us_small, intel_pdf):
    qs = random_queries(intel_pdf, ["time"], "sum", 40, seed=3, min_count=600)
    hits = tot = 0
    for q in qs:
        t = q.truth(intel_pdf, "light")
        res = us_small.answer(q)
        tot += 1
        hits += res.est - res.ci_half <= t <= res.est + res.ci_half
    assert hits / tot > 0.8


def test_us_storage_accounting(us_small):
    assert us_small.storage_bytes == 300 * 2 * 8
    assert us_small.n_samples == 300


def test_us_empty_minmax(us_small):
    res = us_small.answer(Query("min", ("time",), (1e17,), (1e18,)))
    assert np.isnan(res.est)


def test_us_empty_avg(us_small):
    """No matching sample: no estimate, and no claim of certainty about it."""
    res = us_small.answer(Query("avg", ("time",), (1e17,), (1e18,)))
    assert np.isnan(res.est) and np.isnan(res.ci_half)


def _same(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 50),
    unsampled=st.integers(0, 50),
    lo=st.one_of(st.just(-np.inf), st.floats(-2, 12)),
    hi=st.one_of(st.just(np.inf), st.floats(-2, 12)),
)
def test_one_stratum_answers_from_its_sample(seed, k, unsampled, lo, hi):
    """The one-leaf synopsis indexed on no column answers exactly as the
    §2.1 estimators over its one sample: the stratum estimate and λ·σ for
    SUM/COUNT/AVG, the sample's extreme for MIN/MAX with no interval, no
    hard bounds, every sampled row processed and nothing skipped. K = N
    (``unsampled`` = 0) is exact, with a zero interval. Queries include
    ones no sampled row matches and empty ranges (lo > hi)."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 10, k).astype(np.float64)
    v = rng.choice([-3.0, 0.0, 1.0, 2.5, 7.0], k)
    n = k + unsampled
    syn = one_stratum(c[:, None], v, ["c"], "a", n)
    m = (c >= lo) & (c <= hi)
    for agg in ("sum", "count", "avg", "min", "max"):
        res = syn.answer(Query(agg, ("c",), (lo,), (hi,)))
        assert np.isnan(res.lb) and np.isnan(res.ub)
        assert res.processed == k and res.skipped_frac == 0.0
        if agg in ("min", "max"):
            want = (v[m].min() if agg == "min" else v[m].max()) if m.any() else np.nan
            assert _same(res.est, want) and np.isnan(res.ci_half)
            continue
        (est,), (var,), _ = stratum_estimate(agg, v, m, [k], [n])
        assert _same(res.est, est)
        assert _same(res.ci_half, LAMBDA_99 * float(np.sqrt(var)))
        if n == k and not np.isnan(est):
            assert res.ci_half == 0.0


def _tiny(kind):
    """One approach over ``c`` = 0..9, ``a`` = 1, built without Spark."""
    x, v = np.arange(10.0)[:, None], np.ones(10)
    leaf = NodeStats(np.array([10.0]), np.array([10.0]), np.ones(1), np.ones(1), x.min(0)[None], x.max(0)[None])
    if kind is PassSynopsis:
        return PassSynopsis(build_tree(leaf), {0: (x, v)}, ["c"], "a", 10)
    if kind is AggPlusUniform:
        return AggPlusUniform(leaf, lambda z: np.zeros(len(z), np.int64), x, v, ["c"], "a", 10)
    return one_stratum(x, v, ["c"], "a", 10)


@pytest.mark.parametrize("kind", [PassSynopsis, AggPlusUniform, one_stratum])
def test_unknown_query_column_names_it(kind):
    with pytest.raises(KeyError, match="'zz'"):
        _tiny(kind).answer(Query("sum", ("c", "zz"), (0.0, 0.0), (5.0, 1.0)))


# -- stratified ----------------------------------------------------------


def test_st_build_and_flags(intel_df):
    st = build_stratified(intel_df, "time", "light", n_strata=8, sample_total=240, seed=2)
    assert st.use_aggregates is False
    assert len(st.leaves) == 8


def test_st_more_accurate_than_us_on_strata_aligned(intel_df, intel_pdf):
    st = build_stratified(intel_df, "time", "light", n_strata=16, sample_total=300, seed=4)
    us = build_uniform(intel_df, ["time"], "light", k=300, seed=4)
    qs = random_queries(intel_pdf, ["time"], "sum", 40, seed=5, min_count=300)

    def med(app):
        errs = []
        for q in qs:
            t = q.truth(intel_pdf, "light")
            if np.isfinite(t) and t:
                errs.append(abs(app.answer(q).est - t) / abs(t))
        return np.median(errs)

    # ST should not be dramatically worse than US; typically better.
    assert med(st) < 2.0 * med(us)


def test_st_no_hard_bounds(intel_df, intel_pdf):
    st = build_stratified(intel_df, "time", "light", n_strata=8, sample_total=160, seed=6)
    q = random_queries(intel_pdf, ["time"], "sum", 1, seed=7, min_count=100)[0]
    res = st.answer(q)
    assert np.isnan(res.lb) and np.isnan(res.ub)


# -- AQP++ ---------------------------------------------------------------


def test_hill_climb_cuts_valid():
    a = np.random.default_rng(0).lognormal(0, 1, 300)
    cuts = hill_climb_cuts(a, 8, iters=100, seed=0)
    assert cuts[0] == 0 and cuts[-1] == 300
    assert all(b > a_ for a_, b in zip(cuts, cuts[1:]))


def test_hill_climb_improves_objective():
    from repro.core.partitioner import ADP, equal_depth_cuts

    a = np.concatenate([np.zeros(260), np.random.default_rng(1).normal(100, 10, 40)])
    helper = ADP(a, 1)
    cuts_hc = hill_climb_cuts(a, 8, iters=500, seed=1)
    cuts_eq = equal_depth_cuts(300, 8)

    def obj(cuts):
        return max(helper.mvar(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:]))

    assert obj(cuts_hc) <= obj(cuts_eq) + 1e-9


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_aqppp_reasonable(aqppp, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 30, seed=8, min_count=300)
    errs = []
    for q in qs:
        t = q.truth(intel_pdf, "light")
        if np.isfinite(t) and t:
            errs.append(abs(aqppp.answer(q).est - t) / abs(t))
    assert np.median(errs) < 0.3


def test_aqppp_aligned_query_exact(aqppp, intel_pdf):
    """A query exactly covering some partitions has no gap → exact."""
    q = Query("sum", ("time",), (float(aqppp.leaves.pmin[2, 0]),), (float(aqppp.leaves.pmax[2, 0]),))
    res = aqppp.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)
    assert res.ci_half == pytest.approx(0.0, abs=1e-6)


def test_aqppp_hard_bounds(aqppp, intel_pdf):
    qs = random_queries(intel_pdf, ["time"], "sum", 20, seed=9, min_count=100)
    for q in qs:
        t = q.truth(intel_pdf, "light")
        res = aqppp.answer(q)
        assert res.lb - 1e-6 <= t <= res.ub + 1e-6


def test_aqppp_minmax(aqppp, intel_pdf):
    q = random_queries(intel_pdf, ["time"], "max", 1, seed=10, min_count=200)[0]
    res = aqppp.answer(q)
    t = q.truth(intel_pdf, "light")
    assert res.est <= t + 1e-9
    assert res.lb - 1e-6 <= t <= res.ub + 1e-6


# -- KD-US ---------------------------------------------------------------


def test_kd_us_build_and_answer(nyc_df, nyc_pdf):
    cols = NYC_PREDICATES[:2]
    kd = build_kd_us(nyc_df, cols, "trip_distance", k_leaves=32, k_sample=400, m_opt=800, seed=3)
    qs = random_queries(nyc_pdf, cols, "sum", 25, seed=11, min_count=100)
    errs = []
    for q in qs:
        t = q.truth(nyc_pdf, "trip_distance")
        res = kd.answer(q)
        assert res.lb - 1e-6 <= t <= res.ub + 1e-6
        if np.isfinite(t) and t:
            errs.append(abs(res.est - t) / abs(t))
    assert np.median(errs) < 0.35


# -- VerdictDB-lite ------------------------------------------------------


def test_verdictdb_100_exact(intel_df, intel_pdf):
    v = build_verdictdb(intel_df, ["time"], "light", ratio=1.0, seed=1)
    q = Query("sum", ("time",), (30000.0,), (90000.0,))
    assert v.answer(q).est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)
    assert v.storage_bytes == 6000 * 2 * 8


def test_verdictdb_10_less_accurate_smaller(intel_df, intel_pdf):
    v10 = build_verdictdb(intel_df, ["time"], "light", ratio=0.1, seed=1)
    v100 = build_verdictdb(intel_df, ["time"], "light", ratio=1.0, seed=1)
    assert v10.storage_bytes < v100.storage_bytes
    qs = random_queries(intel_pdf, ["time"], "sum", 25, seed=12, min_count=300)
    e10 = np.median(
        [abs(v10.answer(q).est - q.truth(intel_pdf, "light")) / q.truth(intel_pdf, "light") for q in qs]
    )
    e100 = np.median(
        [abs(v100.answer(q).est - q.truth(intel_pdf, "light")) / q.truth(intel_pdf, "light") for q in qs]
    )
    assert e100 <= e10


# -- NULL aggregation values -----------------------------------------------


def test_null_values_left_out_of_sampling_baselines(spark, intel_df):
    """Rows whose value is NULL are left out of US, VerdictDB-lite, AQP++ and
    KD-US, as they are of PASS: the row total counts the rows with a value,
    and SUM and AVG stay finite. On a frame without NULLs the US sample is
    the plain uniform sample."""
    g = np.random.default_rng(4)
    n = 1000
    c, w, v = g.random(n) * 100, g.random(n) * 10, g.lognormal(0, 1, n)
    null = np.zeros(n, dtype=bool)
    null[g.choice(n, 10, replace=False)] = True
    schema = T.StructType([T.StructField(col, T.DoubleType()) for col in ("c", "w", "v")])
    rows = [(float(ci), float(wi), None if z else float(vi)) for ci, wi, vi, z in zip(c, w, v, null)]
    df = spark.createDataFrame(rows, schema)
    valued = pd.DataFrame({"c": c, "w": w, "v": v})[~null]
    approaches = {
        "US": build_uniform(df, ["c"], "v", k=200, seed=1),
        "VerdictDB-100%": build_verdictdb(df, ["c"], "v", ratio=1.0, seed=1),
        "AQP++": build_aqppp_1d(df, "c", "v", n_partitions=8, k_sample=200, m_opt=200, seed=1),
        "KD-US": build_kd_us(df, ["c", "w"], "v", k_leaves=8, k_sample=200, m_opt=200, seed=1),
    }
    for name, app in approaches.items():
        assert app.n_total == n - 10, name
        for agg in ("sum", "avg"):
            q = Query(agg, ("c",), (20.0,), (70.0,))
            res = app.answer(q)
            assert np.isfinite(res.est) and np.isfinite(res.ci_half), (name, agg)
            if name == "VerdictDB-100%":
                assert res.est == pytest.approx(q.truth(valued, "v"), rel=1e-9)
    us = build_uniform(intel_df, ["time"], "light", k=300, seed=1)
    plain = spark_build.uniform_sample(intel_df, "light", ["time"], 300, seed=1)
    (x, sv), = us.samples.values()
    assert np.array_equal(x[:, 0], plain["time"].to_numpy(np.float64))
    assert np.array_equal(sv, plain["light"].to_numpy(np.float64))


# -- DeepDB-lite ---------------------------------------------------------


@pytest.fixture(scope="module")
def deepdb_nyc(nyc_df):
    return DeepDBLite.build(nyc_df, NYC_PREDICATES, "trip_distance", train_frac=1.0, seed=1)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_deepdb_1d_accurate(deepdb_nyc, nyc_pdf, agg):
    qs = random_queries(nyc_pdf, ["pickup_time"], agg, 25, seed=13, min_count=200)
    errs = []
    for q in qs:
        t = q.truth(nyc_pdf, "trip_distance")
        if np.isfinite(t) and t:
            errs.append(abs(deepdb_nyc.answer(q).est - t) / abs(t))
    assert np.median(errs) < 0.12


def test_deepdb_degrades_with_dimension(deepdb_nyc, nyc_pdf):
    """The paper's Table 2 shape: independence models get much worse on
    correlated multi-dim templates."""

    def med(cols):
        qs = random_queries(nyc_pdf, cols, "sum", 25, seed=14, min_count=100)
        errs = []
        for q in qs:
            t = q.truth(nyc_pdf, "trip_distance")
            if np.isfinite(t) and t:
                errs.append(abs(deepdb_nyc.answer(q).est - t) / abs(t))
        return np.median(errs)

    assert med(NYC_PREDICATES[:3]) > med(["pickup_time"])


def test_deepdb_training_fraction_does_not_fix_model(nyc_df, nyc_pdf):
    d10 = DeepDBLite.build(nyc_df, NYC_PREDICATES[:3], "trip_distance", train_frac=0.1, seed=2)
    d100 = DeepDBLite.build(nyc_df, NYC_PREDICATES[:3], "trip_distance", train_frac=1.0, seed=2)
    qs = random_queries(nyc_pdf, NYC_PREDICATES[:3], "sum", 25, seed=15, min_count=100)

    def med(m):
        errs = []
        for q in qs:
            t = q.truth(nyc_pdf, "trip_distance")
            if np.isfinite(t) and t:
                errs.append(abs(m.answer(q).est - t) / abs(t))
        return np.median(errs)

    # More training data must not repair the independence bias: errors
    # stay within the same magnitude.
    assert med(d100) > 0.3 * med(d10)


def test_deepdb_unsupported_agg(deepdb_nyc):
    with pytest.raises(ValueError):
        deepdb_nyc.answer(Query("min", ("pickup_time",), (0.0,), (1.0,)))


def test_deepdb_storage_small(deepdb_nyc):
    assert deepdb_nyc.storage_bytes < 100_000
