"""PASS synopsis: exactness on aligned queries, estimator quality, hard
bounds, CIs, skip accounting, budget allocation, KD build (§3)."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.uniform import one_stratum
from repro.core.query import Query
from repro.core.synopsis import PassSynopsis, allocate_budget
from repro.core.variance import LAMBDA_99
from repro.oracle import assert_equivalent
from repro.synth_data import NYC_PREDICATES
from repro.workload import random_queries
from tests.reference import numpy_answer, random_synopsis, synopsis_1d


# -- budget allocation ---------------------------------------------------


def test_allocate_equal():
    out = allocate_budget([100, 100, 0, 100], 30, "equal")
    assert out == [10, 10, 0, 10]


def test_allocate_equal_caps():
    out = allocate_budget([5, 100], 40, "equal")
    assert out == [5, 20]


def test_allocate_proportional():
    out = allocate_budget([100, 300], 40, "proportional")
    assert out == [10, 30]


def test_allocate_zero_budget():
    assert allocate_budget([10, 10], 0, "equal") == [0, 0]


def test_allocate_unknown_mode():
    with pytest.raises(ValueError):
        allocate_budget([10], 5, "weird")


# -- 1-D synopsis basics -------------------------------------------------


def test_build_1d_shapes(intel_synopsis):
    syn = intel_synopsis
    assert len(syn.leaves) <= 16
    assert syn.n_total == 6000
    assert syn.n_samples > 0
    assert syn.storage_bytes > 0
    assert syn.build_seconds > 0


def test_leaf_counts_sum_to_n(intel_synopsis):
    assert sum(l.stats.count for l in intel_synopsis.leaves) == 6000


def test_root_aggregates_match_dataset(intel_synopsis, intel_pdf):
    r = intel_synopsis.root.stats
    assert r.count == len(intel_pdf)
    assert r.sum == pytest.approx(intel_pdf["light"].sum(), rel=1e-9)
    assert r.min == pytest.approx(intel_pdf["light"].min())
    assert r.max == pytest.approx(intel_pdf["light"].max())


@pytest.mark.parametrize("agg", ["sum", "count", "avg", "min", "max"])
def test_full_range_query_exact(intel_synopsis, intel_pdf, agg):
    """A query covering the whole domain is answered exactly from the root
    (0 sampling error, 0-width CI for sum/count/avg)."""
    q = Query(agg, ("time",), (-1e18,), (1e18,))
    res = intel_synopsis.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)
    if agg in ("sum", "count", "avg"):
        assert res.ci_half == pytest.approx(0.0, abs=1e-9)
    assert res.skipped_frac == pytest.approx(1.0)
    assert res.processed == 0


def test_aligned_query_exact_and_oracle_checked(intel_synopsis, intel_df, intel_pdf):
    """A query aligned with leaf extents is exact; its answer equals
    DuckDB's over the same predicate."""
    leaf = intel_synopsis.leaves[3]
    lo, hi = float(leaf.pred_min[0]), float(leaf.pred_max[0])
    q = Query("sum", ("time",), (lo,), (hi,))
    res = intel_synopsis.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)
    assert res.ci_half == 0.0
    spark = intel_df.sparkSession
    got = spark.createDataFrame([(float(res.est),)], ["result"])
    assert_equivalent(got, q.sql("t", "light"), t=intel_pdf)


def test_union_of_leaves_exact(intel_synopsis, intel_pdf):
    l3, l4 = intel_synopsis.leaves[3], intel_synopsis.leaves[4]
    q = Query("sum", ("time",), (float(l3.pred_min[0]),), (float(l4.pred_max[0]),))
    res = intel_synopsis.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_random_queries_reasonable_error(intel_synopsis, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 40, seed=11, min_count=60)
    errs = []
    for q in qs:
        t = q.truth(intel_pdf, "light")
        if not np.isfinite(t) or t == 0:
            continue
        errs.append(abs(intel_synopsis.answer(q).est - t) / abs(t))
    assert np.median(errs) < 0.10


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_hard_bounds_contain_truth(intel_synopsis, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 40, seed=13, min_count=30)
    for q in qs:
        t = q.truth(intel_pdf, "light")
        res = intel_synopsis.answer(q)
        if np.isfinite(t) and np.isfinite(res.lb):
            assert res.lb - 1e-6 <= t <= res.ub + 1e-6


@pytest.mark.parametrize("agg", ["min", "max"])
def test_minmax_bounds_and_estimates(intel_synopsis, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 25, seed=17, min_count=30)
    for q in qs:
        t = q.truth(intel_pdf, "light")
        res = intel_synopsis.answer(q)
        assert res.lb - 1e-6 <= t <= res.ub + 1e-6
        assert res.lb - 1e-6 <= res.est <= res.ub + 1e-6
        if agg == "min":
            assert res.est >= t - 1e-9  # sample min can only overshoot
        else:
            assert res.est <= t + 1e-9


def test_ci_covers_truth_usually(nyc_1d_synopsis, nyc_pdf):
    """CI coverage on a smooth aggregate (NYC trip distance). The Intel
    stand-in's rare heavy-tailed spikes make small-sample CIs unreliable —
    exactly the §2.1.1 pathology — so coverage is asserted here instead."""
    qs = random_queries(nyc_pdf, ["pickup_time"], "sum", 60, seed=19, min_count=80)
    hits = total = 0
    for q in qs:
        t = q.truth(nyc_pdf, "trip_distance")
        if not np.isfinite(t) or t == 0:
            continue
        res = nyc_1d_synopsis.answer(q)
        total += 1
        hits += res.est - res.ci_half <= t <= res.est + res.ci_half
    # λ=2.576 is a 99% CI; allow generous slack for 60 draws.
    assert hits / total > 0.85


def test_skip_rate_and_processed(intel_synopsis, intel_pdf):
    qs = random_queries(intel_pdf, ["time"], "sum", 20, seed=23, min_count=60)
    for q in qs:
        res = intel_synopsis.answer(q)
        assert 0.0 <= res.skipped_frac <= 1.0
        assert res.processed <= intel_synopsis.n_samples


def test_empty_region_query(intel_synopsis):
    q = Query("sum", ("time",), (1e17,), (1e18,))
    res = intel_synopsis.answer(q)
    assert res.est == 0.0 and res.ci_half == 0.0
    q = Query("avg", ("time",), (1e17,), (1e18,))
    assert np.isnan(intel_synopsis.answer(q).est)


def test_eq_partitioner_build(intel_df, intel_pdf):
    syn = PassSynopsis.build_1d(
        intel_df, "time", "light", k_partitions=8, sample_total=200,
        partitioner="eq", m_opt=400, seed=5,
    )
    assert len(syn.leaves) == 8
    sizes = [l.stats.count for l in syn.leaves]
    assert max(sizes) < 2 * min(s for s in sizes if s > 0) + 400


def test_unknown_partitioner(intel_df):
    with pytest.raises(ValueError):
        PassSynopsis.build_1d(
            intel_df, "time", "light", k_partitions=4, sample_total=50, partitioner="xxx"
        )


# -- workload shift (§5.4.1) --------------------------------------------


def test_external_column_demotes_coverage(nyc_kd_synopsis, nyc_pdf):
    """Constraining a column the synopsis does not index must still give a
    sane (sample-based) answer with no hard bounds."""
    q = Query(
        "sum",
        ("pickup_time", "dropoff_time"),
        (20000.0, 10000.0),
        (70000.0, 80000.0),
    )
    res = nyc_kd_synopsis.answer(q)
    t = q.truth(nyc_pdf, "trip_distance")
    assert np.isnan(res.lb)
    assert np.isfinite(res.est)
    assert abs(res.est - t) / t < 0.5


def test_external_column_missing_from_samples_raises(intel_synopsis):
    q = Query("sum", ("nonexistent",), (0.0,), (1.0,))
    with pytest.raises(KeyError):
        intel_synopsis.answer(q)


# -- KD synopsis ---------------------------------------------------------


def test_kd_root_matches_dataset(nyc_kd_synopsis, nyc_pdf):
    r = nyc_kd_synopsis.root.stats
    assert r.count == len(nyc_pdf)
    assert r.sum == pytest.approx(nyc_pdf["trip_distance"].sum(), rel=1e-9)


def test_kd_leaf_counts_sum(nyc_kd_synopsis, nyc_pdf):
    assert sum(l.stats.count for l in nyc_kd_synopsis.leaves) == len(nyc_pdf)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_kd_random_queries(nyc_kd_synopsis, nyc_pdf, agg):
    cols = NYC_PREDICATES[:3]
    qs = random_queries(nyc_pdf, cols, agg, 30, seed=31, min_count=80)
    errs, viol = [], 0
    for q in qs:
        t = q.truth(nyc_pdf, "trip_distance")
        if not np.isfinite(t) or t == 0:
            continue
        res = nyc_kd_synopsis.answer(q)
        errs.append(abs(res.est - t) / abs(t))
        if np.isfinite(res.lb) and not (res.lb - 1e-6 <= t <= res.ub + 1e-6):
            viol += 1
    assert viol == 0
    assert np.median(errs) < 0.25


def test_kd_full_range_exact(nyc_kd_synopsis, nyc_pdf):
    cols = NYC_PREDICATES[:3]
    q = Query("sum", tuple(cols), (-1e18,) * 3, (1e18,) * 3)
    res = nyc_kd_synopsis.answer(q)
    assert res.est == pytest.approx(nyc_pdf["trip_distance"].sum(), rel=1e-9)


def test_mean_partial_fraction(intel_synopsis, intel_pdf):
    qs = random_queries(intel_pdf, ["time"], "sum", 20, seed=37, min_count=60)
    f = intel_synopsis.mean_partial_fraction(qs)
    assert 0.0 <= f <= 1.0


# -- signed values (§2.3 bounds beyond paper footnote 2) ---------------------


def _centred_synopsis(nyc_pdf, per_leaf):
    """PASS over a mean-centred ``trip_distance`` (about half the values
    negative), built from numpy arrays."""
    c = nyc_pdf["pickup_time"].to_numpy(float)
    v = nyc_pdf["trip_distance"].to_numpy(float)
    v = v - v.mean()
    b = np.quantile(c, np.linspace(0, 1, 17)[1:-1])
    return synopsis_1d(c, v, b, per_leaf, seed=1), c, v


def test_signed_sum_bounds_contain_truth(nyc_pdf):
    syn, c, v = _centred_synopsis(nyc_pdf, 40)
    assert (v < 0).mean() > 0.3
    qs = random_queries(pd.DataFrame({"c": c}), ["c"], "sum", 150, seed=3)
    for q in qs:
        m = (c >= q.lo[0]) & (c <= q.hi[0])
        res = syn.answer(q)
        assert res.lb - 1e-6 <= v[m].sum() <= res.ub + 1e-6


def test_sum_without_samples_is_bound_midpoint(nyc_pdf):
    """With no sample in any partial leaf, a SUM or COUNT estimate is the
    midpoint of its hard bounds, and each leaf's half-width is its deviation."""
    syn, c, _ = _centred_synopsis(nyc_pdf, 40)
    syn.samples.clear()
    for q in random_queries(pd.DataFrame({"c": c}), ["c"], "sum", 30, seed=4):
        for agg in ("sum", "count"):
            res = syn.answer(Query(agg, q.cols, q.lo, q.hi))
            assert res.est == pytest.approx((res.lb + res.ub) / 2, rel=1e-9, abs=1e-9)
            half = (res.ub - res.lb) / 2
            assert (res.ci_half > 0) == (half > 0)
            assert res.ci_half <= LAMBDA_99 * half * (1 + 1e-9)


# -- the query path against the all-numpy reference -------------------------

#: A predicate value of an inserted row: on the grid, beyond it, NaN or NULL.
PRED = st.one_of(st.integers(0, 11).map(float), st.floats(-30, 40), st.just(math.nan), st.none())


def same(a: float, b: float, scale: float | None = None) -> bool:
    """Equal or both NaN; given a ``scale``, also within 1e-12 of the
    largest of |a|, |b| and ``scale``."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return scale is not None and abs(a - b) <= 1e-12 * max(abs(a), abs(b), scale)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["1d2", "1d4", "kd", "us"]),
    d=st.integers(1, 3),
    n_rows=st.integers(1, 100),
    n_leaves=st.integers(2, 24),
    distinct=st.integers(1, 3),
    unsampled=st.sampled_from([0.0, 0.0, 0.3]),
    aggregates=st.sampled_from([True, True, True, False]),
    external=st.sampled_from([False, False, True]),
    inserts=st.lists(
        st.tuples(st.lists(PRED, min_size=4, max_size=4), st.sampled_from([3.0, 6.0]) | st.floats(-50, 50)),
        max_size=12,
    ),
    boxes=st.lists(
        st.lists(st.tuples(st.integers(-2, 13), st.integers(0, 9)), min_size=4, max_size=4),
        min_size=1, max_size=3,
    ),
)
def test_answer_equals_numpy_answer(seed, kind, d, n_rows, n_leaves, distinct, unsampled, aggregates,
                                    external, inserts, boxes):
    """``answer`` gives what :func:`tests.reference.numpy_answer`, every
    per-node and per-stratum step in numpy, gives: SUM and COUNT estimates
    and CIs and MIN/MAX answers bit for bit, every other field within 1e-12
    relative, or of the largest |value| (AVG) or largest SUM (bounds) the
    data allows, as sums of signed values may cancel. Over 1-D
    fanout-2/4 and k-d synopses, partial leaves with no sample, leaves of
    equal values, AVG with no matching row, a column outside the index, no
    aggregates (ST), the one-leaf US synopsis, and after inserts with NULL
    predicate values."""
    rng = np.random.default_rng(seed)
    if kind == "us":
        x = rng.integers(0, 12, size=(min(n_rows, 30), d + 1)).astype(float)
        syn = one_stratum(x, rng.choice([2.0, 3.0, 6.0], len(x)), [f"c{j}" for j in range(d)] + ["e"], "a", n_rows)
        query_cols = syn.sample_cols
    else:
        base = random_synopsis(seed, kind, d, n_rows, n_leaves, distinct)
        samples = {
            lid: (np.column_stack([sx, rng.integers(0, 12, len(sv)).astype(float)]), sv)
            for lid, (sx, sv) in base.samples.items()
            if rng.random() >= unsampled
        }
        syn = PassSynopsis(
            base.tree, samples, base.pred_cols, "a", base.n_total, base.pred_cols + ["e"],
            use_aggregates=aggregates, assign=base.assign,
        )
        for point, value in inserts:
            syn.insert({**dict(zip(syn.sample_cols, point)), "a": value}, rng)
        query_cols = syn.pred_cols + (["e"] if external else [])
    nodes = syn.tree.nodes
    largest = float(np.nanmax(np.abs([nodes.min[0], nodes.max[0], 1.0])))  # of |value|
    scale = largest * max(1.0, nodes.count[0])
    for box in boxes:
        ranges = box[: len(query_cols)]
        for agg in ("sum", "count", "avg", "min", "max"):
            q = Query(agg, tuple(query_cols), tuple(float(lo) for lo, _ in ranges),
                      tuple(float(lo + w) for lo, w in ranges))
            got, want = syn.answer(q), numpy_answer(syn, q)
            assert (got.processed, got.skipped_frac) == (want.processed, want.skipped_frac)
            assert same(got.lb, want.lb, scale) and same(got.ub, want.ub, scale), (q, got, want)
            if agg == "avg":
                assert same(got.est, want.est, largest) and same(got.ci_half, want.ci_half, largest), (q, got, want)
            else:  # bit for bit
                assert same(got.est, want.est) and same(got.ci_half, want.ci_half), (q, got, want)
