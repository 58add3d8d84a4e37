"""§4.5 dynamic updates (reservoir inserts) and the group-by extension."""
import copy
import math
import pickle
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import types as T

from repro.core import spark_build
from repro.core.kdtree import KDRouter, KDTree
from repro.core.partitioner import Router1D
from repro.core.query import Query
from repro.core.synopsis import PassSynopsis, _tree_from_kd
from repro.core.tree import build_tree
from repro.core.variance import LAMBDA_99
from repro.synth_data import NYC_PREDICATES, nyc_taxi_pdf
from tests.reference import insert_vectorised, leaf_stats, random_synopsis, synopsis_1d


@pytest.fixture()
def syn(intel_df):
    """Fresh (non-shared) synopsis per test — inserts mutate it."""
    return PassSynopsis.build_1d(
        intel_df, "time", "light", k_partitions=8, sample_total=200, m_opt=300, seed=1
    )


# -- dynamic inserts -----------------------------------------------------


def test_insert_updates_path_statistics(syn):
    nodes = syn.tree.nodes
    before_sum, before_cnt = nodes.sum.copy(), nodes.count.copy()
    before_root = syn.root.stats
    lid = syn.insert({"time": 100.0, "light": 42.0}, rng=np.random.default_rng(0))
    assert syn.root.stats.count == before_root.count + 1
    assert syn.root.stats.sum == pytest.approx(before_root.sum + 42.0)
    assert syn.leaves[lid].stats.count >= 1
    # Every node on the root→leaf path saw the update, and no other node.
    path = syn.tree.paths[lid]
    assert path[0] == 0 and path[-1] == syn.tree.leaf_node[lid]
    on = np.zeros(syn.tree.n_nodes, bool)
    on[path] = True
    np.testing.assert_array_equal(nodes.count - before_cnt, on.astype(float))
    np.testing.assert_allclose(nodes.sum - before_sum, 42.0 * on, atol=1e-9)
    assert (nodes.max[path] >= 42.0).all() and (nodes.pmin[path, 0] <= 100.0).all()


def test_insert_extends_predicate_extents(syn):
    hi = float(max(l.pred_max[0] for l in syn.leaves if np.isfinite(l.pred_max[0])))
    syn.insert({"time": hi + 1000.0, "light": 5.0})
    assert syn.root.pred_max[0] == hi + 1000.0


def test_insert_answers_stay_consistent(syn, intel_pdf):
    """After inserts, a full-range SUM equals the updated exact total."""
    total = intel_pdf["light"].sum()
    rng = np.random.default_rng(1)
    for i in range(50):
        syn.insert({"time": float(1000 + i), "light": 2.0}, rng=rng)
    q = Query("sum", ("time",), (-1e18,), (1e18,))
    assert syn.answer(q).est == pytest.approx(total + 100.0, rel=1e-9)
    assert syn.n_total == len(intel_pdf) + 50


def test_insert_reservoir_eventually_swaps(syn):
    """With many inserts into one leaf, the reservoir must adopt new
    tuples (probability of never swapping is (1-K/N)^n → 0)."""
    lid = syn.insert({"time": 0.0, "light": 123456.0})
    rng = np.random.default_rng(2)
    for _ in range(2000):
        syn.insert({"time": 0.0, "light": 123456.0}, rng=rng)
    _, sv = syn.samples[lid]
    assert (sv == 123456.0).any()


def test_inserts_equal_a_rebuild():
    """After inserts — some inside their leaf's value range and extents,
    some beyond either — every node equals a tree built from all rows."""
    rng = np.random.default_rng(5)
    c, v = rng.uniform(0, 100, 500), rng.normal(10, 3, 500)
    b = np.arange(10.0, 100.0, 10.0)
    syn = synopsis_1d(c, v, b, 8)
    new_c = np.concatenate([rng.uniform(0, 100, 200), [-5.0, 130.0, 55.0]])
    new_v = np.concatenate([rng.normal(10, 3, 200), [1.0, 2.0, 99.0]])
    for ci, vi in zip(new_c, new_v):
        syn.insert({"c": ci, "a": vi}, rng)
    all_c, all_v = np.concatenate([c, new_c]), np.concatenate([v, new_v])
    lids = np.searchsorted(b, all_c, side="right")
    want = build_tree(leaf_stats(all_c[:, None], all_v, lids, len(b) + 1), fanout=2).nodes
    got = syn.tree.nodes
    np.testing.assert_allclose(got.sum, want.sum, rtol=1e-12)
    for a in ("count", "min", "max", "pmin", "pmax"):
        np.testing.assert_array_equal(getattr(got, a), getattr(want, a))


def test_insert_reservoir_sizes_stable(syn):
    lid = syn.insert({"time": 0.0, "light": 1.0})
    k_before = len(syn.samples[lid][1])
    rng = np.random.default_rng(3)
    for _ in range(100):
        syn.insert({"time": 0.0, "light": 1.0}, rng=rng)
    assert len(syn.samples[lid][1]) == k_before


def test_insert_without_value_leaves_synopsis_untouched():
    """A row whose value is NaN or NULL is left out, as the build leaves it
    out: no node, counter, sample or row count changes, and the exact
    full-range SUM stays finite with its hard bounds."""
    rng = np.random.default_rng(8)
    c = rng.uniform(0, 100, 1000)
    syn = synopsis_1d(c, rng.lognormal(0, 1, c.size), np.arange(10.0, 100.0, 10.0), 20)
    syn.insert({"c": 10.0, "a": 1.0}, rng)
    before = copy.deepcopy(syn)
    q = Query("sum", ("c",), (-1e18,), (1e18,))
    want = syn.answer(q)
    for value in (math.nan, np.nan, None):
        assert syn.insert({"c": 10.0, "a": value}, np.random.default_rng(0)) is None
    assert_same_synopsis(syn, before)
    assert syn.answer(q) == want
    assert math.isfinite(want.est) and want.ci_half == 0 and want.lb == want.est == want.ub


def test_null_predicate_insert_keeps_the_root_covered():
    """A NULL or NaN predicate value counts the row in its leaf's SUM and
    COUNT but widens no extent, as the build's MIN and MAX skip NULLs: the
    full-range SUM stays exact, with its hard bounds, and counts the row."""
    rng = np.random.default_rng(8)
    c = rng.uniform(0, 100, 1000)
    v = rng.lognormal(0, 1, c.size)
    syn = synopsis_1d(c, v, np.arange(10.0, 100.0, 10.0), 20)
    nodes = syn.tree.nodes
    pmin, pmax, count = nodes.pmin.copy(), nodes.pmax.copy(), nodes.count.copy()
    q = Query("sum", ("c",), (-1e18,), (1e18,))
    lids = [syn.insert({"c": p, "a": 1.0}, rng) for p in (None, math.nan)]
    leaf = syn.tree.leaf_node[lids[0]]
    assert lids[1] == lids[0] and nodes.count[leaf] == count[leaf] + 2
    np.testing.assert_array_equal(nodes.pmin, pmin)
    np.testing.assert_array_equal(nodes.pmax, pmax)
    res = syn.answer(q)
    assert res.ci_half == 0 and res.lb == res.est == res.ub
    assert res.est == pytest.approx(v.sum() + 2.0, rel=1e-12)


def spark_tree(spark, rows: list[tuple], cols: list[str], kd: KDTree | None, boundaries=None):
    """The tree the Spark build path aggregates over ``rows`` (the predicate
    columns ``cols``, then the value ``v``; None is NULL), leaves routed by
    the k-d tree ``kd`` or, without one, by the 1-D ``boundaries``."""
    schema = T.StructType([T.StructField(c, T.DoubleType()) for c in [*cols, "v"]])
    df = spark.createDataFrame([tuple(None if x is None else float(x) for x in r) for r in rows], schema)
    if kd is None:
        df_leaf, n_leaves = spark_build.with_leaf_1d(df, cols[0], boundaries), len(boundaries) + 1
    else:
        df_leaf, n_leaves = spark_build.with_leaf_fn(df, cols, kd), kd.n_leaves
    agg = spark_build.leaf_aggregates(spark_build.valued(df_leaf, "v"), "v", cols)
    leaves = spark_build.leaves_from_aggregates(agg, cols, n_leaves)
    return build_tree(leaves, fanout=2) if kd is None else _tree_from_kd(kd.root, leaves)


@pytest.mark.parametrize("kind", ["1d", "kd"])
def test_null_predicate_insert_equals_build(spark, kind):
    """Rows with a NULL predicate value, inserted one by one, leave the
    extents a Spark build over the rows with them has (its MIN and MAX skip
    NULLs); their other coordinates, outside the data, widen theirs. The
    SUM and COUNT of every node agree too."""
    g = np.random.default_rng(11)
    base = [(float(a), float(b), float(w)) for a, b, w in
            zip(g.integers(0, 50, 300), g.integers(0, 50, 300), g.lognormal(0, 1, 300))]
    if kind == "1d":
        cols, kd, b = ["p"], None, np.array([10.0, 20.0, 30.0, 40.0])
        base = [(p, w) for p, _, w in base]
        extra = [(None, 2.5), (None, 0.5)]
        router = Router1D(b)
    else:
        cols, b = ["p", "q"], None
        kd = KDTree(np.array([r[:2] for r in base]), np.array([r[2] for r in base]), 16, policy="us")
        extra = [(None, 70.0, 2.5), (-9.0, None, 1.5), (None, None, 0.5)]
        router = kd.router()
    want = spark_tree(spark, base + extra, cols, kd, b).nodes
    syn = PassSynopsis(spark_tree(spark, base, cols, kd, b), {}, cols, "v", len(base), assign=router)
    for r in extra:
        syn.insert({**dict(zip(cols, r)), "v": r[-1]})
    got = syn.tree.nodes
    for a in ("pmin", "pmax", "count", "min", "max"):
        np.testing.assert_array_equal(getattr(got, a), getattr(want, a), err_msg=a)
    np.testing.assert_allclose(got.sum, want.sum, rtol=1e-12)


def test_insert_without_rng_is_seeded_by_the_build():
    """Two synopses built with the same seed, fed the same stream without an
    ``rng``, end up equal; every leaf's sample is the whole leaf, so most
    inserts replace a sampled row."""
    rng = np.random.default_rng(9)
    c, v = rng.uniform(0, 100, 300), rng.lognormal(0, 1, 300)
    a, b = (synopsis_1d(c, v, np.arange(10.0, 100.0, 10.0), 50, seed=3) for _ in range(2))
    rows = [
        {"c": float(ci), "a": float(vi)}
        for ci, vi in zip(rng.uniform(0, 100, 200), rng.lognormal(0, 1, 200))
    ]
    first = dict(a.samples)
    for row in rows:
        a.insert(row)
        b.insert(row)
    assert_same_synopsis(a, b)
    assert any(a.samples[lid] is not first[lid] for lid in first)


def test_in_box_insert_writes_no_extremes():
    """An insert inside its leaf's value range and predicate box writes no
    MIN/MAX and no extents on the path; one outside the box writes them."""
    rng = np.random.default_rng(10)
    c = rng.uniform(0, 100, 500)
    syn = synopsis_1d(c, rng.uniform(1, 5, c.size), np.arange(10.0, 100.0, 10.0), 20)
    nodes = syn.tree.nodes
    leaf = syn.leaves[5]
    inside = {
        "c": float(leaf.pred_min[0] + leaf.pred_max[0]) / 2,
        "a": (leaf.stats.min + leaf.stats.max) / 2,
    }
    for a in (nodes.min, nodes.max, nodes.pmin, nodes.pmax):
        a.flags.writeable = False
    assert syn.insert(inside, rng) == 5
    with pytest.raises(ValueError):
        syn.insert({**inside, "c": 150.0}, rng)


def assert_same_synopsis(a: PassSynopsis, b: PassSynopsis) -> None:
    """Every node array, sampled row and the row count are equal, NaN to
    NaN."""
    for f in ("sum", "count", "min", "max", "pmin", "pmax"):
        assert np.array_equal(getattr(a.tree.nodes, f), getattr(b.tree.nodes, f), equal_nan=True), f
    assert a.samples.keys() == b.samples.keys()
    for lid, (x, v) in a.samples.items():
        assert np.array_equal(x, b.samples[lid][0], equal_nan=True)
        assert np.array_equal(v, b.samples[lid][1])
    assert a.n_total == b.n_total


def edges(values) -> list:
    """Each of ``values`` and its ``nextafter`` neighbours, ±inf, NaN and
    None (a NULL)."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's next is inf
        near = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return [*near.tolist(), -np.inf, np.inf, math.nan, None]


def floats(point) -> list[float]:
    """A row's predicate values as ``insert`` reads them: NULL is NaN."""
    return [math.nan if p is None else float(p) for p in point]


@settings(max_examples=150, deadline=None)
@given(
    bounds=st.lists(
        st.sampled_from([-2.0, 0.0, 1.5, 3.0, 1e300]) | st.floats(allow_nan=False), max_size=10
    )
)
def test_router_1d_leaf_equals_batch(bounds):
    """``Router1D.leaf`` routes one row where the batch call routes it: on
    and next to every boundary, with duplicate and infinite boundaries, at
    ±inf, NaN and NULL."""
    router = Router1D(np.sort(bounds))
    for p in edges(bounds) + [0.0, -0.0]:
        assert router.leaf(floats([p])) == router(np.array([[p]]))[0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n_rows=st.integers(1, 150),
       k_leaves=st.integers(1, 40))
def test_router_kd_leaf_equals_batch(seed, d, n_rows, k_leaves):
    """``KDRouter.leaf`` routes one row where the batch descent routes it,
    and the router a synopsis keeps routes as the grown tree does: each
    split value of each dimension and its neighbours, ±inf, NaN and NULL,
    with the other coordinates drawn from the same values."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 6, size=(n_rows, d)).astype(float)
    kd = KDTree(x, rng.lognormal(0, 1, n_rows), k_leaves, seed=seed)
    router = kd.router()
    cand = [edges(kd.split[kd.leaf_of < 0, j]) for j in range(d)]
    for j in range(d):
        for p in cand[j]:
            point = [p if i == j else cand[i][rng.integers(len(cand[i]))] for i in range(d)]
            batch = np.array([point], dtype=np.float64)
            assert router.leaf(floats(point)) == router(batch)[0] == kd(batch)[0]


def test_kd_router_keeps_no_optimisation_sample(nyc_kd_synopsis):
    """A k-d synopsis routes its inserts with the decision tree alone: the
    router of a 128-leaf tree over 3 columns, grown on a 4,096-row
    optimisation sample, pickles to under 32 KB and routes every row as the
    tree does, before and after a pickle round trip."""
    pdf = nyc_taxi_pdf(n=4096, seed=12)
    x = pdf[NYC_PREDICATES[:3]].to_numpy(np.float64)
    kd = KDTree(x, pdf["trip_distance"].to_numpy(np.float64), 128)
    assert kd.n_leaves > 100
    blob = pickle.dumps(kd.router())
    assert len(blob) < 32_000
    router = pickle.loads(blob)
    np.testing.assert_array_equal(router(x), kd(x))
    assert [router.leaf(p) for p in x[:500].tolist()] == kd(x[:500]).tolist()
    assert type(nyc_kd_synopsis.assign) is KDRouter


#: A predicate value of an inserted row: on the grid (often inside its leaf's
#: box), beyond it, NaN or NULL.
PRED = st.one_of(
    st.integers(0, 11).map(float), st.floats(-30, 40), st.just(math.nan), st.none()
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["1d2", "1d4", "kd"]),
    d=st.integers(1, 3),
    n_rows=st.integers(1, 100),
    n_leaves=st.integers(2, 24),
    stream=st.lists(
        st.tuples(
            st.lists(PRED, min_size=3, max_size=3),
            st.sampled_from([2.0, 3.0, 6.0]) | st.floats(-50, 50),
        ),
        min_size=1, max_size=40,
    ),
)
def test_insert_equals_vectorised_insert(seed, kind, d, n_rows, n_leaves, stream):
    """A stream of inserts leaves the same node arrays, samples and row
    count as the vectorised insert of
    :func:`tests.reference.insert_vectorised`: rows inside and outside their
    leaf's value range and box, with NaN and NULL predicate values."""
    a = random_synopsis(seed, kind, d, n_rows, n_leaves)
    b = copy.deepcopy(a)
    ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
    for point, value in stream:
        row = {**dict(zip(a.pred_cols, point)), "a": value}
        assert insert_vectorised(a, row, ra) == b.insert(row, rb)
    assert_same_synopsis(a, b)


def test_insert_without_assigner_raises(syn):
    syn.assign = None
    with pytest.raises(RuntimeError):
        syn.insert({"time": 0.0, "light": 1.0})


def test_insert_kd(nyc_df, nyc_pdf):
    syn = PassSynopsis.build_kd(
        nyc_df, NYC_PREDICATES[:2], "trip_distance", k_leaves=16,
        sample_total=200, m_opt=400, seed=2,
    )
    before = syn.root.stats.sum
    row = {c: float(nyc_pdf[c].iloc[0]) for c in NYC_PREDICATES[:2]}
    row["trip_distance"] = 9.5
    syn.insert(row)
    assert syn.root.stats.sum == pytest.approx(before + 9.5)


# -- group-by ------------------------------------------------------------


def test_groupby_equality_rewrite(nyc_df, nyc_pdf):
    syn = PassSynopsis.build_1d(
        nyc_df, "pickup_date", "trip_distance", k_partitions=8,
        sample_total=600, m_opt=500, seed=3,
    )
    groups = [1, 2, 3, 4, 5]
    res = syn.answer_groupby("sum", "pickup_date", groups)
    assert set(res) == set(groups)
    # A date that shares a leaf with other dates is estimated from the
    # 9-30 sampled rows of that leaf that match it, so what the synopsis
    # promises is its 99% CI (ci_half = LAMBDA_99·σ̂), not a fixed relative
    # error. Hold all groups at once: Bonferroni over the five statements.
    z = NormalDist().inv_cdf(1 - 0.01 / (2 * len(groups)))
    for g in groups:
        truth = nyc_pdf.loc[nyc_pdf.pickup_date == g, "trip_distance"].sum()
        # The rewrite itself: a group is the equality query on its value.
        assert res[g] == syn.answer(Query("sum", ("pickup_date",), (g,), (g,)))
        assert res[g].lb <= truth <= res[g].ub
        assert abs(res[g].est - truth) <= z / LAMBDA_99 * res[g].ci_half


def test_groupby_with_base_predicate(nyc_df, nyc_pdf):
    syn = PassSynopsis.build_1d(
        nyc_df, "pickup_date", "trip_distance", k_partitions=8,
        sample_total=2400, m_opt=500,
        sample_cols=["pickup_date", "pickup_time"], seed=4,
    )
    base = Query("sum", ("pickup_time",), (0.0,), (43200.0,))
    res = syn.answer_groupby("sum", "pickup_date", [10, 11], base=base)
    for g in (10, 11):
        m = (nyc_pdf.pickup_date == g) & (nyc_pdf.pickup_time <= 43200)
        truth = nyc_pdf.loc[m, "trip_distance"].sum()
        # Filtering on a non-indexed column demotes all coverage to
        # sample estimation, so allow generous sampling error.
        assert res[g].est == pytest.approx(truth, rel=0.6)


def test_groupby_base_on_group_column():
    """A base predicate on the group column intersects with the group's
    equality predicate: the group is answered over that one value, not over
    the base range."""
    c = np.repeat(np.arange(10.0), 100)
    syn = synopsis_1d(c, np.ones(c.size), np.arange(0.5, 9.0), 10)
    base = Query("count", ("c",), (0.0,), (5.0,))
    res = syn.answer_groupby("count", "c", [2.0], base=base)[2.0]
    assert (res.est, res.lb, res.ub) == (100.0, 100.0, 100.0)
