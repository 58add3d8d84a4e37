"""§4.5 dynamic updates (reservoir inserts) and the group-by extension."""
from statistics import NormalDist

import numpy as np
import pytest

from repro.core.query import Query
from repro.core.synopsis import PassSynopsis
from repro.core.tree import build_tree
from repro.core.variance import LAMBDA_99
from repro.synth_data import NYC_PREDICATES
from tests.reference import leaf_stats, synopsis_1d


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
