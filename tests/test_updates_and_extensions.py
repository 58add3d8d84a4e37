"""§4.5 dynamic updates (reservoir inserts) and the group-by extension."""
import numpy as np
import pytest

from repro.core.query import Query
from repro.core.synopsis import PassSynopsis
from repro.synth_data import NYC_PREDICATES


@pytest.fixture()
def syn(intel_df):
    """Fresh (non-shared) synopsis per test — inserts mutate it."""
    return PassSynopsis.build_1d(
        intel_df, "time", "light", k_partitions=8, sample_total=200, m_opt=300, seed=1
    )


# -- dynamic inserts -----------------------------------------------------


def test_insert_updates_path_statistics(syn):
    before_sum = syn.root.stats.sum
    before_cnt = syn.root.stats.count
    lid = syn.insert({"time": 100.0, "light": 42.0}, rng=np.random.default_rng(0))
    assert syn.root.stats.count == before_cnt + 1
    assert syn.root.stats.sum == pytest.approx(before_sum + 42.0)
    leaf = syn.leaves[lid]
    assert leaf.stats.count >= 1
    # Every ancestor on the path saw the update.
    for node in syn._paths()[lid]:
        assert node.stats.max >= 42.0 or node.stats.count > 0


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
    for g in groups:
        truth = nyc_pdf.loc[nyc_pdf.pickup_date == g, "trip_distance"].sum()
        assert res[g].est == pytest.approx(truth, rel=0.35)


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
