"""KD-PASS / KD-US tree construction (§4.4, §5.4)."""
import numpy as np
import pytest

from repro.core.kdtree import KDTree, _leaf_max_variance
from repro.synth_data import nyc_taxi_pdf


@pytest.fixture(scope="module")
def xy():
    pdf = nyc_taxi_pdf(n=4000, seed=3)
    return (
        pdf[["pickup_time", "pickup_date"]].to_numpy(float),
        pdf["trip_distance"].to_numpy(float),
    )


@pytest.mark.parametrize("policy", ["pass", "us"])
def test_leaf_ids_dense_and_assignment_total(xy, policy):
    x, a = xy
    kd = KDTree(x, a, 32, policy=policy)
    ids = kd(x)
    assert ids.min() >= 0 and ids.max() < kd.n_leaves
    assert sorted({l.leaf_id for l in kd.leaves}) == list(range(kd.n_leaves))


def test_leaf_count_close_to_target(xy):
    x, a = xy
    kd = KDTree(x, a, 64, policy="pass")
    # fanout 4 in 2D: leaves grow by 3 per expansion, so 64 is hit exactly
    # or missed by at most fanout-1.
    assert 61 <= kd.n_leaves <= 64


def test_sample_partition_is_exact(xy):
    """Every optimisation-sample row is assigned to the leaf that holds it
    during construction."""
    x, a = xy
    kd = KDTree(x, a, 16, policy="pass")
    ids = kd(x)
    for leaf in kd.leaves:
        assert np.all(ids[leaf.idx] == leaf.leaf_id)


def test_balance_limit(xy):
    x, a = xy
    kd = KDTree(x, a, 64, policy="pass", balance_limit=2)
    depths = [leaf.depth for leaf in kd.leaves]
    assert max(depths) - min(depths) <= 2


def test_us_policy_is_breadth_first(xy):
    x, a = xy
    kd = KDTree(x, a, 64, policy="us")
    depths = [leaf.depth for leaf in kd.leaves]
    assert max(depths) - min(depths) <= 1


def test_pass_expands_high_variance_region():
    """A dataset with variance concentrated in one corner: KD-PASS should
    subdivide that corner deeper than the flat region."""
    rng = np.random.default_rng(0)
    x = rng.random((2000, 2))
    a = np.zeros(2000)
    corner = (x[:, 0] > 0.75) & (x[:, 1] > 0.75)
    a[corner] = rng.normal(100, 30, corner.sum())
    kd = KDTree(x, a, 16, policy="pass", balance_limit=10)
    depth_at = {}
    ids = kd(x)
    for leaf in kd.leaves:
        depth_at[leaf.leaf_id] = leaf.depth
    corner_depths = [depth_at[i] for i in np.unique(ids[corner])]
    flat_depths = [depth_at[i] for i in np.unique(ids[~corner])]
    assert max(corner_depths) >= max(flat_depths)
    assert np.mean(corner_depths) > np.mean(flat_depths) - 1e-9


def test_assign_handles_unseen_points(xy):
    x, a = xy
    kd = KDTree(x, a, 16)
    far = np.array([[1e9, 1e9], [-1e9, -1e9]])
    ids = kd(far)
    assert ids.min() >= 0 and ids.max() < kd.n_leaves


def test_degenerate_identical_points():
    x = np.ones((50, 2))
    a = np.ones(50)
    kd = KDTree(x, a, 8)
    assert kd.n_leaves == 1  # unsplittable
    assert np.all(kd(x) == 0)


def test_leaf_max_variance_sum_positive():
    rng = np.random.default_rng(1)
    x = rng.random((100, 2))
    a = rng.lognormal(0, 1, 100)
    assert _leaf_max_variance(a, x) > 0
    assert _leaf_max_variance(a[:1], x[:1]) == 0.0


def test_leaf_max_variance_constant_values():
    x = np.random.default_rng(2).random((64, 2))
    a = np.full(64, 7.0)
    # All-equal values: SUM variance of any half is n·q·c² − (q·c)² > 0;
    # what matters is that it is finite and deterministic.
    v1 = _leaf_max_variance(a, x)
    v2 = _leaf_max_variance(a, x)
    assert v1 == v2 and np.isfinite(v1)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_dimensions(d):
    rng = np.random.default_rng(d)
    x = rng.random((1500, d))
    a = rng.random(1500)
    kd = KDTree(x, a, 40, policy="pass")
    assert kd.n_leaves >= 1 + (1 << d) - 1 or d > 5
    ids = kd(x)
    assert len(np.unique(ids)) <= kd.n_leaves
