"""Estimator algebra: φ-transforms, variances, hard bounds, prefix 𝒱."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import NodeStats
from repro.core.variance import cal_v, hard_bounds, stratum_estimate
from tests.reference import (
    PrefixStats,
    max_var_query_sum,
    max_var_query_sum_exact,
    numpy_stratum_estimate,
    stratum_estimate_one,
)

rng = np.random.default_rng(42)


# -- stratum_estimate ----------------------------------------------------


def one(agg, v, m, n):
    """``stratum_estimate`` over one stratum, as scalars; k_pred is None for
    SUM and COUNT."""
    est, var, k = stratum_estimate(agg, v, m, [len(v)], [n])
    return float(est[0]), float(var[0]), None if k is None else int(k[0])


def test_full_sample_sum_is_exact():
    v = rng.random(100) * 7
    m = v > 3
    est, var, k = one("sum", v, m, 100)
    assert est == pytest.approx(v[m].sum())
    assert var == 0.0  # FPC kills the variance when K == N


def test_full_sample_count_is_exact():
    v = rng.random(80)
    m = v > 0.5
    est, var, _ = one("count", v, m, 80)
    assert est == pytest.approx(m.sum())
    assert var == 0.0


def test_full_sample_avg_is_exact():
    v = rng.random(60)
    m = v > 0.2
    est, var, k = one("avg", v, m, 60)
    assert est == pytest.approx(v[m].mean())
    assert k == m.sum()


def test_empty_sample():
    assert one("sum", np.empty(0), np.empty(0, bool), 50) == (0.0, 0.0, None)
    assert one("avg", np.empty(0), np.empty(0, bool), 50) == (0.0, 0.0, 0)


def test_avg_no_match_is_nan():
    v = rng.random(10)
    est, var, k = one("avg", v, np.zeros(10, bool), 100)
    assert np.isnan(est) and np.isnan(var) and k == 0


def test_unsupported_agg():
    with pytest.raises(ValueError):
        one("min", np.ones(3), np.ones(3, bool), 10)


def test_sum_estimator_unbiased():
    """Mean of the estimator over many resamples approaches the truth."""
    pop = rng.lognormal(0, 1, 2000)
    truth = pop[pop > 1].sum()
    ests = []
    for s in range(300):
        g = np.random.default_rng(s)
        idx = g.choice(2000, 100, replace=False)
        v = pop[idx]
        est, _, _ = one("sum", v, v > 1, 2000)
        ests.append(est)
    assert np.mean(ests) == pytest.approx(truth, rel=0.05)


def test_count_ci_covers_truth_mostly():
    pop = rng.random(2000)
    truth = (pop > 0.7).sum()
    hits = 0
    for s in range(200):
        g = np.random.default_rng(1000 + s)
        v = pop[g.choice(2000, 200, replace=False)]
        est, var, _ = one("count", v, v > 0.7, 2000)
        half = 1.96 * np.sqrt(var)
        hits += est - half <= truth <= est + half
    assert hits / 200 > 0.85  # nominal 95%, allow slack


def test_variance_shrinks_with_sample_size():
    pop = rng.normal(50, 10, 5000)
    _, var_small, _ = one("sum", pop[:50], pop[:50] > 45, 5000)
    _, var_big, _ = one("sum", pop[:1000], pop[:1000] > 45, 5000)
    assert var_big < var_small


def stratified(draw, sizes):
    """Values and predicate matches of the sampled rows of every stratum,
    stratum after stratum."""
    rng = np.random.default_rng(draw)
    v = rng.normal(3, 2, int(sum(sizes)))
    m = rng.random(v.size) < rng.random()
    return v, m


@settings(max_examples=200, deadline=None)
@given(
    draw=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 6), max_size=8),
    extra=st.lists(st.integers(0, 50), min_size=8, max_size=8),
    agg=st.sampled_from(["sum", "count", "avg"]),
)
def test_segments_match_one_stratum_at_a_time(draw, sizes, extra, agg):
    """One call over S strata equals S single-stratum estimates with
    ``np.var(ddof=1)``, and bit for bit the estimate with ``where=`` divides
    — including no strata, empty (K=0) and single-row (K=1) strata, strata
    with no matching row, and 100% samples (N=K), where the
    finite-population correction makes the variance 0."""
    v, m = stratified(draw, sizes)
    n = [k + e if e % 3 else k for k, e in zip(sizes, extra)]  # every third stratum is complete
    est, var, k_pred = stratum_estimate(agg, v, m, sizes, n)
    assert est.shape == var.shape == (len(sizes),)
    assert (k_pred.shape == (len(sizes),)) if agg == "avg" else (k_pred is None)
    # The same numbers as the estimate with where= divides, bit for bit.
    ref = numpy_stratum_estimate(agg, v, m, sizes, n)
    np.testing.assert_array_equal(est, ref[0])
    np.testing.assert_array_equal(var, ref[1])
    start = 0
    for i, k in enumerate(sizes):
        e1, v1, p1 = stratum_estimate_one(agg, v[start : start + k], m[start : start + k], n[i])
        start += k
        assert agg != "avg" or k_pred[i] == p1
        np.testing.assert_allclose([est[i], var[i]], [e1, v1], rtol=1e-12, atol=1e-12)
        if n[i] == k:
            assert var[i] == 0.0 or np.isnan(var[i])


# -- hard bounds ------------------------------------------------------------


def make_stats(*groups):
    """Node arrays with one node per group of values (1-D extents unused)."""
    nodes = NodeStats.empty(len(groups), 1)
    for i, vals in enumerate(groups):
        v = np.asarray(vals, float)
        nodes.sum[i], nodes.count[i], nodes.min[i], nodes.max[i] = v.sum(), v.size, v.min(), v.max()
    return nodes


def bounds(agg, cov, par):
    """``hard_bounds`` with covered groups ``cov`` and partial groups ``par``."""
    nodes = make_stats(*cov, *par)
    return hard_bounds(agg, nodes, np.arange(len(cov)), np.arange(len(cov), len(cov) + len(par)))


@pytest.mark.parametrize("agg", ["sum", "count"])
def test_hard_bounds_monotone_aggs(agg):
    lb, ub = bounds(agg, [[1, 2], [3]], [[5, 5]])
    if agg == "sum":
        assert (lb, ub) == (6, 16)
    else:
        assert (lb, ub) == (3, 5)


def test_hard_bounds_avg():
    lb, ub = bounds("avg", [[10, 20]], [[0, 100]])
    assert lb == 0 and ub == 100


def test_hard_bounds_avg_no_partial():
    lb, ub = bounds("avg", [[10, 20]], [])
    assert lb == ub == pytest.approx(15)


def test_hard_bounds_min_max():
    lb, ub = bounds("min", [[5, 9]], [[1, 20]])
    assert lb == 1 and ub == 5
    lb, ub = bounds("max", [[5, 9]], [[1, 20]])
    assert lb == 9 and ub == 20


def test_hard_bounds_min_only_partial():
    lb, ub = bounds("min", [], [[1, 20], [3, 7]])
    assert lb == 1 and ub == 20


def test_hard_bounds_sum_signed_partial():
    """A partial node with SUM −3 over three values in [−5, 1]: its subsets
    sum anywhere from −5 ({−5}) to 2 ({1, 1}), so the bounds must hold both."""
    nodes = NodeStats.empty(1, 1)
    nodes.sum[0], nodes.count[0], nodes.min[0], nodes.max[0] = -3.0, 3.0, -5.0, 1.0
    lb, ub = hard_bounds("sum", nodes, np.arange(0), np.arange(1))
    assert (lb, ub) == (-15.0, 3.0)
    assert lb <= -5 and 2 <= ub


@settings(max_examples=100, deadline=None)
@given(
    cov=st.lists(st.lists(st.floats(-100, 100), min_size=1, max_size=5), max_size=3),
    par=st.lists(st.lists(st.floats(-100, 100), min_size=1, max_size=5), max_size=3),
    pick=st.lists(st.booleans(), min_size=15, max_size=15),
)
def test_hard_bounds_always_contain_every_realisation_sum(cov, par, pick):
    """For any subset of partial tuples actually matching, the true SUM
    lies inside [lb, ub], for values of either sign; on non-negative values
    the bounds are exactly [covered SUM, covered SUM + partial SUM]."""
    lb, ub = bounds("sum", cov, par)
    base = sum(sum(v) for v in cov)
    tuples = [t for v in par for t in v]
    chosen = sum(t for t, p in zip(tuples, pick) if p)
    tol = 1e-9 * (1 + sum(abs(t) for v in cov + par for t in v))
    for got in (base, base + sum(tuples), base + chosen,
                base + sum(t for t in tuples if t < 0), base + sum(t for t in tuples if t > 0)):
        assert lb - tol <= got <= ub + tol
    if all(t >= 0 for t in tuples):
        assert lb == pytest.approx(base, abs=tol) and ub == pytest.approx(base + sum(tuples), abs=tol)


# -- prefix stats & max-variance discretisation -------------------------


def test_prefix_stats_ranges():
    a = rng.random(50)
    ps = PrefixStats(a)
    assert ps.seg_sum(10, 30) == pytest.approx(a[10:31].sum())
    assert ps.seg_ssq(0, 49) == pytest.approx((a * a).sum())


def test_cal_v_matches_definition():
    a = rng.random(20)
    n_i = 20
    v = cal_v(n_i, float((a[3:9] ** 2).sum()), float(a[3:9].sum()))
    assert v == pytest.approx(n_i * (a[3:9] ** 2).sum() - a[3:9].sum() ** 2)


def test_cal_v_nonnegative_for_full_partition():
    """𝒱 over the whole partition equals n²·var(population) ≥ 0."""
    a = rng.normal(0, 1, 40)
    ps = PrefixStats(a)
    v = cal_v(40, ps.seg_ssq(0, 39), ps.seg_sum(0, 39))
    assert v == pytest.approx(40 * 40 * np.var(a))
    assert v >= 0


def test_median_split_is_4_approximation():
    """Lemma A.3: the median-split value is >= max/4 (checked empirically
    over many random inputs)."""
    for s in range(30):
        g = np.random.default_rng(s)
        a = g.lognormal(0, 1, 30)
        ps = PrefixStats(a)
        apx = max_var_query_sum(ps, 0, 29)
        exact = max_var_query_sum_exact(ps, 0, 29)
        assert apx <= exact + 1e-9
        assert apx >= exact / 4 - 1e-9


def test_monotonicity_of_max_variance():
    """§4.3: growing a partition can only increase its max query variance."""
    a = rng.lognormal(0, 1, 40)
    ps = PrefixStats(a)
    inner = max_var_query_sum_exact(ps, 10, 25)
    outer = max_var_query_sum_exact(ps, 5, 35)
    assert inner <= outer + 1e-9
