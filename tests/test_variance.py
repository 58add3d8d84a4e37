"""Estimator algebra: φ-transforms, variances, hard bounds, prefix 𝒱."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.variance import (
    PartStats,
    PrefixStats,
    cal_v,
    hard_bounds,
    max_var_query_avg_exact,
    max_var_query_sum,
    max_var_query_sum_exact,
    stratum_estimate,
)

rng = np.random.default_rng(42)


# -- stratum_estimate ----------------------------------------------------


def test_full_sample_sum_is_exact():
    v = rng.random(100) * 7
    m = v > 3
    est, var, k = stratum_estimate("sum", v, m, 100)
    assert est == pytest.approx(v[m].sum())
    assert var == 0.0  # FPC kills the variance when K == N


def test_full_sample_count_is_exact():
    v = rng.random(80)
    m = v > 0.5
    est, var, _ = stratum_estimate("count", v, m, 80)
    assert est == pytest.approx(m.sum())
    assert var == 0.0


def test_full_sample_avg_is_exact():
    v = rng.random(60)
    m = v > 0.2
    est, var, k = stratum_estimate("avg", v, m, 60)
    assert est == pytest.approx(v[m].mean())
    assert k == m.sum()


def test_empty_sample():
    est, var, k = stratum_estimate("sum", np.empty(0), np.empty(0, bool), 50)
    assert (est, var, k) == (0.0, 0.0, 0)


def test_avg_no_match_is_nan():
    v = rng.random(10)
    est, var, k = stratum_estimate("avg", v, np.zeros(10, bool), 100)
    assert np.isnan(est) and np.isnan(var) and k == 0


def test_unsupported_agg():
    with pytest.raises(ValueError):
        stratum_estimate("min", np.ones(3), np.ones(3, bool), 10)


def test_sum_estimator_unbiased():
    """Mean of the estimator over many resamples approaches the truth."""
    pop = rng.lognormal(0, 1, 2000)
    truth = pop[pop > 1].sum()
    ests = []
    for s in range(300):
        g = np.random.default_rng(s)
        idx = g.choice(2000, 100, replace=False)
        v = pop[idx]
        est, _, _ = stratum_estimate("sum", v, v > 1, 2000)
        ests.append(est)
    assert np.mean(ests) == pytest.approx(truth, rel=0.05)


def test_count_ci_covers_truth_mostly():
    pop = rng.random(2000)
    truth = (pop > 0.7).sum()
    hits = 0
    for s in range(200):
        g = np.random.default_rng(1000 + s)
        v = pop[g.choice(2000, 200, replace=False)]
        est, var, _ = stratum_estimate("count", v, v > 0.7, 2000)
        half = 1.96 * np.sqrt(var)
        hits += est - half <= truth <= est + half
    assert hits / 200 > 0.85  # nominal 95%, allow slack


def test_variance_shrinks_with_sample_size():
    pop = rng.normal(50, 10, 5000)
    _, var_small, _ = stratum_estimate("sum", pop[:50], pop[:50] > 45, 5000)
    _, var_big, _ = stratum_estimate("sum", pop[:1000], pop[:1000] > 45, 5000)
    assert var_big < var_small


# -- PartStats / hard bounds --------------------------------------------


def make_stats(vals):
    v = np.asarray(vals, float)
    return PartStats(v.sum(), v.size, v.min(), v.max())


def test_partstats_merge():
    a, b = make_stats([1, 2, 3]), make_stats([10, -1])
    m = a.merge(b)
    assert (m.sum, m.count, m.min, m.max) == (15, 5, -1, 10)
    assert m.avg == pytest.approx(3.0)


@pytest.mark.parametrize("agg", ["sum", "count"])
def test_hard_bounds_monotone_aggs(agg):
    cov = [make_stats([1, 2]), make_stats([3])]
    par = [make_stats([5, 5])]
    lb, ub = hard_bounds(agg, cov, par)
    if agg == "sum":
        assert (lb, ub) == (6, 16)
    else:
        assert (lb, ub) == (3, 5)


def test_hard_bounds_avg():
    cov = [make_stats([10, 20])]
    par = [make_stats([0, 100])]
    lb, ub = hard_bounds("avg", cov, par)
    assert lb == 0 and ub == 100


def test_hard_bounds_avg_no_partial():
    cov = [make_stats([10, 20])]
    lb, ub = hard_bounds("avg", cov, [])
    assert lb == ub == pytest.approx(15)


def test_hard_bounds_min_max():
    cov = [make_stats([5, 9])]
    par = [make_stats([1, 20])]
    lb, ub = hard_bounds("min", cov, par)
    assert lb == 1 and ub == 5
    lb, ub = hard_bounds("max", cov, par)
    assert lb == 9 and ub == 20


def test_hard_bounds_min_only_partial():
    par = [make_stats([1, 20]), make_stats([3, 7])]
    lb, ub = hard_bounds("min", [], par)
    assert lb == 1 and ub == 20


@settings(max_examples=50, deadline=None)
@given(
    cov=st.lists(st.lists(st.floats(0, 100), min_size=1, max_size=5), max_size=3),
    par=st.lists(st.lists(st.floats(0, 100), min_size=1, max_size=5), max_size=3),
)
def test_hard_bounds_always_contain_every_realisation_sum(cov, par):
    """For any subset of partial tuples actually matching, the true SUM
    lies inside [lb, ub]."""
    cov_s = [make_stats(v) for v in cov]
    par_s = [make_stats(v) for v in par]
    lb, ub = hard_bounds("sum", cov_s, par_s)
    base = sum(sum(v) for v in cov)
    # extremes: no partial tuples match / all match
    assert lb - 1e-9 <= base <= ub + 1e-9
    assert lb - 1e-9 <= base + sum(sum(v) for v in par) <= ub + 1e-9


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


def test_avg_exact_max_variance_respects_min_len():
    a = np.array([0, 0, 100.0, 0, 0])
    ps = PrefixStats(a)
    v1 = max_var_query_avg_exact(ps, 0, 4, min_len=1)
    v2 = max_var_query_avg_exact(ps, 0, 4, min_len=3)
    assert v1 >= v2
