"""Query objects: masks, ground truth, SQL text (checked against DuckDB)."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.query import AGGS, Query


@pytest.fixture()
def pdf():
    rng = np.random.default_rng(1)
    return pd.DataFrame({"c": rng.integers(0, 100, 500), "d": rng.integers(0, 50, 500), "a": rng.random(500) * 10})


def test_invalid_agg_rejected():
    with pytest.raises(ValueError):
        Query("median", ("c",), (0,), (1,))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Query("sum", ("c", "d"), (0,), (1, 2))


def test_mask_inclusive_endpoints(pdf):
    q = Query("count", ("c",), (10,), (20,))
    m = q.mask(pdf)
    v = pdf["c"].to_numpy()
    assert np.array_equal(m, (v >= 10) & (v <= 20))


def test_multidim_mask_is_conjunction(pdf):
    q = Query("count", ("c", "d"), (10, 5), (60, 25))
    m1 = Query("count", ("c",), (10,), (60,)).mask(pdf)
    m2 = Query("count", ("d",), (5,), (25,)).mask(pdf)
    assert np.array_equal(q.mask(pdf), m1 & m2)


@pytest.mark.parametrize("agg", AGGS)
def test_truth_matches_duckdb(pdf, agg):
    q = Query(agg, ("c", "d"), (10, 5), (80, 40))
    got = q.truth(pdf, "a")
    exp = duckdb.sql(q.sql("pdf", "a").replace("FROM pdf", "FROM pdf")).fetchone()[0]
    assert got == pytest.approx(float(exp), rel=1e-9)


def test_truth_empty_selection(pdf):
    q = Query("sum", ("c",), (1000,), (2000,))
    assert np.isnan(q.truth(pdf, "a"))
    assert Query("count", ("c",), (1000,), (2000,)).truth(pdf, "a") == 0.0


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_truth_full_range(pdf, agg):
    q = Query(agg, ("c",), (-1e18,), (1e18,))
    a = pdf["a"].to_numpy()
    exp = {"sum": a.sum(), "count": len(a), "avg": a.mean()}[agg]
    assert q.truth(pdf, "a") == pytest.approx(exp)


def test_box_intersects_a_column_named_twice(pdf):
    """The rectangle keeps the intersection of a column's ranges, as the
    mask and the SQL text do; other columns are unbounded."""
    q = Query("count", ("c", "c"), (10, 0), (60, 40))
    lo, hi, external = q.box(["c", "d"])
    assert lo.tolist() == [10.0, -np.inf] and hi.tolist() == [40.0, np.inf] and not external
    assert np.array_equal(q.mask(pdf), Query("count", ("c",), (10,), (40,)).mask(pdf))
