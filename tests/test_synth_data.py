"""Generators: schemas, determinism, and the distributional properties the
paper's experiments rely on."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data


@pytest.mark.parametrize(
    "fn,kw,cols",
    [
        (synth_data.intel_wireless_pdf, {"n": 2000}, ["time", "light"]),
        (synth_data.instacart_pdf, {"n": 2000, "n_products": 200}, ["product_id", "reordered"]),
        (
            synth_data.nyc_taxi_pdf,
            {"n": 2000},
            synth_data.NYC_PREDICATES + ["pickup_ts", "trip_distance"],
        ),
        (synth_data.adversarial_pdf, {"n": 2000}, ["c", "a"]),
    ],
)
def test_pdf_schema_and_size(fn, kw, cols):
    pdf = fn(**kw)
    assert list(pdf.columns) == cols
    assert len(pdf) == kw["n"]
    assert not pdf.isna().any().any()


@pytest.mark.parametrize(
    "fn,kw",
    [
        (synth_data.intel_wireless_pdf, {"n": 1000}),
        (synth_data.instacart_pdf, {"n": 1000}),
        (synth_data.nyc_taxi_pdf, {"n": 1000}),
        (synth_data.adversarial_pdf, {"n": 1000}),
    ],
)
def test_pdf_deterministic_in_seed(fn, kw):
    pd.testing.assert_frame_equal(fn(**kw, seed=3), fn(**kw, seed=3))
    assert not fn(**kw, seed=3).equals(fn(**kw, seed=4))


def test_intel_values_nonnegative_and_bimodal():
    pdf = synth_data.intel_wireless_pdf(n=5000)
    assert (pdf["light"] >= 0).all()
    # Night readings are near zero, day readings are large.
    assert (pdf["light"] < 50).mean() > 0.2
    assert (pdf["light"] > 200).mean() > 0.2
    assert pdf["time"].is_monotonic_increasing


def test_instacart_binary_aggregate_and_skew():
    pdf = synth_data.instacart_pdf(n=5000, n_products=300)
    assert set(pdf["reordered"].unique()) <= {0, 1}
    counts = pdf["product_id"].value_counts()
    # Zipf head: the most popular product is far more frequent than median.
    assert counts.iloc[0] > 10 * counts.median()


def test_nyc_predicate_ranges():
    pdf = synth_data.nyc_taxi_pdf(n=5000)
    assert pdf["pickup_time"].between(0, 86_399).all()
    assert pdf["pickup_date"].between(1, 31).all()
    assert pdf["pu_location_id"].between(1, 265).all()
    assert (pdf["trip_distance"] > 0).all()


def test_nyc_distance_correlated_with_time():
    pdf = synth_data.nyc_taxi_pdf(n=20000)
    rush = pdf[(pdf.pickup_time > 8 * 3600) & (pdf.pickup_time < 9.5 * 3600)]
    night = pdf[pdf.pickup_time < 4 * 3600]
    assert rush["trip_distance"].mean() < night["trip_distance"].mean()


def test_adversarial_structure():
    pdf = synth_data.adversarial_pdf(n=4000)
    cut = int(4000 * 0.875)
    assert (pdf["a"].iloc[:cut] == 0).all()
    tail = pdf["a"].iloc[cut:]
    assert abs(tail.mean() - 100) < 2
    assert pdf["c"].is_unique
