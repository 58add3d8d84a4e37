"""The benchmark's per-layer tracer (``perfbench/tracer.py``) wraps names of
``repro.core`` where the synopsis looks them up. Installing it fails if one of
those names is gone, and uninstalling must put every original back. Its
per-query spans and counts must also keep meaning one MCF pass and one
batched estimate per query, and a traced build must still pass through every
build layer the benchmark reports on its own."""
import os
import sys
import types

import numpy as np
import pytest

from repro import synth_data
from repro.core import synopsis, tree
from repro.core.query import Query
from repro.core.synopsis import PassSynopsis
from tests.reference import synopsis_1d

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import tracer  # noqa: E402


def test_tracer_installs_and_restores():
    owners = (synopsis, synopsis.PassSynopsis, tree.Node)
    before = [dict(vars(o)) for o in owners]
    t = tracer.Tracer(None, types.SimpleNamespace(count=lambda: 0))
    with t.installed():
        assert synopsis.mcf is not before[0]["mcf"]
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys()
        for name, obj in saved.items():
            assert after[name] is obj, f"{owner.__name__}.{name} not restored"


@pytest.mark.parametrize("agg", ["sum", "count", "avg", "min", "max"])
def test_one_answer_traces_one_mcf_and_one_estimate(agg):
    """A query is one MCF pass and at most one batched stratum estimate, and
    the traced node counts are the sizes of what MCF returned."""
    rng = np.random.default_rng(3)
    c = rng.integers(0, 1000, 4000).astype(float)
    syn = synopsis_1d(c, rng.lognormal(0, 1, c.size), np.arange(50.0, 1000.0, 50.0), 20)
    q = Query(agg, ("c",), (120.0,), (730.0,))
    t = tracer.Tracer(None, types.SimpleNamespace(count=lambda: 0))
    with t.installed():
        t.new_op("query")
        syn.answer(q)
    names = [name for _, name, *_ in t.spans]
    assert names.count("tree.mcf") == 1
    assert names.count("variance.stratum_estimate") <= 1
    lo, hi, _ = q.box(syn.pred_cols)
    covered, partial = tree.mcf(syn.tree, lo, hi, zero_var_as_covered=agg == "avg")
    assert partial.size > 0
    assert t.counts[(0, "tree.covered_nodes")] == len(covered)
    assert t.counts[(0, "tree.partial_leaves")] == len(partial)


@pytest.fixture(scope="module")
def small_nyc_df(spark, nyc_pdf):
    df = spark.createDataFrame(nyc_pdf.head(3000)).cache()
    df.count()
    return df


@pytest.mark.parametrize("kind", ["1d", "kd"])
def test_traced_build_spans_every_layer(spark, small_nyc_df, kind):
    """One traced build makes one span for each Spark phase and for the
    optimiser, and every per-layer build metric reads above 0."""
    t = tracer.Tracer(spark.sparkContext, small_nyc_df)
    with t.installed():
        t.new_op("build")
        if kind == "1d":
            PassSynopsis.build_1d(
                small_nyc_df, "pickup_ts", "trip_distance", k_partitions=8, sample_total=300,
                m_opt=256, seed=0,
            )
        else:
            PassSynopsis.build_kd(
                small_nyc_df, synth_data.NYC_PREDICATES[:3], "trip_distance", k_leaves=16,
                sample_total=300, m_opt=512, seed=0,
            )
    names = [name for _, name, *_ in t.spans]
    for phase in tracer.SPARK_PHASES:
        assert names.count(f"spark_build.{phase}") == 1, phase
    optimiser = "partitioner.adp" if kind == "1d" else "kdtree.grow"
    # ADP makes two spans: the DP in the constructor, then ``cuts``.
    assert names.count(optimiser) == (2 if kind == "1d" else 1)
    metrics = t.layer_metrics()
    for phase in tracer.SPARK_PHASES:
        assert metrics[f"spark_build.{phase}_s"] > 0, phase
        assert metrics[f"spark_build.{phase}.jobs"] >= 1, phase
    assert metrics[optimiser + "_s"] > 0
