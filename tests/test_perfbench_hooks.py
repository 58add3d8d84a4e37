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
    """A query is one MCF pass, one hard-bounds call and at most one batched
    stratum estimate, and the traced node counts are the sizes of what MCF
    returned. The same query of a sample-only synopsis (ST) runs neither MCF
    nor hard bounds."""
    rng = np.random.default_rng(3)
    c = rng.integers(0, 1000, 4000).astype(float)
    syn = synopsis_1d(c, rng.lognormal(0, 1, c.size), np.arange(50.0, 1000.0, 50.0), 20)
    sample_only = PassSynopsis(syn.tree, syn.samples, syn.pred_cols, "a", syn.n_total, use_aggregates=False)
    q = Query(agg, ("c",), (120.0,), (730.0,))
    t = tracer.Tracer(None, types.SimpleNamespace(count=lambda: 0))
    with t.installed():
        for s in (syn, sample_only):
            t.new_op("query")
            s.answer(q)
    names = [[name for op, name, *_ in t.spans if op == i] for i in range(2)]
    assert names[0].count("tree.mcf") == 1
    assert names[0].count("variance.hard_bounds") == 1
    assert names[1].count("tree.mcf") == names[1].count("variance.hard_bounds") == 0
    for n in names:
        assert n.count("variance.stratum_estimate") <= 1
    lo, hi, _ = q.box(syn.pred_cols)
    covered, partial = tree.mcf(syn.tree, lo, hi)
    assert partial.size > 0
    assert t.counts[(0, "tree.covered_nodes")] == len(covered)
    assert t.counts[(0, "tree.partial_leaves")] == len(partial)


def test_traced_insert_stream_reports_inserts_and_replacements(spark):
    """A traced insert stream reports its insert time, and a stream that
    forces reservoir replacements (each leaf's sample is the whole leaf)
    shows them as the benchmark counts them: the leaf's sample is a new
    object. Inserts route one row without ``assign_partitions``, so that
    layer reads 0."""
    rng = np.random.default_rng(4)
    c = rng.uniform(0, 100, 200)
    syn = synopsis_1d(c, rng.lognormal(0, 1, c.size), np.arange(10.0, 100.0, 10.0), 50)
    t = tracer.Tracer(spark.sparkContext, types.SimpleNamespace(count=lambda: 0))
    replaced = []
    with t.installed():
        for ci in rng.uniform(0, 100, 100):
            t.new_op("insert")
            before = dict(syn.samples)
            lid = syn.insert({"c": float(ci), "a": 1.0}, rng)
            replaced.append(syn.samples.get(lid) is not before.get(lid))
    out = t.layer_metrics()
    assert out["synopsis.insert_us"] > 0
    assert np.mean(replaced) > 0
    assert out["partitioner.assign_partitions_us"] == 0


@pytest.fixture(scope="module")
def small_nyc_df(spark, nyc_pdf):
    df = spark.createDataFrame(nyc_pdf.head(3000)).cache()
    df.count()
    return df


@pytest.fixture(scope="module")
def build_tracer(spark, small_nyc_df):
    """One tracer for every traced build here: a job group is named after its
    tracer's operation number, so builds traced by two tracers would share
    groups and each other's job counts."""
    return tracer.Tracer(spark.sparkContext, small_nyc_df)


def traced_build(t, kind):
    """Trace one tiny ``build_1d``/``build_kd``; return the seconds of each
    of its spans by name (one entry per span) and the Spark jobs of each
    phase."""
    op = t.new_op("build")
    with t.installed():
        if kind == "1d":
            PassSynopsis.build_1d(
                t.df, "pickup_ts", "trip_distance", k_partitions=8, sample_total=300,
                m_opt=256, seed=0,
            )
        else:
            PassSynopsis.build_kd(
                t.df, synth_data.NYC_PREDICATES[:3], "trip_distance", k_leaves=16,
                sample_total=300, m_opt=512, seed=0,
            )
    tracker = t.sc.statusTracker()
    jobs = {phase: len(tracker.getJobIdsForGroup(g)) for o, phase, g in t.job_groups if o == op}
    spans = [(name, t1 - t0) for o, name, _, t0, t1 in t.spans if o == op]
    return spans, jobs


@pytest.mark.parametrize("kind", ["1d", "kd"])
def test_traced_build_spans_every_layer(build_tracer, kind, monkeypatch):
    """One traced build makes one span for each Spark phase but the row
    count, which a build no longer runs, and for the optimiser, and each of
    those spans of this build takes time. The leaf aggregates and the sample
    candidates are one job; the sampling phase runs none unless a leaf comes
    back short, and then exactly one."""
    spans, jobs = traced_build(build_tracer, kind)
    names = [name for name, _ in spans]
    seconds = dict(spans)
    assert names.count("spark_build.count") == 0 and "count" not in jobs
    for phase in (p for p in tracer.SPARK_PHASES if p != "count"):
        assert names.count(f"spark_build.{phase}") == 1, phase
        assert seconds[f"spark_build.{phase}"] > 0, phase
    optimiser = "partitioner.adp" if kind == "1d" else "kdtree.grow"
    # ADP makes two spans: the DP in the constructor, then ``cuts``.
    assert names.count(optimiser) == (2 if kind == "1d" else 1)
    assert all(s > 0 for name, s in spans if name == optimiser)
    assert jobs["optimization_sample"] >= 1
    assert jobs["leaf_aggregates"] >= 1
    assert jobs["stratified_sample"] == 0

    # A zero threshold for leaf 0 leaves it short: one top-up job.
    thresholds = synopsis.sample_thresholds

    def leaf_0_short(*args):
        out = thresholds(*args)
        out[0] = 0.0
        return out

    monkeypatch.setattr(synopsis, "sample_thresholds", leaf_0_short)
    _, short = traced_build(build_tracer, kind)
    assert short["stratified_sample"] == 1
    assert {p: n for p, n in short.items() if p != "stratified_sample"} == {
        p: n for p, n in jobs.items() if p != "stratified_sample"
    }
