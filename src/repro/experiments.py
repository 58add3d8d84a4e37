"""Drivers for the paper's evaluation tables (§5).

Each ``run_tableN(spark, scale=...)`` function reproduces one table:
builds every approach under the table's budget regime, runs the table's
workloads, and returns ``(markdown, rows)``. ``jobs/tableN.py`` wraps
them for spark-submit; ``benchmarks/bench_tableN.py`` wraps them for
pytest-benchmark; EXPERIMENTS.md records paper-vs-measured numbers.

Two scale presets: ``"test"`` (tiny — CI-sized integration tests) and
``"bench"`` (~100–200K rows, the scale the recorded numbers use). The
paper runs 1.4M–7.7M rows with 2000 queries per workload on a bare-metal
testbed; see DESIGN.md §3.7 for the substitution rationale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from . import synth_data
from .baselines.aqppp import build_aqppp_1d
from .baselines.deepdb_lite import DeepDBLite
from .baselines.stratified import build_stratified
from .baselines.uniform import build_uniform
from .baselines.verdictdb_lite import build_verdictdb
from .core import spark_build
from .core.synopsis import PassSynopsis
from .harness import EvalStats, evaluate, markdown_table, pct
from .workload import random_queries

#: (generator, pred_col, value_col) for the 1-D experiments.
DATASETS_1D = {
    "Intel": ("intel_wireless_pdf", "time", "light"),
    "Insta": ("instacart_pdf", "product_id", "reordered"),
    "NYC": ("nyc_taxi_pdf", "pickup_ts", "trip_distance"),
}


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    n_rows: dict[str, int]
    n_queries: int
    sample_rate: float = 0.005
    n_partitions: int = 64
    m_opt: int = 1024
    kd_leaves: int = 256
    kd_m_opt: int = 2048
    seed: int = 0


SCALES = {
    "test": Scale(
        n_rows={"Intel": 4000, "Insta": 4000, "NYC": 5000},
        n_queries=40,
        n_partitions=16,
        m_opt=400,
        kd_leaves=32,
        kd_m_opt=600,
    ),
    "bench": Scale(
        n_rows={"Intel": 120_000, "Insta": 120_000, "NYC": 200_000},
        n_queries=300,
        n_partitions=64,
        m_opt=1024,
        # 128 leaves keeps the per-leaf sample count at the paper's ratio:
        # 0.5% of 200K rows over 128 strata ≈ 8 samples/stratum at BSS1x,
        # matching the paper's 38.5K samples over 1024 leaves (~37/leaf)
        # once BSS multipliers apply.
        kd_leaves=128,
        kd_m_opt=4096,
    ),
}


def _dataset(spark: SparkSession, name: str, sc: Scale):
    gen, pred, value = DATASETS_1D[name]
    pdf = getattr(synth_data, gen)(n=sc.n_rows[name], seed=10 + list(DATASETS_1D).index(name))
    df = spark.createDataFrame(pdf).cache()
    df.count()
    # Untimed warm-up: else the first build to sample the fresh cache pays it.
    spark_build.uniform_sample(df, value, [pred], 1)
    return pdf, df, pred, value


# ---------------------------------------------------------------------------
# Table 1 — accuracy of US / ST / AQP++ / PASS-{ESS,BSS2x,BSS10x}
# ---------------------------------------------------------------------------


def run_table1(spark: SparkSession, scale: str = "test"):
    """Median relative error of COUNT/SUM/AVG random queries on the three
    datasets at a 0.5% sample rate and 64 partitions (paper Table 1)."""
    sc = SCALES[scale]
    rows: dict[str, dict] = {}
    order = ["US", "ST", "AQP++", "PASS-ESS", "PASS-BSS2x", "PASS-BSS10x"]
    for ds in DATASETS_1D:
        pdf, df, pred, value = _dataset(spark, ds, sc)
        n = len(pdf)
        K = max(50, int(sc.sample_rate * n))
        B = sc.n_partitions

        def build_pass(budget):
            return PassSynopsis.build_1d(
                df, pred, value, k_partitions=B, sample_total=budget, m_opt=sc.m_opt, seed=sc.seed
            )

        approaches = {
            "US": build_uniform(df, [pred], value, k=K, seed=sc.seed),
            "ST": build_stratified(
                df, pred, value, n_strata=B, sample_total=K, m_opt=sc.m_opt, seed=sc.seed
            ),
            "AQP++": build_aqppp_1d(
                df, pred, value, n_partitions=B, k_sample=K, m_opt=sc.m_opt, seed=sc.seed
            ),
            "PASS-BSS2x": build_pass(2 * K),
            "PASS-BSS10x": build_pass(10 * K),
        }
        # ESS calibration (§5.1.4): grow the sample pool until the average
        # tuples *processed* per query matches the uniform baseline's K.
        calib = random_queries(pdf, [pred], "sum", min(50, sc.n_queries), seed=99, min_count=20)
        p_bar = max(1e-3, approaches["PASS-BSS2x"].mean_partial_fraction(calib))
        ess_budget = int(min(0.5 * n, K / p_bar))
        approaches["PASS-ESS"] = build_pass(ess_budget)

        for name in order:
            app = approaches[name]
            entry = rows.setdefault(name, {"cost": [], "err": {}})
            entry["cost"].append(getattr(app, "build_seconds", float("nan")))
            for agg_i, agg in enumerate(("count", "sum", "avg")):
                qs = random_queries(
                    pdf, [pred], agg, sc.n_queries, seed=sc.seed + 31 * agg_i, min_count=20
                )
                st = evaluate(app, qs, pdf, value, name=name)
                entry["err"][(agg, ds)] = st
        df.unpersist()

    header = ["Approach", "Mean Cost"] + [
        f"{agg.upper()} {ds}" for agg in ("count", "sum", "avg") for ds in DATASETS_1D
    ]
    out_rows = []
    for name in order:
        e = rows[name]
        out_rows.append(
            [name, f"{np.mean(e['cost']):.2f}s"]
            + [
                pct(e["err"][(agg, ds)].median_rel_err)
                for agg in ("count", "sum", "avg")
                for ds in DATASETS_1D
            ]
        )
    return markdown_table(header, out_rows), rows


# ---------------------------------------------------------------------------
# Table 2 — end-to-end vs VerdictDB-lite and DeepDB-lite
# ---------------------------------------------------------------------------

TABLE2_WORKLOADS = ["Intel", "Insta", "NYC", "NYC-2D", "NYC-3D", "NYC-4D", "NYC-5D"]


def run_table2(spark: SparkSession, scale: str = "test"):
    """Latency / storage / construction time / median SUM relative error
    across 1-D and multi-dimensional NYC templates (paper Table 2)."""
    sc = SCALES[scale]
    data = {ds: _dataset(spark, ds, sc) for ds in DATASETS_1D}
    nyc_pdf, nyc_df, _, nyc_value = data["NYC"]
    nyc_all_preds = ["pickup_ts"] + synth_data.NYC_PREDICATES

    workloads = {}
    for ds in DATASETS_1D:
        pdf, _, pred, value = data[ds]
        workloads[ds] = (
            random_queries(pdf, [pred], "sum", sc.n_queries, seed=sc.seed + 1, min_count=20),
            pdf,
            value,
        )
    for d in (2, 3, 4, 5):
        cols = synth_data.NYC_PREDICATES[:d]
        workloads[f"NYC-{d}D"] = (
            random_queries(nyc_pdf, cols, "sum", sc.n_queries, seed=sc.seed + d, min_count=20),
            nyc_pdf,
            nyc_value,
        )

    def eval_approach(name, per_workload) -> list:
        """per_workload: workload name -> approach answering it."""
        stats: dict[str, EvalStats] = {}
        for w, app in per_workload.items():
            qs, pdf, value = workloads[w]
            stats[w] = evaluate(app, qs, pdf, value, name=name)
        lat = np.mean([s.mean_latency_ms for s in stats.values()])
        storage = np.mean([s.storage_mb for s in stats.values()])
        cost = np.mean(
            [getattr(app, "build_seconds", float("nan")) for app in set(per_workload.values())]
        )
        return [
            name,
            f"{lat:.2f}",
            f"{storage:.3f}",
            f"{cost:.1f}",
        ] + [pct(stats[w].median_rel_err) for w in TABLE2_WORKLOADS]

    out_rows = []
    # -- PASS-BSS variants
    for mult, label in [(1, "PASS-BSS1x"), (2, "PASS-BSS2x"), (10, "PASS-BSS10x")]:
        per_workload = {}
        for ds in DATASETS_1D:
            pdf, df, pred, value = data[ds]
            K = max(50, int(sc.sample_rate * len(pdf)))
            per_workload[ds] = PassSynopsis.build_1d(
                df, pred, value, k_partitions=sc.n_partitions,
                sample_total=mult * K, m_opt=sc.m_opt, seed=sc.seed,
            )
        K_nyc = max(50, int(sc.sample_rate * len(nyc_pdf)))
        for d in (2, 3, 4, 5):
            cols = synth_data.NYC_PREDICATES[:d]
            # Proportional allocation: k-d leaves vary widely in size, and
            # equal allocation would starve the big leaves at small budgets.
            per_workload[f"NYC-{d}D"] = PassSynopsis.build_kd(
                nyc_df, cols, nyc_value, k_leaves=sc.kd_leaves,
                sample_total=mult * K_nyc, m_opt=sc.kd_m_opt,
                alloc="proportional", seed=sc.seed,
            )
        out_rows.append(eval_approach(label, per_workload))
    # -- VerdictDB-lite
    for ratio, label in [(0.1, "VerdictDB-10%"), (1.0, "VerdictDB-100%")]:
        per_workload = {}
        for ds in DATASETS_1D:
            pdf, df, pred, value = data[ds]
            per_workload[ds] = build_verdictdb(df, [pred], value, ratio=ratio, seed=sc.seed)
        nyc_scramble = build_verdictdb(
            nyc_df, synth_data.NYC_PREDICATES, nyc_value, ratio=ratio, seed=sc.seed
        )
        for d in (2, 3, 4, 5):
            per_workload[f"NYC-{d}D"] = nyc_scramble
        out_rows.append(eval_approach(label, per_workload))
    # -- DeepDB-lite
    for frac, label in [(0.1, "DeepDB-10%"), (1.0, "DeepDB-100%")]:
        per_workload = {}
        for ds in DATASETS_1D:
            pdf, df, pred, value = data[ds]
            per_workload[ds] = DeepDBLite.build(
                df, [pred], value, train_frac=frac, seed=sc.seed
            )
        nyc_model = DeepDBLite.build(
            nyc_df, nyc_all_preds, nyc_value, train_frac=frac, seed=sc.seed
        )
        for d in (2, 3, 4, 5):
            per_workload[f"NYC-{d}D"] = nyc_model
        out_rows.append(eval_approach(label, per_workload))

    for ds in DATASETS_1D:
        data[ds][1].unpersist()
    header = ["Approach", "Latency(ms)", "Storage(MB)", "Time(s)"] + TABLE2_WORKLOADS
    return markdown_table(header, out_rows), out_rows


# ---------------------------------------------------------------------------
# Table 3 — preprocessing cost / latency / accuracy vs number of partitions
# ---------------------------------------------------------------------------


def run_table3(spark: SparkSession, scale: str = "test", ks=(4, 8, 16, 32, 64, 128)):
    """k-sweep on the NYC dataset (paper Table 3): one ``build_1d`` per k,
    whose ``build_seconds`` is the k's preprocessing cost."""
    sc = SCALES[scale]
    pdf, df, pred, value = _dataset(spark, "NYC", sc)
    n = len(pdf)
    ks = [k for k in ks if k <= max(4, n // 50)]
    K = max(50, int(sc.sample_rate * n))
    qs = random_queries(pdf, [pred], "sum", sc.n_queries, seed=sc.seed + 5, min_count=20)
    out_rows = []
    stats_by_k = {}
    for k in ks:
        syn = PassSynopsis.build_1d(
            df, pred, value, k_partitions=k, sample_total=10 * K, m_opt=sc.m_opt, seed=sc.seed
        )
        st = evaluate(syn, qs, pdf, value, name=f"k={k}")
        stats_by_k[k] = st
        out_rows.append(
            [
                str(k),
                f"{syn.build_seconds:.1f}",
                f"{st.mean_latency_ms:.2f}",
                f"{st.max_latency_ms:.2f}",
                pct(st.median_rel_err),
            ]
        )
    df.unpersist()
    header = ["k", "Cost(s)", "Latency(ms)", "MaxLatency(ms)", "MedianRE"]
    return markdown_table(header, out_rows), stats_by_k
