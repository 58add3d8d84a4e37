"""The workloads of the PASS synopsis benchmark.

One client drives the unmodified ``PassSynopsis.build_1d`` / ``build_kd`` /
``answer`` / ``insert`` in a closed loop: each call starts when the previous
one has returned. All data is the 200K-row ``nyc_taxi_pdf`` (data seed 12,
as in ``repro.experiments``); the workload seed draws the timed queries and
the insert stream. Exact answers are computed before the timed loop.

The timed queries also include a scored set that is the same in every run
(``SCORE_SEED``). Accuracy is scored on that set only, so the scored metrics
move when the program's answers change, not with the queries a seed happens
to draw; and two thirds of every pass is the same work in every run.

* ``nyc-1d`` — ``build_1d`` on ``pickup_ts`` -> ``trip_distance`` (ADP, 64
  leaves, fanout 2, ``m_opt`` 1024, 10K samples). The ADP optimiser and the
  1-D bucketing UDF carry the build; MCF does most of each query's work.
* ``nyc-kd3`` — ``build_kd`` (KD-PASS) on ``pickup_time, pickup_date,
  pu_location_id`` (128 leaves, ``m_opt`` 4096, 10K samples). ADP does no
  work; about 15 partial leaves per query put sample filtering and
  ``stratum_estimate`` on a par with MCF.
* ``nyc-1d-ingest`` — the ``nyc-1d`` synopsis, built before the timed loop,
  then a stream of ``insert(row, rng)`` with one query after every 10
  inserts, scored against the base rows plus the inserted rows. The only
  workload whose timed loop leaves Spark idle.

Every end-to-end metric is reported on every workload, so each workload
times warm builds, queries and inserts: after each query pass, the two build
workloads insert a stream into a copy of the synopsis, and ``nyc-1d-ingest``
times the builds of its base synopsis.

Timed work is spread over the run: builds, query passes and insert streams
alternate until ``--seconds`` have passed. With tracing on, half of the builds, passes and
insert streams are traced, in the order untraced, traced,
traced, untraced (so that a trend over the run, such as the JVM warming up,
falls equally on both), and the same run gives the untraced figures the
tracing overhead is measured against.
"""
from __future__ import annotations

import contextlib
import copy
import gc
import os
import platform
import resource
import shlex
import subprocess
import time
from dataclasses import dataclass

import numpy as np
from pyspark import SparkContext
from pyspark.sql import SparkSession

import checks
from repro import synth_data
from repro.core.synopsis import PassSynopsis
from repro.workload import random_queries
from timing import Clock
from tracer import Tracer

# Fixed Spark sizing, recorded in every run's output. Each pandas-UDF task
# runs in its own Python worker, so two task threads keep the JVM, two
# workers and the driver within four cores.
SPARK_MASTER = "local[2]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "1g"

DATA_SEED = 12
BUILD_SEED = 0
SCORE_SEED = 1_000_000
VALUE = "trip_distance"
COLS_1D = ["pickup_ts"]
COLS_KD = ["pickup_time", "pickup_date", "pu_location_id"]
AGGS = ("sum", "count", "avg")


@dataclass(frozen=True)
class Scale:
    """Sizes of one run."""

    rows: int = 200_000
    samples: int = 10_000
    leaves_1d: int = 64
    m_opt_1d: int = 1024
    leaves_kd: int = 128
    m_opt_kd: int = 4096
    queries_per_agg: int = 200  # drawn with the workload seed
    scored_per_agg: int = 400  # the same in every run
    timed_builds: int = 2
    probe_inserts: int = 5_000  # per query pass of the build workloads
    stream_inserts: int = 10_000
    query_every: int = 10


BENCH = Scale()
TINY = Scale(
    rows=20_000, samples=2_000, leaves_1d=16, m_opt_1d=256, leaves_kd=32, m_opt_kd=512,
    queries_per_agg=20, scored_per_agg=20, timed_builds=1, probe_inserts=200,
    stream_inserts=200,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "1d" or "kd"
    ingest: bool

    @property
    def cols(self) -> list[str]:
        return COLS_1D if self.kind == "1d" else COLS_KD


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nyc-1d", "1d", False),
        Workload("nyc-kd3", "kd", False),
        Workload("nyc-1d-ingest", "1d", True),
    )
}

# -- Spark ---------------------------------------------------------------------


def start_spark(tmp: str) -> SparkSession:
    """Local Spark whose scratch files all go under ``tmp``."""
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["JAVA_TOOL_OPTIONS"] = java_opts  # also the launcher JVM
    os.environ["SPARK_LOCAL_IP"] = "127.0.0.1"
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {SPARK_MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--conf {shlex.quote('spark.driver.extraJavaOptions=' + java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote('spark.local.dir=' + tmp)}",
            "pyspark-shell",
        ]
    )
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def versions(spark: SparkSession) -> dict[str, str]:
    import duckdb
    import pandas
    import pyspark

    return {
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "duckdb": duckdb.__version__,
    }


def stop_spark(spark: SparkSession) -> None:
    """Stop Spark and wait for the JVM to exit; it exits when its stdin closes."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise


# -- the run -----------------------------------------------------------------


class Ledger:
    """Builds, queries and inserts attempted and failed. Every failure is
    printed: the first ``shown`` in full, the rest as one count at the end."""

    def __init__(self, shown: int = 20) -> None:
        self.attempted = 0
        self.failed = 0
        self.shown = shown
        self.hidden = 0

    def add(self, what: str, n_ops: int, n_failed: int, problems: list[str]) -> None:
        self.attempted += n_ops
        self.failed += n_failed
        for p in problems:
            if self.shown > 0:
                print(f"FAIL {what}: {p}", flush=True)
                self.shown -= 1
            else:
                self.hidden += 1

    def close(self) -> None:
        if self.hidden:
            print(f"FAIL and {self.hidden} more problems not shown", flush=True)


def percentile(xs, p: float) -> float:
    return float(np.percentile(xs, p)) if len(xs) else float("nan")


def quality(results, truth: np.ndarray) -> dict[str, float]:
    """Median relative error, CI coverage and median CI ratio (§5.1.2). An
    answer that is missing or not finite scores a relative error of 1."""
    errs, covered, ratios = [], [], []
    for res, t in zip(results, truth):
        if res is None or not np.isfinite(res.est):
            errs.append(1.0)
            covered.append(False)
            continue
        err = abs(res.est - t)
        errs.append(err / abs(t))
        covered.append(err <= res.ci_half)
        ratios.append(res.ci_half / abs(t))
    return {
        "median_rel_err": float(np.median(errs)),
        "ci_coverage": float(np.mean(covered)),
        "median_ci_ratio": float(np.median(ratios)) if ratios else float("nan"),
    }


class Run:
    """One benchmark run of one workload in a started Spark session."""

    def __init__(self, spark, workload: Workload, seed: int, seconds: float, trace: bool,
                 scale: Scale = BENCH) -> None:
        self.spark = spark
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.ledger = Ledger()
        self.build_s: dict[bool, list[float]] = {False: [], True: []}  # keyed by traced
        self.traced_answers: list = []
        self.traced_replaced: list[bool] = []
        self.tracer: Tracer | None = None

    # -- operations ------------------------------------------------------------

    def _build(self) -> PassSynopsis:
        sc = self.scale
        if self.w.kind == "1d":
            return PassSynopsis.build_1d(
                self.df, COLS_1D[0], VALUE, k_partitions=sc.leaves_1d, sample_total=sc.samples,
                partitioner="adp", m_opt=sc.m_opt_1d, fanout=2, seed=BUILD_SEED,
            )
        return PassSynopsis.build_kd(
            self.df, COLS_KD, VALUE, k_leaves=sc.leaves_kd, sample_total=sc.samples,
            m_opt=sc.m_opt_kd, seed=BUILD_SEED,
        )

    def _traced(self, on: bool):
        return self.tracer.installed() if on else contextlib.nullcontext()

    def timed_build(self, traced: bool) -> PassSynopsis | None:
        """One warm build; it must equal the first build of the run."""
        gc.collect()
        with self._traced(traced):
            if traced:
                self.tracer.new_op("build")
            t0 = time.perf_counter()
            try:
                syn = self._build()
            except Exception as e:  # a failed build is counted, and the run goes on
                self.ledger.add("build", 1, 1, [repr(e)])
                return None
            self.build_s[traced].append(time.perf_counter() - t0)
        same = checks.same_synopsis(checks.snapshot(syn), self.first)
        self.ledger.add("build", 1, 0 if same else 1,
                        [] if same else ["leaf stats or samples differ from the first build"])
        return syn

    def _answer(self, syn, q, truth: float, traced: bool, timed: bool):
        if traced:
            self.tracer.new_op("query")
        t0 = time.perf_counter()
        try:
            res = syn.answer(q)
        except Exception as e:
            self.ledger.add("query", 1, 1, [f"{q}: {e!r}"])
            return None
        if timed:
            self.clock.record(("query", traced), t0, time.perf_counter())
        problem = checks.answer_problem(q, res, truth)
        self.ledger.add("query", 1, problem is not None, [f"{q}: {problem}"] if problem else [])
        if traced:
            self.traced_answers.append(res)
        return res

    def query_pass(self, syn, queries, truth: np.ndarray, traced: bool = False,
                   timed: bool = False) -> list:
        """Answer and check every query."""
        gc.collect()
        with self._traced(traced):
            return [self._answer(syn, q, t, traced, timed) for q, t in zip(queries, truth)]

    def insert_stream(self, syn, traced: bool, interleaved=()) -> tuple[int, list[str]]:
        """Insert the run's stream into ``syn``; after every ``query_every``
        inserts, answer the next of ``interleaved`` (query, exact answer).
        Returns how many inserts failed, and why."""
        gc.collect()
        rng = np.random.default_rng(self.seed)
        every = self.scale.query_every
        n_failed, problems = 0, []
        with self._traced(traced):
            for i, row in enumerate(self.rows):
                if traced:
                    self.tracer.new_op("insert")
                    before = dict(syn.samples)
                t0 = time.perf_counter()
                try:
                    lid = syn.insert(row, rng)
                except Exception as e:
                    n_failed += 1
                    problems.append(f"row {i}: {e!r}")
                else:
                    self.clock.record(("insert", traced), t0, time.perf_counter())
                    if traced:
                        self.traced_replaced.append(syn.samples.get(lid) is not before.get(lid))
                j = (i + 1) // every - 1
                if (i + 1) % every == 0 and j < len(interleaved):
                    self._answer(syn, *interleaved[j], traced, timed=True)
        found = checks.ingest_problems(syn, self.leaf_sums, self.leaf_counts, self.stream_x, self.stream_v)
        if found:  # which insert went wrong is unknown: the whole stream fails
            n_failed, problems = len(self.rows), problems + found
        return n_failed, problems

    # -- set-up and inputs ----------------------------------------------------------

    def setup(self, t_start: float) -> None:
        """Load the data, then one warm-up build: with the JVM launch before
        it, this is ``setup_s``. The warm-up build is checked against DuckDB
        and every later build against it."""
        self.pdf = synth_data.nyc_taxi_pdf(n=self.scale.rows, seed=DATA_SEED)
        self.df = self.spark.createDataFrame(self.pdf).cache()
        self.df.count()
        syn = self._build()
        self.setup_s = time.perf_counter() - t_start
        problems, self.leaf_sums, self.leaf_counts = checks.leaf_problems(syn, self.pdf)
        self.ledger.add("build", 1, 1 if problems else 0, problems)
        self.first = checks.snapshot(syn)
        self.syn = syn
        self.clock = Clock()
        if self.trace:
            self.tracer = Tracer(self.spark.sparkContext, self.df)

    def _queries(self, seed: int, per_agg: int) -> list:
        """SUM, COUNT and AVG queries from ``workload.random_queries``, in a
        seeded order that mixes the three."""
        qs = [
            q
            for i, agg in enumerate(AGGS)
            for q in random_queries(self.pdf, self.w.cols, agg, per_agg, seed=seed * len(AGGS) + i)
        ]
        return [qs[i] for i in np.random.default_rng(seed).permutation(len(qs))]

    def make_inputs(self, n_rows: int) -> None:
        """The timed queries with their exact SUM and COUNT over the base
        rows, and the insert stream: ``n_rows`` rows of ``nyc_taxi_pdf``
        drawn with the workload seed. The timed queries are the scored ones
        (the same in every run) and more drawn with the workload seed, in an
        order the seed draws; ``self.scored`` holds the positions of the
        scored ones."""
        cols = self.w.cols
        x = self.pdf[cols].to_numpy(np.float64)
        v = self.pdf[VALUE].to_numpy(np.float64)
        scored = self._queries(SCORE_SEED, self.scale.scored_per_agg)
        drawn = self._queries(self.seed, self.scale.queries_per_agg)
        order = np.random.default_rng(self.seed).permutation(len(scored) + len(drawn))
        self.queries = [(scored + drawn)[i] for i in order]
        self.scored = np.flatnonzero(order < len(scored))
        self.base = checks.exact_sums(x, v, self.queries)
        self.truth = checks.truths(self.queries, *self.base)
        stream = synth_data.nyc_taxi_pdf(n=n_rows, seed=self.seed)
        self.stream_x = stream[cols].to_numpy(np.float64)
        self.stream_v = stream[VALUE].to_numpy(np.float64)
        self.rows = stream[cols + [VALUE]].to_dict("records")

    # -- workloads ------------------------------------------------------------------

    def run_builds(self) -> None:
        """Warm builds, query passes and insert streams in turn until the
        time is up. Each stream goes into a copy of the synopsis the pass
        ran on. The first pass is scored."""
        self.make_inputs(self.scale.probe_inserts)
        n_builds = self.scale.timed_builds * (2 if self.trace else 1)
        syn = self.syn
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < n_builds or time.perf_counter() < deadline:
            traced = self.trace and i % 4 in (1, 2)
            if i < n_builds:
                syn = self.timed_build(traced) or syn
            results = self.query_pass(syn, self.queries, self.truth, traced, timed=True)
            if i == 0:
                self.scored_results = ([results[k] for k in self.scored], self.truth[self.scored])
            self.ledger.add("insert", len(self.rows), *self.insert_stream(copy.deepcopy(syn), traced))
            i += 1

    def run_ingest(self) -> None:
        """Build the base synopsis, then insert streams with interleaved
        queries, each into a fresh copy of the base, until the time is up.
        The synopsis the first stream leaves is scored; every later stream
        must leave the same one."""
        base = self.syn
        for i in range(self.scale.timed_builds * (2 if self.trace else 1)):
            base = self.timed_build(self.trace and i % 4 in (1, 2)) or base
        self.make_inputs(self.scale.stream_inserts)
        every = self.scale.query_every
        positions: dict[int, list[int]] = {}  # timed query -> interleaved slots
        for j in range(len(self.rows) // every):
            positions.setdefault(j % len(self.queries), []).append(j)
        interleaved: list = [None] * (len(self.rows) // every)
        for k, slots in positions.items():
            q = self.queries[k]
            sums, counts = checks.running_sums(self.stream_x, self.stream_v, q)
            for j in slots:
                upto = (j + 1) * every - 1
                t = checks.truths([q], self.base[0][k:k + 1] + sums[upto],
                                  self.base[1][k:k + 1] + counts[upto])
                interleaved[j] = (q, float(t[0]))
        scored_queries = [self.queries[k] for k in self.scored]
        stream = checks.exact_sums(self.stream_x, self.stream_v, scored_queries)
        scored_truth = checks.truths(scored_queries, self.base[0][self.scored] + stream[0],
                                     self.base[1][self.scored] + stream[1])
        first = None
        deadline = time.perf_counter() + self.seconds
        r = 0
        while r < (2 if self.trace else 1) or time.perf_counter() < deadline:
            traced = self.trace and r % 4 in (1, 2)
            syn = copy.deepcopy(base)
            n_failed, problems = self.insert_stream(syn, traced, interleaved)
            snap = checks.snapshot(syn)
            if first is None:
                first = snap
                results = self.query_pass(syn, scored_queries, scored_truth)
                self.scored_results = (results, scored_truth)
                self.syn = syn
            elif not n_failed and not checks.same_synopsis(snap, first):
                n_failed, problems = len(self.rows), ["stream left another synopsis than the first"]
            self.ledger.add("insert", len(self.rows), n_failed, problems)
            r += 1

    def run(self, t_start: float) -> None:
        self.setup(t_start)
        t_loop = time.perf_counter()
        if self.w.ingest:
            self.run_ingest()
        else:
            self.run_builds()
        self.clock.probe()
        self.ledger.close()
        self.phases = {"setup": self.setup_s, "inputs_and_loop": time.perf_counter() - t_loop}

    # -- results ----------------------------------------------------------------------

    def result(self, units: dict[str, str]) -> dict:
        """The run's last output line; ``units`` maps every metric the run
        must report to its unit."""
        metrics = self.layer_metrics() if self.trace else self.metrics()
        if metrics.keys() != units.keys():
            raise RuntimeError(f"metrics {sorted(metrics)} are not the declared {sorted(units)}")
        return {
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }

    def metrics(self) -> dict[str, float]:
        pct = self.clock.percentile
        return {
            "setup_s": self.setup_s,
            "build_s": percentile(self.build_s[False], 50),
            "query_p50_ms": pct(("query", False), 50) * 1e3,
            "query_p90_ms": pct(("query", False), 90) * 1e3,
            "insert_p50_us": pct(("insert", False), 50) * 1e6,
            "insert_p90_us": pct(("insert", False), 90) * 1e6,
            **quality(*self.scored_results),
            "synopsis_mb": self.syn.storage_bytes / 1e6,
            "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - self.ledger.failed / self.ledger.attempted,
        }

    def layer_metrics(self) -> dict[str, float]:
        out = self.tracer.layer_metrics()
        answers, replaced = self.traced_answers, self.traced_replaced
        out["synopsis.samples_scanned"] = float(np.mean([r.processed for r in answers]))
        out["synopsis.skip_rate"] = float(np.mean([r.skipped_frac for r in answers]))
        out["synopsis.reservoir_replace_frac"] = float(np.mean(replaced))

        def overhead(kind: str, scale: float) -> float:
            pct = self.clock.percentile
            return (pct((kind, True), 50) - pct((kind, False), 50)) * scale

        out["trace_overhead.build_s"] = (
            percentile(self.build_s[True], 50) - percentile(self.build_s[False], 50)
        )
        out["trace_overhead.query_p50_ms"] = overhead("query", 1e3)
        out["trace_overhead.insert_p50_us"] = overhead("insert", 1e6)
        return out

    def meta(self) -> dict:
        """What a reader needs to compare two runs, with the sample count
        behind every percentile. p99 is printed here and not gated."""

        def dist(xs, scale: float) -> dict:
            return {"n": len(xs), **{f"p{p}": percentile(xs, p) * scale for p in (50, 90, 99)}}

        timed = {}
        for kind, scale in (("query", 1e3), ("insert", 1e6)):
            for traced in (False, True):
                key = (kind, traced)
                name = f"{kind}_{'us' if kind == 'insert' else 'ms'}{'_traced' if traced else ''}"
                timed[name] = {"corrected": dist(self.clock.corrected(key), scale),
                               "raw": dist(self.clock.raw(key), scale)}
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "spark_master": SPARK_MASTER,
            "shuffle_partitions": SHUFFLE_PARTITIONS,
            "driver_memory": DRIVER_MEMORY,
            "rows": self.scale.rows,
            "timed_queries_per_pass": len(self.queries),
            "scored_queries": len(self.scored),
            "scored_without_estimate": sum(
                1 for r in self.scored_results[0] if r is not None and not np.isfinite(r.est)
            ),
            "phases_s": self.phases,
            "build_s": {"untraced": self.build_s[False], "traced": self.build_s[True]},
            **timed,
            "probe_ms": dist(self.clock.probe_s, 1e3),
        }
