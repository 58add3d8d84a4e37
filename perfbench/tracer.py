"""Per-layer tracing of the PASS synopsis, taken from outside the program.

While installed, a :class:`Tracer` replaces the public functions of
``repro.core`` at the attribute where ``synopsis.py`` looks each one up
(``spark_build.<fn>``, the names ``synopsis.py`` imports, and the methods of
``PassSynopsis``, ``ADP`` and ``Node``) with wrappers that record spans, and
puts the originals back when it is uninstalled. ``src/`` is never edited.

A span is ``[op, name, parent, start, end]``; every span of one build, query
or insert carries that operation's id, and ``parent`` is the index of the
span that caused it. Spans stay in memory until :meth:`Tracer.layer_metrics`
folds them into per-operation means.

Each Spark phase runs under its own job group, so the jobs, stages, tasks and
failed tasks of every phase are read back from ``sc.statusTracker()``.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from repro.core import partitioner, spark_build, synopsis, tree

#: Build phases that run Spark jobs, by span name.
SPARK_PHASES = ("count", "optimization_sample", "leaf_aggregates", "stratified_sample")
SPARK_COUNTS = ("jobs", "stages", "tasks", "failed_tasks")

# (owner, attribute, span name, runs Spark jobs). ``synopsis.ADP`` and
# ``synopsis.KDTree`` are wrapped as calls, so their spans time the
# constructor, which is where the optimiser and the k-d growth run.
_FUNCTIONS = [
    (spark_build, "optimization_sample", "spark_build.optimization_sample", True),
    (spark_build, "with_leaf_1d", "spark_build.with_leaf", False),
    (spark_build, "with_leaf_fn", "spark_build.with_leaf", False),
    (spark_build, "leaf_aggregates", "spark_build.leaf_aggregates", True),
    (spark_build, "leaves_from_aggregates", "spark_build.leaves_from_aggregates", False),
    (spark_build, "stratified_sample", "spark_build.stratified_sample", True),
    (synopsis, "ADP", "partitioner.adp", False),
    (partitioner.ADP, "cuts", "partitioner.adp", False),
    (synopsis, "cuts_to_boundaries", "partitioner.cuts_to_boundaries", False),
    (synopsis, "assign_partitions", "partitioner.assign_partitions", False),
    (synopsis, "KDTree", "kdtree.grow", False),
    (synopsis, "build_tree", "tree.build", False),
    (synopsis, "_tree_from_kd", "tree.build", False),
    (synopsis, "mcf", "tree.mcf", False),
    (synopsis, "hard_bounds", "variance.hard_bounds", False),
    (synopsis, "stratum_estimate", "variance.stratum_estimate", False),
    (synopsis, "allocate_budget", "synopsis.allocate_budget", False),
    (synopsis.PassSynopsis, "answer", "synopsis.answer", False),
    (synopsis.PassSynopsis, "insert", "synopsis.insert", False),
]
_CLASSMETHODS = [
    ("build_1d", "synopsis.build"),
    ("build_kd", "synopsis.build"),
    ("_finish", "synopsis.finish"),
]


class Tracer:
    """Spans and counts for the operations run while it is installed."""

    def __init__(self, sc, df) -> None:
        self.sc = sc
        self.df = df  # the benchmark's input frame; ``build_*`` calls its count()
        self.spans: list[list] = []
        self.op_kinds: list[str] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.job_groups: list[tuple[int, str, str]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- operations ---------------------------------------------------------

    def new_op(self, kind: str) -> int:
        """Start a build, query or insert; later spans belong to it."""
        self.op_kinds.append(kind)
        return len(self.op_kinds) - 1

    def _call(self, name, fn, args, kwargs, spark_phase=None, after=None):
        if self._stack and self.spans[self._stack[-1]][1] == name:
            return fn(*args, **kwargs)  # recursion inside one span
        op = len(self.op_kinds) - 1
        rec = [op, name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if spark_phase is not None:
            group = f"perfbench-{op}-{spark_phase}"
            self.sc.setJobGroup(group, name)
            self.job_groups.append((op, spark_phase, group))
        rec[3] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            if spark_phase is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)
        if after is not None:
            after(op, out)
        return out

    def _wrap(self, name, fn, spark_phase=None, after=None):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, spark_phase, after)

        return traced

    def _mcf_result(self, op: int, out) -> None:
        covered, partial = out
        self.counts[(op, "tree.covered_nodes")] += len(covered)
        self.counts[(op, "tree.partial_leaves")] += len(partial)

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name, spark in _FUNCTIONS:
            after = self._mcf_result if name == "tree.mcf" else None
            phase = name.split(".", 1)[1] if spark else None
            self._set(owner, attr, self._wrap(name, getattr(owner, attr), phase, after))
        for attr, name in _CLASSMETHODS:
            fn = synopsis.PassSynopsis.__dict__[attr].__func__
            self._set(synopsis.PassSynopsis, attr, classmethod(self._wrap(name, fn)))
        classify = tree.Node.classify

        def counted_classify(node, lo, hi):
            self.counts[(len(self.op_kinds) - 1, "tree.nodes_classified")] += 1
            return classify(node, lo, hi)

        self._set(tree.Node, "classify", counted_classify)
        # ``build_1d``/``build_kd`` call ``df.count()`` on the frame they are
        # given; an instance attribute shadows the method for this frame only.
        self._set(self.df, "count", self._wrap("spark_build.count", self.df.count, "count"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    @contextlib.contextmanager
    def installed(self):
        """Trace the operations run inside the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------------

    def _totals(self):
        """Per (op kind, span name): summed outermost time and self time."""
        child = [0.0] * len(self.spans)
        for op, name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total: dict[tuple[str, str], float] = defaultdict(float)
        self_time: dict[tuple[str, str], float] = defaultdict(float)
        for i, (op, name, parent, t0, t1) in enumerate(self.spans):
            kind = self.op_kinds[op]
            total[(kind, name)] += t1 - t0
            self_time[(kind, name)] += t1 - t0 - child[i]
        return total, self_time

    def spark_counts(self) -> dict[tuple[str, str], int]:
        """Per (Spark phase, count name): summed over every traced build."""
        tracker = self.sc.statusTracker()
        out: dict[tuple[str, str], int] = defaultdict(int)
        for _, phase, group in self.job_groups:
            for job_id in tracker.getJobIdsForGroup(group):
                out[(phase, "jobs")] += 1
                info = tracker.getJobInfo(job_id)
                for stage_id in info.stageIds if info else ():
                    stage = tracker.getStageInfo(stage_id)
                    if stage is None:  # skipped: its output was reused
                        continue
                    out[(phase, "stages")] += 1
                    out[(phase, "tasks")] += stage.numTasks
                    out[(phase, "failed_tasks")] += stage.numFailedTasks
        return out

    def n_ops(self, kind: str) -> int:
        return sum(1 for k in self.op_kinds if k == kind)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics as means per traced build, query or insert.

        Times are in the unit their name ends with. A layer that a workload
        never calls reads 0.
        """
        total, self_time = self._totals()
        n_build = max(1, self.n_ops("build"))
        n_query = max(1, self.n_ops("query"))
        n_insert = max(1, self.n_ops("insert"))
        out: dict[str, float] = {}
        for name, span in [
            ("spark_build.count_s", "spark_build.count"),
            ("spark_build.optimization_sample_s", "spark_build.optimization_sample"),
            ("spark_build.leaf_aggregates_s", "spark_build.leaf_aggregates"),
            ("spark_build.stratified_sample_s", "spark_build.stratified_sample"),
            ("spark_build.leaves_from_aggregates_s", "spark_build.leaves_from_aggregates"),
            ("partitioner.adp_s", "partitioner.adp"),
            ("kdtree.grow_s", "kdtree.grow"),
            ("tree.build_s", "tree.build"),
        ]:
            out[name] = total[("build", span)] / n_build
        out["synopsis.finish_self_s"] = self_time[("build", "synopsis.finish")] / n_build
        out["synopsis.build_self_s"] = self_time[("build", "synopsis.build")] / n_build
        spark = self.spark_counts()
        for what in SPARK_COUNTS:
            for phase in SPARK_PHASES:
                out[f"spark_build.{phase}.{what}"] = spark[(phase, what)] / n_build
            out[f"spark_build.{what}"] = sum(spark[(p, what)] for p in SPARK_PHASES) / n_build

        out["tree.mcf_us"] = total[("query", "tree.mcf")] / n_query * 1e6
        out["variance.stratum_estimate_us"] = total[("query", "variance.stratum_estimate")] / n_query * 1e6
        out["variance.hard_bounds_us"] = total[("query", "variance.hard_bounds")] / n_query * 1e6
        out["synopsis.answer_self_us"] = self_time[("query", "synopsis.answer")] / n_query * 1e6
        per_query = defaultdict(int)
        for (op, name), n in self.counts.items():
            if self.op_kinds[op] == "query":
                per_query[name] += n
        for name in ("tree.nodes_classified", "tree.covered_nodes", "tree.partial_leaves"):
            out[name] = per_query[name] / n_query
        out["variance.stratum_estimate_calls"] = (
            sum(
                1
                for op, name, *_ in self.spans
                if name == "variance.stratum_estimate" and self.op_kinds[op] == "query"
            )
            / n_query
        )

        out["synopsis.insert_us"] = total[("insert", "synopsis.insert")] / n_insert * 1e6
        out["partitioner.assign_partitions_us"] = (
            total[("insert", "partitioner.assign_partitions")] / n_insert * 1e6
        )
        return out


_ABSENT = object()
