"""The PASS synopsis: build from a Spark DataFrame, answer queries (§3).

Query processing follows §3.3 exactly: MCF index lookup → exact partial
aggregation over covered nodes → stratified-sample estimation over
partially-overlapped leaves → combined estimate, CLT confidence interval
and deterministic hard bounds. The 0-variance rule (§3.4) is applied for
AVG queries.

Two builders:

* :meth:`PassSynopsis.build_1d` — single predicate column, leaf
  partitioning from the ADP dynamic program (or equal-depth for the EQ
  ablation), balanced bottom-up tree of a fixed fanout;
* :meth:`PassSynopsis.build_kd` — multi-dimensional KD-PASS (§4.4) with
  max-variance leaf expansion.

Workload shift (§5.4.1) is supported: a query may constrain columns the
synopsis was not built on; those constraints disable exact coverage (all
intersecting nodes are answered from samples) but the shared attributes
still drive data skipping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from . import spark_build
from .kdtree import KDNode, KDTree
from .partitioner import ADP, assign_partitions, cuts_to_boundaries, equal_depth_cuts
from .query import Query
from .tree import Node, build_tree, mcf, merge_nodes, synopsis_bytes
from .variance import LAMBDA_99, PartStats, hard_bounds, stratum_estimate


@dataclass
class AqpResult:
    """One approximate answer: estimate, λ·σ half-width CI, deterministic
    hard bounds (when available), and cost accounting."""

    est: float
    ci_half: float
    lb: float = float("nan")
    ub: float = float("nan")
    processed: int = 0
    skipped_frac: float = 0.0


class PassSynopsis:
    """Partition tree + per-leaf stratified samples (Figure 2)."""

    def __init__(
        self,
        root: Node,
        leaves: list[Node],
        samples: dict[int, tuple[np.ndarray, np.ndarray]],
        pred_cols: list[str],
        value_col: str,
        n_total: float,
        sample_cols: list[str] | None = None,
        *,
        build_seconds: float = 0.0,
        use_aggregates: bool = True,
        assign=None,
    ) -> None:
        """``use_aggregates=False`` turns the structure into plain
        stratified sampling (the ST baseline): covered nodes are answered
        from their samples like any other stratum and no exact partial
        aggregation, 0-variance rule, or hard bounds are used."""
        self.use_aggregates = use_aggregates
        #: vectorised (n, d) → leaf-id mapper; enables dynamic inserts.
        self.assign = assign
        self._leaf_paths: dict[int, list[Node]] | None = None
        self._seen: dict[int, int] = {}  # reservoir counters per leaf
        self.root = root
        self.leaves = leaves
        self.samples = samples  # leaf_id -> (sample_cols matrix (K_i, s), values (K_i,))
        self.pred_cols = list(pred_cols)
        # Columns stored alongside each sampled row; a superset of
        # pred_cols enables workload-shift queries (§5.4.1) that filter on
        # non-indexed attributes.
        self.sample_cols = list(sample_cols) if sample_cols is not None else list(pred_cols)
        self.value_col = value_col
        self.n_total = float(n_total)
        self.build_seconds = build_seconds

    # -- construction ---------------------------------------------------

    @classmethod
    def build_1d(
        cls,
        df: DataFrame,
        pred_col: str,
        value_col: str,
        *,
        k_partitions: int,
        sample_total: int,
        partitioner: str = "adp",
        m_opt: int = 1024,
        alloc: str = "equal",
        fanout: int = 2,
        sample_cols: list[str] | None = None,
        boundaries: np.ndarray | None = None,
        seed: int = 0,
    ) -> "PassSynopsis":
        t0 = time.perf_counter()
        n_total = df.count()
        if boundaries is None:
            opt = spark_build.optimization_sample(
                df, value_col, [pred_col], m_opt, n_total, seed=seed
            )
            a = opt[value_col].to_numpy(dtype=np.float64)
            c = opt[pred_col].to_numpy(dtype=np.float64)
            if partitioner == "adp":
                cuts, _ = ADP(a, k_partitions).cuts(k_partitions)
            elif partitioner == "eq":
                cuts = equal_depth_cuts(len(a), k_partitions)
            else:
                raise ValueError(f"unknown partitioner {partitioner!r}")
            boundaries = cuts_to_boundaries(c, cuts)
        df_leaf = spark_build.with_leaf_1d(df, pred_col, boundaries)
        b = np.asarray(boundaries, dtype=np.float64)
        return cls._finish(
            df_leaf, [pred_col], value_col, len(boundaries) + 1, None, sample_total,
            alloc, fanout, sample_cols, seed, n_total, t0,
            assign=lambda x: assign_partitions(np.asarray(x, float)[:, 0], b),
        )

    @classmethod
    def build_kd(
        cls,
        df: DataFrame,
        pred_cols: list[str],
        value_col: str,
        *,
        k_leaves: int,
        sample_total: int,
        m_opt: int = 2048,
        alloc: str = "equal",
        sample_cols: list[str] | None = None,
        seed: int = 0,
    ) -> "PassSynopsis":
        t0 = time.perf_counter()
        n_total = df.count()
        opt = spark_build.optimization_sample(df, value_col, pred_cols, m_opt, n_total, seed=seed)
        x = opt[pred_cols].to_numpy(dtype=np.float64)
        a = opt[value_col].to_numpy(dtype=np.float64)
        kd = KDTree(x, a, k_leaves, seed=seed)
        df_leaf = spark_build.with_leaf_fn(df, pred_cols, kd.assign)
        return cls._finish(
            df_leaf, pred_cols, value_col, kd.n_leaves, kd, sample_total,
            alloc, 2, sample_cols, seed, n_total, t0,
            assign=kd.assign,
        )

    @classmethod
    def _finish(
        cls, df_leaf, pred_cols, value_col, n_leaves, kd, sample_total,
        alloc, fanout, sample_cols, seed, n_total, t0, assign,
    ) -> "PassSynopsis":
        agg_pdf = spark_build.leaf_aggregates(df_leaf, value_col, pred_cols)
        leaf_nodes = spark_build.leaves_from_aggregates(agg_pdf, pred_cols, n_leaves)
        if kd is None:
            root = build_tree(leaf_nodes, fanout=fanout)
        else:
            root = _tree_from_kd(kd.root, leaf_nodes)
        k_per_leaf = allocate_budget(
            [l.stats.count for l in leaf_nodes], sample_total, alloc
        )
        sample_cols = list(sample_cols) if sample_cols is not None else list(pred_cols)
        sample_pdf = spark_build.stratified_sample(
            df_leaf, value_col, sample_cols,
            {i: k for i, k in enumerate(k_per_leaf) if k > 0}, seed=seed,
        )
        samples: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for lid, grp in sample_pdf.groupby(spark_build.LEAF_COL):
            samples[int(lid)] = (
                grp[sample_cols].to_numpy(dtype=np.float64),
                grp[value_col].to_numpy(dtype=np.float64),
            )
        return cls(
            root, leaf_nodes, samples, pred_cols, value_col, n_total,
            sample_cols=sample_cols,
            build_seconds=time.perf_counter() - t0, assign=assign,
        )

    # -- query processing ------------------------------------------------

    def answer(self, q: Query) -> AqpResult:
        lo, hi, external = q.box(self.pred_cols)
        demote = external or not self.use_aggregates
        covered, partial = mcf(
            self.root, lo, hi, zero_var_as_covered=(q.agg == "avg" and not demote)
        )
        if demote:
            # Coverage cannot be certified — every candidate node must be
            # answered from its samples; descend covered nodes to leaves.
            demoted: list[Node] = []
            for n in covered:
                demoted.extend(n.leaves())
            partial = partial + demoted
            covered = []
        cov_stats = [n.stats for n in covered]
        par_stats = [n.stats for n in partial]
        lb, ub = hard_bounds(q.agg, cov_stats, par_stats) if not demote else (float("nan"),) * 2
        n_partial = sum(n.stats.count for n in partial)
        skipped = 1.0 - n_partial / self.n_total if self.n_total else 0.0
        # One (leaf, sampled values, predicate matches) stratum per partial leaf.
        no_sample = (np.empty((0, len(self.sample_cols))), np.empty(0))
        strata = []
        for n in partial:
            x, v = self.samples.get(n.leaf_id, no_sample)
            strata.append((n, v, q.sample_mask(x, self.sample_cols)))
        processed = sum(v.size for _, v, _ in strata)

        if q.agg in ("sum", "count"):
            est = sum(getattr(s, q.agg) for s in cov_stats)
            var = 0.0
            for n, v, m in strata:
                if v.size == 0:
                    # No sample in this stratum: fall back to the hard-bound
                    # midpoint with the bound half-width as the deviation.
                    half = getattr(n.stats, q.agg) / 2.0
                    est += half
                    var += half * half
                    continue
                e, vr, _ = stratum_estimate(q.agg, v, m, n.stats.count)
                est += e
                var += vr
            return AqpResult(est, LAMBDA_99 * float(np.sqrt(var)), lb, ub, processed, skipped)

        if q.agg == "avg":
            means, variances, weights = [], [], []
            for s in cov_stats:
                if s.count > 0:
                    means.append(s.avg)
                    variances.append(0.0)
                    weights.append(s.count)
            for n, v, m in strata:
                if v.size == 0:
                    continue
                e, vr, k_pred = stratum_estimate("avg", v, m, n.stats.count)
                if k_pred == 0:
                    continue
                means.append(e)
                variances.append(vr)
                # Estimated matching count N_i·k_pred/K_i, not the full
                # partition size (DESIGN.md §5).
                weights.append(n.stats.count * k_pred / v.size)
            if not weights:
                return AqpResult(float("nan"), float("nan"), lb, ub, processed, skipped)
            w = np.asarray(weights) / sum(weights)
            est = float(np.dot(w, means))
            var = float(np.dot(w * w, variances))
            return AqpResult(est, LAMBDA_99 * float(np.sqrt(var)), lb, ub, processed, skipped)

        # MIN / MAX: exact over covered nodes, sampled over partial leaves;
        # the deterministic bounds are the uncertainty quantification.
        cand = []
        for s in cov_stats:
            cand.append(s.min if q.agg == "min" else s.max)
        for _, v, m in strata:
            if m.any():
                cand.append(float(v[m].min() if q.agg == "min" else v[m].max()))
        if not cand:
            return AqpResult(float("nan"), float("nan"), lb, ub, processed, skipped)
        est = float(min(cand) if q.agg == "min" else max(cand))
        half = (ub - lb) / 2.0 if np.isfinite(ub) and np.isfinite(lb) else float("nan")
        return AqpResult(est, half, lb, ub, processed, skipped)

    # -- dynamic updates (§4.5) -----------------------------------------

    def _paths(self) -> dict[int, list[Node]]:
        """leaf_id → [root, …, leaf]; built once, O(tree) time."""
        if self._leaf_paths is None:
            paths: dict[int, list[Node]] = {}

            def walk(node: Node, trail: list[Node]) -> None:
                trail = trail + [node]
                if node.is_leaf:
                    paths[node.leaf_id] = trail
                for c in node.children:
                    walk(c, trail)

            walk(self.root, [])
            self._leaf_paths = paths
        return self._leaf_paths

    def insert(self, row: dict[str, float], rng: np.random.Generator | None = None) -> int:
        """Insert one tuple, maintaining statistical consistency (§4.5).

        The tuple is routed to its leaf (O(height) via the stored
        assigner), every node on the root→leaf path has its SUM/COUNT/
        MIN/MAX and predicate extents updated in O(1), and the leaf's
        stratified sample is maintained with Reservoir sampling [41]:
        the new tuple replaces a uniformly random sampled tuple with
        probability K_i/N_i. Returns the leaf id.
        """
        if self.assign is None:
            raise RuntimeError("synopsis was constructed without an assigner")
        rng = rng or np.random.default_rng()
        x = np.array([[row[c] for c in self.pred_cols]], dtype=np.float64)
        value = float(row[self.value_col])
        lid = int(self.assign(x)[0])
        delta = PartStats(value, 1.0, value, value)
        for node in self._paths()[lid]:
            node.stats = node.stats.merge(delta)
            node.pred_min = np.minimum(node.pred_min, x[0])
            node.pred_max = np.maximum(node.pred_max, x[0])
        self.n_total += 1
        n_i = self._seen.get(lid)
        if n_i is None:
            n_i = self.leaves[lid].stats.count - 1  # before this insert
        n_i += 1
        self._seen[lid] = int(n_i)
        sx, sv = self.samples.get(lid, (np.empty((0, len(self.sample_cols))), np.empty(0)))
        k_i = len(sv)
        if k_i and rng.random() < k_i / n_i:
            j = int(rng.integers(0, k_i))
            sx = sx.copy()
            sv = sv.copy()
            sx[j] = [row[c] for c in self.sample_cols]
            sv[j] = value
            self.samples[lid] = (sx, sv)
        return lid

    # -- group-by (§4.5 extensions) -------------------------------------

    def answer_groupby(
        self, agg: str, group_col: str, groups, base: Query | None = None
    ) -> dict[float, AqpResult]:
        """GROUP BY over a (dictionary-encoded) categorical column: each
        group value becomes an equality predicate conjoined with ``base``
        and answered independently (§4.5)."""
        out = {}
        for g in groups:
            cols = (group_col,)
            lo = (float(g),)
            hi = (float(g),)
            if base is not None:
                cols += base.cols
                lo += base.lo
                hi += base.hi
            out[g] = self.answer(Query(agg, cols, lo, hi))
        return out

    # -- accounting ------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return sum(len(v) for _, v in self.samples.values())

    @property
    def storage_bytes(self) -> int:
        # ST keeps no tree — only per-stratum sizes and the samples.
        n_nodes = self.root.n_nodes if self.use_aggregates else len(self.leaves)
        return synopsis_bytes(
            n_nodes, len(self.pred_cols), self.n_samples, len(self.sample_cols) + 1
        )

    def mean_partial_fraction(self, queries: list[Query]) -> float:
        """Average fraction of tuples in partially-overlapped leaves over a
        workload — the ESS calibration quantity (§5.1.4)."""
        fracs = []
        for q in queries:
            lo, hi, _ = q.box(self.pred_cols)
            _, partial = mcf(self.root, lo, hi)
            fracs.append(sum(n.stats.count for n in partial) / self.n_total)
        return float(np.mean(fracs)) if fracs else 0.0


def allocate_budget(counts: list[float], total: int, alloc: str) -> list[int]:
    """Per-leaf sample sizes K_i from a total budget.

    'equal' gives every non-empty leaf budget/B capped at N_i (the paper's
    ST/PASS allocation); 'proportional' allocates by N_i/N.
    """
    counts = [int(c) for c in counts]
    nonempty = [i for i, c in enumerate(counts) if c > 0]
    out = [0] * len(counts)
    if not nonempty or total <= 0:
        return out
    if alloc == "equal":
        per = max(1, round(total / len(nonempty)))
        for i in nonempty:
            out[i] = min(per, counts[i])
    elif alloc == "proportional":
        n = sum(counts)
        for i in nonempty:
            out[i] = min(counts[i], max(1, round(total * counts[i] / n)))
    else:
        raise ValueError(f"unknown alloc {alloc!r}")
    return out


def _tree_from_kd(kdnode: KDNode, leaf_nodes: list[Node]) -> Node:
    """Mirror the k-d tree topology as aggregate Nodes (leaves carry the
    Spark-computed stats; internals are merged bottom-up)."""
    if kdnode.is_leaf:
        return leaf_nodes[kdnode.leaf_id]
    children = [_tree_from_kd(c, leaf_nodes) for c in kdnode.children]
    return merge_nodes(children)
