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
from pyspark.sql import functions as F

from . import spark_build
from .kdtree import KDNode, KDTree
from .partitioner import ADP, assign_partitions, cuts_to_boundaries, equal_depth_cuts
from .query import Query
from .tree import Node, NodeStats, Tree, build_tree, mcf, synopsis_bytes
from .variance import LAMBDA_99, hard_bounds, stratum_estimate, sum_range


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
        tree: Tree,
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
        self._seen: dict[int, int] = {}  # reservoir counters per leaf
        self.tree = tree
        #: read-only views of the root and of every leaf, by leaf id.
        self.root = Node(tree, 0)
        self.leaves = tree.leaves()
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
        n_rows = df.count()
        opt_leaves = None
        if boundaries is None:
            opt = spark_build.optimization_sample(
                df, value_col, [pred_col], m_opt, n_rows, seed=seed
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
            opt_leaves = assign_partitions(c, boundaries)
        df_leaf = spark_build.with_leaf_1d(df, pred_col, boundaries)
        b = np.asarray(boundaries, dtype=np.float64)
        return cls._finish(
            df_leaf, [pred_col], value_col, len(boundaries) + 1, None, sample_total,
            alloc, fanout, sample_cols, seed, t0, n_rows, opt_leaves,
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
        n_rows = df.count()
        opt = spark_build.optimization_sample(df, value_col, pred_cols, m_opt, n_rows, seed=seed)
        x = opt[pred_cols].to_numpy(dtype=np.float64)
        a = opt[value_col].to_numpy(dtype=np.float64)
        kd = KDTree(x, a, k_leaves, seed=seed)
        df_leaf = spark_build.with_leaf_fn(df, pred_cols, kd)
        return cls._finish(
            df_leaf, pred_cols, value_col, kd.n_leaves, kd, sample_total,
            alloc, 2, sample_cols, seed, t0, n_rows, kd.assign(x),
            assign=kd.assign,
        )

    @classmethod
    def _finish(
        cls, df_leaf, pred_cols, value_col, n_leaves, kd, sample_total,
        alloc, fanout, sample_cols, seed, t0, n_rows, opt_leaves, assign,
    ) -> "PassSynopsis":
        # A row whose value is NULL has nothing to aggregate: it is left out
        # of the leaf aggregates, the samples and the row total alike.
        df_leaf = df_leaf.where(F.col(value_col).isNotNull())
        sample_cols = list(sample_cols) if sample_cols is not None else list(pred_cols)
        drawn = [*sample_cols, value_col]
        # One job: the leaf aggregates, and the candidate rows of the samples.
        # Without an optimisation sample there is nothing to set thresholds
        # from: the aggregates come alone, and the sample from one more scan.
        sample = None
        if opt_leaves is not None:
            thresholds = sample_thresholds(n_rows, opt_leaves, n_leaves, sample_total, alloc)
            sample = (drawn, thresholds, seed)
        agg_pdf = spark_build.leaf_aggregates(df_leaf, value_col, pred_cols, sample)
        leaves = spark_build.leaves_from_aggregates(agg_pdf, pred_cols, n_leaves)
        if kd is None:
            tree = build_tree(leaves, fanout=fanout)
        else:
            tree = _tree_from_kd(kd.root, leaves)
        k_per_leaf = np.array(allocate_budget(leaves.count.tolist(), sample_total, alloc))
        sample_pdf = spark_build.stratified_sample(df_leaf, drawn, agg_pdf, k_per_leaf, seed)
        # The rows come leaf by leaf, so each leaf's sample is one slice.
        lids, start = np.unique(sample_pdf[spark_build.LEAF_COL].to_numpy(), return_index=True)
        end = np.append(start[1:], len(sample_pdf))
        x = sample_pdf[sample_cols].to_numpy(dtype=np.float64)
        v = sample_pdf[value_col].to_numpy(dtype=np.float64)
        samples = {int(i): (x[a:b], v[a:b]) for i, a, b in zip(lids, start, end)}
        return cls(
            tree, samples, pred_cols, value_col, float(leaves.count.sum()),
            sample_cols=sample_cols,
            build_seconds=time.perf_counter() - t0, assign=assign,
        )

    # -- query processing ------------------------------------------------

    def answer(self, q: Query) -> AqpResult:
        lo, hi, external = q.box(self.pred_cols)
        demote = external or not self.use_aggregates
        nodes = self.tree.nodes
        covered, partial = mcf(
            self.tree, lo, hi, zero_var_as_covered=(q.agg == "avg" and not demote)
        )
        if demote:
            # Coverage cannot be certified — every non-empty leaf under the
            # frontier is answered from its samples.
            under = self.tree.cover_count(covered) > 0
            under[partial] = True
            partial = np.flatnonzero(under & (self.tree.leaf_id >= 0) & (nodes.count > 0))
            covered = partial[:0]
            lb = ub = float("nan")
        else:
            lb, ub = hard_bounds(q.agg, nodes, covered, partial)
        n_strata = nodes.count[partial]
        skipped = 1.0 - float(n_strata.sum()) / self.n_total if self.n_total else 0.0
        # The sampled rows of every partial leaf, leaf after leaf.
        no_sample = (np.empty((0, len(self.sample_cols))), np.empty(0))
        drawn = [self.samples.get(lid, no_sample) for lid in self.tree.leaf_id[partial].tolist()]
        sizes = np.array([len(v) for _, v in drawn], dtype=np.int64)
        x = np.concatenate([x for x, _ in drawn]) if drawn else no_sample[0]
        v = np.concatenate([v for _, v in drawn]) if drawn else no_sample[1]
        m = q.sample_mask(x, self.sample_cols)
        processed = int(v.size)

        if q.agg in ("sum", "count"):
            e, vr, _ = stratum_estimate(q.agg, v, m, sizes, n_strata)
            est = getattr(nodes, q.agg)[covered].sum() + e.sum()
            var = vr.sum()
            idle = partial[sizes == 0]
            if idle.size:
                # A stratum with no sample falls back to the midpoint of its
                # hard-bound range, with the range half-width as the deviation.
                if q.agg == "sum":
                    r_lo, r_hi = sum_range(nodes, idle)
                else:
                    r_lo, r_hi = np.zeros(idle.size), nodes.count[idle]
                half = (r_hi - r_lo) / 2.0
                est += (r_lo + half).sum()
                var += (half * half).sum()
            return AqpResult(float(est), LAMBDA_99 * float(np.sqrt(var)), lb, ub, processed, skipped)

        if q.agg == "avg":
            e, vr, k_pred = stratum_estimate("avg", v, m, sizes, n_strata)
            use = k_pred > 0
            means = np.concatenate([nodes.sum[covered] / nodes.count[covered], e[use]])
            variances = np.concatenate([np.zeros(covered.size), vr[use]])
            # Covered nodes weigh their exact count; a partial leaf its
            # estimated matching count N_i·k_pred/K_i, not the full partition
            # size (DESIGN.md §5).
            weights = np.concatenate([nodes.count[covered], n_strata[use] * k_pred[use] / sizes[use]])
            if not weights.size:
                return AqpResult(float("nan"), float("nan"), lb, ub, processed, skipped)
            w = weights / weights.sum()
            est = float(np.dot(w, means))
            var = float(np.dot(w * w, variances))
            return AqpResult(est, LAMBDA_99 * float(np.sqrt(var)), lb, ub, processed, skipped)

        # MIN / MAX: exact over covered nodes, sampled over partial leaves;
        # the deterministic bounds are the uncertainty quantification.
        pick = np.min if q.agg == "min" else np.max
        cand = np.concatenate([getattr(nodes, q.agg)[covered], v[m]])
        if not cand.size:
            return AqpResult(float("nan"), float("nan"), lb, ub, processed, skipped)
        half = (ub - lb) / 2.0 if np.isfinite(ub) and np.isfinite(lb) else float("nan")
        return AqpResult(float(pick(cand)), half, lb, ub, processed, skipped)

    # -- dynamic updates (§4.5) -----------------------------------------

    def insert(self, row: dict[str, float], rng: np.random.Generator | None = None) -> int:
        """Insert one tuple, maintaining statistical consistency (§4.5).

        The tuple is routed to its leaf (O(height) via the stored
        assigner), every node on the stored root→leaf path has its SUM/
        COUNT/MIN/MAX and predicate extents updated, and the leaf's
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
        nodes = self.tree.nodes
        path = self.tree.paths[lid]
        leaf = path[-1]
        nodes.sum[path] += value
        nodes.count[path] += 1.0
        # Every ancestor's MIN/MAX encloses the leaf's, so a value inside the
        # leaf's range changes neither on any node (written to let NaN through).
        if not value >= nodes.min[leaf]:
            nodes.min[path] = np.minimum(nodes.min[path], value)
        if not value <= nodes.max[leaf]:
            nodes.max[path] = np.maximum(nodes.max[path], value)
        nodes.pmin[path] = np.minimum(nodes.pmin[path], x)
        nodes.pmax[path] = np.maximum(nodes.pmax[path], x)
        self.n_total += 1
        n_i = self._seen.get(lid)
        if n_i is None:
            n_i = nodes.count[leaf] - 1  # before this insert
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
        n_nodes = self.tree.n_nodes if self.use_aggregates else len(self.leaves)
        return synopsis_bytes(
            n_nodes, len(self.pred_cols), self.n_samples, len(self.sample_cols) + 1
        )

    def mean_partial_fraction(self, queries: list[Query]) -> float:
        """Average fraction of tuples in partially-overlapped leaves over a
        workload — the ESS calibration quantity (§5.1.4)."""
        fracs = []
        for q in queries:
            lo, hi, _ = q.box(self.pred_cols)
            _, partial = mcf(self.tree, lo, hi)
            fracs.append(self.tree.nodes.count[partial].sum() / self.n_total)
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


def sample_thresholds(
    n_rows: int, opt_leaves: np.ndarray, n_leaves: int, total: int, alloc: str
) -> np.ndarray:
    """Per-leaf draw thresholds of the one-scan stratified sample, set before
    the leaf sizes N_i are known.

    ``n_rows`` is the frame's row count and ``opt_leaves`` the leaf id of
    each of the M optimisation-sample rows, m_i of them in leaf i. A
    heuristic sizes the candidate set: with λ±(m) = m + z²/2 ± z·√(m + z²/4),
    the Poisson score bounds at a fixed z = 2, N_lo = (n/M)·λ−(m_i) is taken
    as a low estimate of N_i, and K_i as the budget allocated over the high
    estimates (n/M)·λ+(m_i), with the leaves that hold no optimisation-sample
    row counted as empty (fewer leaves, more each). Then
    t_i = min(1, (K + 4√K + 10)/N_lo) keeps about K_i + 4√K_i + 10 rows or
    more whenever N_i ≥ N_lo. As λ−(0) = 0, a leaf with no
    optimisation-sample row gets t_i = 1.

    The bounds would hold if m_i were a Poisson count, but ADP and k-d cuts
    sit at optimisation-sample values, which ties m_i to the cuts: on the
    benchmark shapes some leaves hold 3–4× fewer rows than N_lo. Nothing
    rests on the estimate: a leaf that comes back short is scanned again, so
    the sample does not depend on the thresholds.
    """
    m = np.bincount(opt_leaves, minlength=n_leaves).astype(np.float64)
    z = 2.0
    spread = z * np.sqrt(m + z * z / 4)
    scale = n_rows / max(1, len(opt_leaves))
    lo = (m + z * z / 2 - spread) * scale
    hi = np.where(m > 0, (m + z * z / 2 + spread) * scale, 0.0)
    k = np.array(allocate_budget(hi.tolist(), total, alloc), dtype=np.float64)
    return np.minimum(1.0, (k + 4.0 * np.sqrt(k) + 10.0) / np.maximum(lo, 1.0))


def _tree_from_kd(kdroot: KDNode, leaves: NodeStats) -> Tree:
    """Mirror the k-d tree topology as an aggregate tree (leaves carry the
    Spark-computed stats; internals are merged bottom-up)."""
    return Tree(leaves, kdroot, lambda n: n.children, lambda n: n.leaf_id)
