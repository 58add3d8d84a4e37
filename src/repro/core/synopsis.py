"""The PASS synopsis: build from a Spark DataFrame, answer queries (§3).

Query processing follows §3.3 exactly: MCF index lookup → exact partial
aggregation over covered nodes → stratified-sample estimation over
partially-overlapped leaves → combined estimate, CLT confidence interval
and deterministic hard bounds. The 0-variance rule (§3.4) is applied for
AVG queries.

Two builders:

* :meth:`PassSynopsis.build_1d` — single predicate column, leaf
  partitioning from the ADP dynamic program (or equal-depth for the EQ
  ablation), balanced bottom-up tree of a fixed fanout, the sample budget
  split equally over the non-empty leaves;
* :meth:`PassSynopsis.build_kd` — multi-dimensional KD-PASS (§4.4) with
  max-variance leaf expansion.

Workload shift (§5.4.1) is supported: a query may constrain columns the
synopsis was not built on; those constraints disable exact coverage (every
non-empty leaf that overlaps the query is answered from its samples) but the
shared attributes still drive data skipping. The same sample-only path
answers every query of a synopsis built without aggregates: ST, and US or
VerdictDB-lite, a single leaf indexed on no column
(:mod:`repro.baselines.uniform`).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from . import spark_build
from .kdtree import KDNode, KDRouter, KDTree
from .partitioner import ADP, Router1D, assign_partitions, cuts_to_boundaries, equal_depth_cuts
from .query import Query
from .tree import Node, NodeStats, Tree, build_tree, mcf, overlapping_leaves, synopsis_bytes
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
        assign: Router1D | KDRouter | None = None,
        seed: int = 0,
    ) -> None:
        """``use_aggregates=False`` turns the structure into plain
        stratified sampling (the ST baseline): covered nodes are answered
        from their samples like any other stratum and no exact partial
        aggregation, 0-variance rule, or hard bounds are used. With no
        ``pred_cols`` and one leaf it is uniform sampling (US,
        VerdictDB-lite): every query constrains a column outside the index,
        so the one stratum's sample answers it (§5.4.1). ``seed`` seeds the
        generator of the inserts that are given none."""
        self.use_aggregates = use_aggregates
        #: the partitioning's leaf router, None for a synopsis that takes no
        #: inserts: ``assign(x)`` gives the leaf id of every row of an (n, d)
        #: batch, ``assign.leaf(point)`` that of one row, a list of d floats.
        self.assign = assign
        self._rng = np.random.default_rng(seed)
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
        fanout: int = 2,
        sample_cols: list[str] | None = None,
        seed: int = 0,
    ) -> "PassSynopsis":
        t0 = time.perf_counter()
        rows, rate = spark_build.optimization_sample(df, value_col, [pred_col], m_opt, seed=seed)
        a = rows[value_col].to_numpy(dtype=np.float64)[:m_opt]
        c_all = rows[pred_col].to_numpy(dtype=np.float64)
        c = c_all[:m_opt]
        if partitioner == "adp":
            cuts, _ = ADP(a, k_partitions).cuts(k_partitions)
        elif partitioner == "eq":
            cuts = equal_depth_cuts(len(a), k_partitions)
        else:
            raise ValueError(f"unknown partitioner {partitioner!r}")
        boundaries = cuts_to_boundaries(c, cuts)
        df_leaf = spark_build.with_leaf_1d(df, pred_col, boundaries)
        return cls._finish(
            df_leaf, [pred_col], value_col, len(boundaries) + 1, None, sample_total,
            "equal", fanout, sample_cols, seed, t0, rate,
            assign_partitions(_held_out(c_all, m_opt, rate), boundaries), Router1D(boundaries),
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
        rows, rate = spark_build.optimization_sample(df, value_col, pred_cols, m_opt, seed=seed)
        x = rows[pred_cols].to_numpy(dtype=np.float64)
        a = rows[value_col].to_numpy(dtype=np.float64)[:m_opt]
        kd = KDTree(x[:m_opt], a, k_leaves, seed=seed)
        df_leaf = spark_build.with_leaf_fn(df, pred_cols, kd)
        return cls._finish(
            df_leaf, pred_cols, value_col, kd.n_leaves, kd, sample_total,
            alloc, 2, sample_cols, seed, t0, rate, kd(_held_out(x, m_opt, rate)), kd.router(),
        )

    @classmethod
    def _finish(
        cls, df_leaf, pred_cols, value_col, n_leaves, kd, sample_total,
        alloc, fanout, sample_cols, seed, t0, rate, held_leaves, assign,
    ) -> "PassSynopsis":
        df_leaf = spark_build.valued(df_leaf, value_col)
        sample_cols = list(sample_cols) if sample_cols is not None else list(pred_cols)
        drawn = [*sample_cols, value_col]
        # One job: the leaf aggregates, and the candidate rows of the samples.
        thresholds = sample_thresholds(rate, held_leaves, n_leaves, sample_total, alloc)
        agg_pdf = spark_build.leaf_aggregates(df_leaf, value_col, pred_cols, (drawn, thresholds, seed))
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
            build_seconds=time.perf_counter() - t0, assign=assign, seed=seed,
        )

    # -- query processing ------------------------------------------------

    def answer(self, q: Query) -> AqpResult:
        """Answer ``q``: numpy over the tree's nodes and the sampled rows
        (MCF, sample masks, per-stratum sums), Python floats over the few
        per-node scalars that end the query (bounds, the AVG combine, the skip
        rate), where numpy's fixed cost per call is larger than the work."""
        lo, hi, external = q.box(self.pred_cols)
        nodes = self.tree.nodes
        exact = self.use_aggregates and not external
        if exact:
            covered, partial = mcf(self.tree, lo, hi)
            lb, ub = hard_bounds(q.agg, nodes, covered, partial)
        else:
            # Coverage cannot be certified (§5.4.1), or there are no aggregates
            # to certify it with: every non-empty leaf that overlaps the query
            # is answered from its samples.
            partial = overlapping_leaves(self.tree, lo, hi)
            covered = partial[:0]
            lb = ub = math.nan
        n_strata = nodes.count[partial]
        n_list = n_strata.tolist()
        skipped = 1.0 - sum(n_list) / self.n_total if self.n_total else 0.0
        # The sampled rows of every partial leaf, leaf after leaf.
        drawn = [self.samples.get(lid) for lid in self.tree.leaf_id[partial].tolist()]
        unsampled = None in drawn
        if unsampled or not drawn:
            no_sample = (np.empty((0, len(self.sample_cols))), np.empty(0))
            drawn = [no_sample if d is None else d for d in drawn]
        sizes = [len(v) for _, v in drawn]
        if len(drawn) == 1:  # one stratum: its arrays as they are, not a copy
            x, v = drawn[0]
        else:
            x, v = map(np.concatenate, zip(*drawn)) if drawn else no_sample
        m = q.sample_mask(x, self.sample_cols)
        processed = int(v.size)

        if q.agg in ("sum", "count"):
            e, vr, _ = stratum_estimate(q.agg, v, m, sizes, n_strata)
            # np.add.reduce, not Python's sum: the same order as numpy's sums.
            est = np.add.reduce(getattr(nodes, q.agg)[covered]) + np.add.reduce(e)
            var = np.add.reduce(vr)
            if unsampled:
                # A stratum with no sample falls back to the midpoint of its
                # hard-bound range, with the range half-width as the deviation.
                idle = partial[np.array(sizes) == 0]
                if q.agg == "sum":
                    r_lo, r_hi = map(np.array, sum_range(nodes, idle))
                else:
                    r_lo, r_hi = np.zeros(idle.size), nodes.count[idle]
                half = (r_hi - r_lo) / 2.0
                est += np.add.reduce(r_lo + half)
                var += np.add.reduce(half * half)
            return AqpResult(float(est), LAMBDA_99 * math.sqrt(var), lb, ub, processed, skipped)

        if q.agg == "avg":
            e, vr, k_pred = stratum_estimate("avg", v, m, sizes, n_strata)
            # Covered nodes weigh their exact count and add their exact SUM; a
            # partial leaf weighs its estimated matching count N_i·k_pred/K_i,
            # not the full partition size (DESIGN.md §5).
            weight = sum(nodes.count[covered].tolist(), 0.0)
            # §3.4: a partial leaf whose values are all equal has that exact
            # mean. Without certified coverage the rule is not used: NaN
            # equals nothing.
            lows = nodes.min[partial].tolist()
            highs = nodes.max[partial].tolist() if exact else [math.nan] * len(lows)
            used = []
            for n, k, kp, e_i, v_i, low, high in zip(
                n_list, sizes, k_pred.tolist(), e.tolist(), vr.tolist(), lows, highs
            ):
                if kp:
                    w = n * kp / k
                    weight += w
                    used.append((w, low, 0.0) if low == high else (w, e_i, v_i))
            if not weight:
                return AqpResult(math.nan, math.nan, lb, ub, processed, skipped)
            # Normalised weights: one stratum alone gives its own estimate.
            est = sum(nodes.sum[covered].tolist(), 0.0) / weight
            var = 0.0
            for w, e_i, v_i in used:
                w /= weight
                est += w * e_i
                var += w * w * v_i
            return AqpResult(est, LAMBDA_99 * math.sqrt(var), lb, ub, processed, skipped)

        # MIN / MAX: exact over covered nodes, sampled over partial leaves;
        # the deterministic bounds are the uncertainty quantification.
        cand = np.concatenate([getattr(nodes, q.agg)[covered], v[m]])
        if not cand.size:
            return AqpResult(math.nan, math.nan, lb, ub, processed, skipped)
        half = (ub - lb) / 2.0 if math.isfinite(ub) and math.isfinite(lb) else math.nan
        return AqpResult(float(cand.min() if q.agg == "min" else cand.max()), half, lb, ub, processed, skipped)

    # -- dynamic updates (§4.5) -----------------------------------------

    def insert(
        self, row: dict[str, float | None], rng: np.random.Generator | None = None
    ) -> int | None:
        """Insert one tuple, maintaining statistical consistency (§4.5).

        The row is read as floats, a NULL (None) predicate value as NaN, and
        routed to its leaf by the router's scalar ``leaf``. Every node on the
        stored root→leaf path has its SUM and COUNT updated. Every ancestor
        encloses its leaf (DESIGN.md §3.8), so a tuple inside the leaf's value
        range and predicate box widens no node: MIN/MAX and the extents are
        written along the path only where the tuple lies outside the leaf's.
        A NULL predicate value counts the row in its leaf's SUM and COUNT but
        widens no extent, as the build's Spark MIN and MAX skip NULLs. The
        leaf's stratified sample is maintained with Reservoir sampling [41]:
        the new tuple replaces a uniformly random sampled tuple with
        probability K_i/N_i, N_i the leaf's COUNT with the tuple, drawn from
        ``rng``, or from the synopsis's own generator, seeded by the build,
        when ``rng`` is None.

        Returns the leaf id. A tuple whose value is NULL or NaN returns None
        and leaves the synopsis as it was, as the build leaves such rows out.
        """
        if self.assign is None:
            raise RuntimeError("synopsis was constructed without an assigner")
        value = row[self.value_col]
        value = math.nan if value is None else float(value)
        if math.isnan(value):
            return None
        x = [math.nan if (p := row[c]) is None else float(p) for c in self.pred_cols]
        lid = self.assign.leaf(x)
        nodes = self.tree.nodes
        path = self.tree.paths[lid]
        leaf = path[-1]
        nodes.sum[path] += value
        nodes.count[path] += 1.0
        if not value >= nodes.min[leaf]:
            nodes.min[path] = np.minimum(nodes.min[path], value)
        if not value <= nodes.max[leaf]:
            nodes.max[path] = np.maximum(nodes.max[path], value)
        # A NULL (NaN) coordinate widens no extent, as the build's MIN and MAX
        # skip NULLs: NaN compares false, and fmin/fmax skip it.
        pmin, pmax = nodes.pmin[leaf].tolist(), nodes.pmax[leaf].tolist()
        if any(p < lo or p > hi for lo, p, hi in zip(pmin, x, pmax)):
            nodes.pmin[path] = np.fmin(nodes.pmin[path], x)
            nodes.pmax[path] = np.fmax(nodes.pmax[path], x)
        self.n_total += 1
        n_i = nodes.count.item(leaf)  # the leaf's rows, this one included
        sample = self.samples.get(lid)
        k_i = 0 if sample is None else len(sample[1])
        if rng is None:
            rng = self._rng
        if k_i and rng.random() < k_i / n_i:
            j = int(rng.integers(0, k_i))
            sx, sv = sample[0].copy(), sample[1].copy()
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
        and answered independently (§4.5).

        Each group's :class:`AqpResult` is that equality query's answer:
        estimate, 99% CI and hard bounds. It is exact only where the group's
        value fills whole leaves; a value that shares a leaf with other
        values is estimated from that leaf's stratified sample."""
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
        if self.use_aggregates:
            n_nodes = self.tree.n_nodes
        elif self.pred_cols:  # ST keeps no tree — only per-stratum sizes and the samples.
            n_nodes = len(self.leaves)
        else:  # US: one stratum, of size n_total, keeps only its sample.
            n_nodes = 0
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


def leaf_size_bounds(
    rate: float, held_leaves: np.ndarray, n_leaves: int
) -> tuple[np.ndarray, np.ndarray]:
    """Low and high estimates (N_lo, N_hi) of every leaf's size N_i, from the
    held-out rows of :func:`spark_build.optimization_sample`.

    ``held_leaves`` is the leaf id of each held-out row, m′_i of them in leaf
    i, and every row of the frame is held out with probability ``rate``. With
    λ±(m) = m + z²/2 ± z·√(m + z²/4), the Poisson score bounds at a fixed
    z = 2, N_lo = λ−(m′_i)/rate and N_hi = λ+(m′_i)/rate, taken as 0 for a
    leaf with no held-out row. As λ−(0) = 0, such a leaf has N_lo = 0 too.
    """
    m = np.bincount(held_leaves, minlength=n_leaves).astype(np.float64)
    z = 2.0
    spread = z * np.sqrt(m + z * z / 4)
    lo = (m + z * z / 2 - spread) / rate
    hi = np.where(m > 0, (m + z * z / 2 + spread) / rate, 0.0)
    return lo, hi


def sample_thresholds(
    rate: float, held_leaves: np.ndarray, n_leaves: int, total: int, alloc: str
) -> np.ndarray:
    """Per-leaf draw thresholds of the one-scan stratified sample, set before
    the leaf sizes N_i are known.

    K_i is the budget allocated over the high estimates N_hi of
    :func:`leaf_size_bounds`, with the leaves that hold no held-out row
    counted as empty (fewer leaves, more each). Then t_i, the
    :func:`spark_build.candidate_threshold` of K_i and N_lo, keeps about
    K_i + 4√K_i + 10 rows or more whenever N_i ≥ N_lo; a leaf with no
    held-out row gets t_i = 1.

    The leaves are sized from rows the optimiser never saw. ADP and the k-d
    growth choose their cuts from the optimisation sample, so a leaf tends
    to be cut around a stretch where those rows happen to lie dense, and
    their count in it overstates N_i (DESIGN.md §3.11). The held-out rows
    fall into the leaves independently of the cuts, so m′_i is a binomial
    count and N_i < N_lo is about as rare as a Poisson bound at z = 2 makes
    it. Nothing rests on the estimate: a leaf that comes back short is
    scanned again, so the sample does not depend on the thresholds.
    """
    lo, hi = leaf_size_bounds(rate, held_leaves, n_leaves)
    k = np.array(allocate_budget(hi.tolist(), total, alloc), dtype=np.float64)
    return spark_build.candidate_threshold(k, lo)


def _held_out(rows: np.ndarray, m: int, rate: float) -> np.ndarray:
    """The rows of :func:`spark_build.optimization_sample` that size the
    leaves: those after the optimiser's m, or every row when every row was
    drawn (rate 1)."""
    return rows if rate == 1.0 else rows[m:]


def _tree_from_kd(kdroot: KDNode, leaves: NodeStats) -> Tree:
    """Mirror the k-d tree topology as an aggregate tree (leaves carry the
    Spark-computed stats; internals are merged bottom-up)."""
    return Tree(leaves, kdroot, lambda n: n.children, lambda n: n.leaf_id)
