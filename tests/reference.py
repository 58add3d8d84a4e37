"""Brute-force references for the vectorised tree and estimator code, and a
Spark-free way to build a :class:`PassSynopsis` from numpy arrays."""
from __future__ import annotations

import numpy as np

from repro.core.synopsis import PassSynopsis
from repro.core.tree import NodeStats, Tree, build_tree


def leaf_stats(x: np.ndarray, v: np.ndarray, lids: np.ndarray, n_leaves: int) -> NodeStats:
    """Exact per-leaf aggregates of rows ``x``/``v`` assigned to ``lids``,
    one row at a time."""
    leaves = NodeStats.empty(n_leaves, x.shape[1])
    for row, val, lid in zip(x, v, lids):
        leaves.sum[lid] += val
        leaves.count[lid] += 1
        leaves.min[lid] = min(leaves.min[lid], val)
        leaves.max[lid] = max(leaves.max[lid], val)
        leaves.pmin[lid] = np.minimum(leaves.pmin[lid], row)
        leaves.pmax[lid] = np.maximum(leaves.pmax[lid], row)
    return leaves


def children(tree: Tree, i: int) -> list[int]:
    """Child node indices of node ``i`` (pre-order: the first child follows
    its parent, each next child follows its elder sibling's subtree)."""
    out, c = [], i + 1
    while c < tree.end[i]:
        out.append(c)
        c = int(tree.end[c])
    return out


def classify_one(nodes: NodeStats, i: int, lo, hi) -> str:
    """The covered/partial/none rule for one node, written out per node."""
    if nodes.count[i] == 0:
        return "none"
    if np.any(nodes.pmax[i] < lo) or np.any(nodes.pmin[i] > hi):
        return "none"
    if np.all(lo <= nodes.pmin[i]) and np.all(nodes.pmax[i] <= hi):
        return "covered"
    return "partial"


def mcf_recursive(tree: Tree, lo, hi, zero_var_as_covered: bool = False):
    """Algorithm 1 as a depth-first search from the root: stop at covered
    (or, with the §3.4 rule, zero-variance partial) nodes, descend partial
    ones, keep partial leaves. Returns two node-index lists in visit order."""
    nodes = tree.nodes
    covered: list[int] = []
    partial: list[int] = []

    def visit(i: int) -> None:
        cls = classify_one(nodes, i, lo, hi)
        if cls == "none":
            return
        if cls == "covered" or (
            zero_var_as_covered and nodes.count[i] > 0 and nodes.min[i] == nodes.max[i]
        ):
            covered.append(i)
            return
        kids = children(tree, i)
        if not kids:
            partial.append(i)
        for c in kids:
            visit(c)

    visit(0)
    return covered, partial


def stratum_estimate_one(agg: str, values: np.ndarray, mask: np.ndarray, n_stratum: float):
    """One stratum's (estimate, variance, k_pred) with ``np.var(ddof=1)``."""
    k = int(values.size)
    if k == 0:
        return 0.0, 0.0, 0
    k_pred = int(mask.sum())
    fpc = 0.0 if n_stratum <= 1 else max(0.0, (n_stratum - k) / (n_stratum - 1.0))
    if agg == "count":
        est, phi = None, mask.astype(np.float64) * n_stratum
    elif agg == "sum":
        est, phi = None, mask * values * n_stratum
    else:
        if k_pred == 0:
            return float("nan"), float("nan"), 0
        est, phi = float(values[mask].mean()), mask * values * (k / k_pred)
    var = float(np.var(phi, ddof=1) / k * fpc) if k > 1 else 0.0
    return (float(phi.mean()) if est is None else est), var, k_pred


def synopsis_1d(
    c: np.ndarray, v: np.ndarray, boundaries: np.ndarray, per_leaf: int, *, fanout: int = 2,
    seed: int = 0,
) -> PassSynopsis:
    """PASS over one predicate column ``c`` with the given interior leaf
    boundaries and up to ``per_leaf`` uniform samples a leaf, without Spark."""
    b = np.asarray(boundaries, dtype=np.float64)
    x = np.asarray(c, dtype=np.float64)[:, None]

    def assign(z):
        return np.searchsorted(b, np.asarray(z, dtype=np.float64)[:, 0], side="right")

    lids = assign(x)
    n_leaves = len(b) + 1
    rng = np.random.default_rng(seed)
    samples = {}
    for lid in range(n_leaves):
        rows = np.flatnonzero(lids == lid)
        if rows.size:
            pick = rng.choice(rows, min(per_leaf, rows.size), replace=False)
            samples[lid] = (x[pick], v[pick])
    tree = build_tree(leaf_stats(x, v, lids, n_leaves), fanout=fanout)
    return PassSynopsis(tree, samples, ["c"], "a", len(v), assign=assign)
