"""Partition tree and the Minimal Coverage Frontier algorithm (§3.2).

The tree is stored as flat per-node arrays (:class:`NodeStats`): exact
SUM/COUNT/MIN/MAX of the aggregation column plus the observed
per-dimension min/max of the predicate columns. Covered/partial/none
classification against a query rectangle uses those *data* extents, which
makes the MCF classification exact with respect to the dataset and
sidesteps the half-open float-boundary ambiguity of partitioning
conditions.

Nodes are laid out in pre-order, so the subtree of node ``i`` is the index
range ``[i, end[i])``. Internal nodes are aggregated bottom-up from the
leaf aggregates (mergeable summaries) — in the Spark pipeline only the
leaves ever touch data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .variance import PartStats


@dataclass(eq=False)
class NodeStats:
    """Per-node aggregate arrays: ``sum``/``count``/``min``/``max`` of the
    aggregation column, shape (n,), and ``pmin``/``pmax``, the observed
    predicate extents, shape (n, d). An empty node has count 0 and
    inverted (+inf/−inf) extremes."""

    sum: np.ndarray
    count: np.ndarray
    min: np.ndarray
    max: np.ndarray
    pmin: np.ndarray
    pmax: np.ndarray

    @classmethod
    def empty(cls, n: int, d: int) -> "NodeStats":
        return cls(
            np.zeros(n), np.zeros(n), np.full(n, np.inf), np.full(n, -np.inf),
            np.full((n, d), np.inf), np.full((n, d), -np.inf),
        )

    def __len__(self) -> int:
        return len(self.count)


def classify(nodes: NodeStats, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify every node against the query rectangle [lo, hi].

    Returns boolean arrays ``(overlap, covered)``: a node is 'none' when it
    is empty or its extents miss the rectangle, 'covered' when its extents
    lie inside it, and 'partial' otherwise (``overlap & ~covered``).
    """
    # Column by column: cheaper than row reductions. Comparisons are ufunc
    # calls: an operator with a scalar operand costs about twice as much.
    missed = np.equal(nodes.count, 0.0)
    # A non-empty node has pmin <= pmax, so inside implies overlap; a NaN
    # extent neither misses nor lies inside, so its node is 'partial'.
    inside = ~missed
    for j in range(len(lo)):
        pmin, pmax = nodes.pmin[:, j], nodes.pmax[:, j]
        missed |= np.less(pmax, lo[j])
        missed |= np.greater(pmin, hi[j])
        inside &= np.less_equal(lo[j], pmin)
        inside &= np.less_equal(pmax, hi[j])
    return ~missed, inside


class Tree:
    """A partition tree in pre-order.

    Attributes:
        nodes:     the per-node aggregate arrays; the only copy of node state.
        leaf_id:   stratum id (>= 0) of each leaf node, -1 for internal nodes;
                   ``is_leaf`` is ``leaf_id >= 0``.
        parent:    parent node index of each node; the root is its own parent.
        end:       the subtree of node ``i`` is the node range ``[i, end[i])``.
        leaf_node: node index of each leaf id.
        paths:     node indices root → leaf, per leaf id (for inserts, §4.5).
    """

    def __init__(self, leaves: NodeStats, root, children, leaf_of) -> None:
        """Lay out the tree under ``root`` in pre-order and aggregate it from
        the per-leaf aggregates ``leaves``. ``children(key)`` lists a node's
        children; ``leaf_of(key)`` is its leaf id, or -1 for an internal node."""
        parent: list[int] = []
        depth: list[int] = []
        leaf_id: list[int] = []
        end: list[int] = []

        def visit(key, p: int, dep: int) -> None:
            i = len(parent)
            parent.append(p)
            depth.append(dep)
            leaf_id.append(leaf_of(key))
            end.append(0)
            for c in children(key):
                visit(c, i, dep + 1)
            end[i] = len(parent)

        visit(root, 0, 0)  # the root, node 0, is its own parent
        self.leaf_id = np.array(leaf_id, dtype=np.int64)
        self.is_leaf = self.leaf_id >= 0
        self.end = np.array(end, dtype=np.int64)
        self.leaf_node = np.empty(len(leaves), dtype=np.int64)
        self.leaf_node[self.leaf_id[self.is_leaf]] = np.flatnonzero(self.is_leaf)
        self.paths = []
        for node in self.leaf_node.tolist():
            path = [node]
            while path[-1]:
                path.append(parent[path[-1]])
            self.paths.append(np.array(path[::-1], dtype=np.int64))
        nodes = NodeStats.empty(len(parent), leaves.pmin.shape[1])
        for a in ("sum", "count", "min", "max", "pmin", "pmax"):
            getattr(nodes, a)[self.leaf_node] = getattr(leaves, a)
        # Deepest level first; each parent folds in its children left to right,
        # so every node's count, SUM, MIN/MAX and extents enclose its children's.
        self.parent = np.array(parent, dtype=np.int64)
        depth_of = np.array(depth, dtype=np.int64)
        for dep in range(max(depth), 0, -1):
            idx = np.flatnonzero(depth_of == dep)
            p = self.parent[idx]
            np.add.at(nodes.sum, p, nodes.sum[idx])
            np.add.at(nodes.count, p, nodes.count[idx])
            np.minimum.at(nodes.min, p, nodes.min[idx])
            np.maximum.at(nodes.max, p, nodes.max[idx])
            np.minimum.at(nodes.pmin, p, nodes.pmin[idx])
            np.maximum.at(nodes.pmax, p, nodes.pmax[idx])
        self.nodes = nodes

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def leaves(self) -> list["Node"]:
        """Leaf views in leaf-id order."""
        return [Node(self, int(i)) for i in self.leaf_node]


class Node:
    """Read-only view of node ``index`` of a :class:`Tree`."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: Tree, index: int) -> None:
        self.tree = tree
        self.index = index

    @property
    def stats(self) -> PartStats:
        n, i = self.tree.nodes, self.index
        return PartStats(float(n.sum[i]), float(n.count[i]), float(n.min[i]), float(n.max[i]))

    @property
    def pred_min(self) -> np.ndarray:
        return _read_only(self.tree.nodes.pmin[self.index])

    @property
    def pred_max(self) -> np.ndarray:
        return _read_only(self.tree.nodes.pmax[self.index])

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> str:
        """'none' | 'covered' | 'partial' against query rectangle [lo, hi]:
        :func:`classify` over this one node."""
        n, s = self.tree.nodes, slice(self.index, self.index + 1)
        row = NodeStats(n.sum[s], n.count[s], n.min[s], n.max[s], n.pmin[s], n.pmax[s])
        overlap, covered = classify(row, lo, hi)
        return "covered" if covered[0] else "partial" if overlap[0] else "none"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_tree(leaves: NodeStats, fanout: int = 2) -> Tree:
    """Bottom-up balanced tree over ordered leaves with a fixed fanout: each
    level groups ``fanout`` consecutive nodes of the level below under one
    parent (a short last group keeps its size)."""
    if not len(leaves):
        raise ValueError("cannot build a tree with no leaves")
    # levels[h][j] = children of node j at height h, as indices into level h-1.
    levels: list[list[range]] = []
    width = len(leaves)
    while width > 1:
        levels.append([range(i, min(i + fanout, width)) for i in range(0, width, fanout)])
        width = len(levels[-1])

    def children(node: tuple[int, int]) -> list[tuple[int, int]]:
        h, j = node
        return [(h - 1, c) for c in levels[h - 1][j]] if h else []

    return Tree(leaves, (len(levels), 0), children, lambda node: -1 if node[0] else node[1])


def mcf(tree: Tree, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal Coverage Frontier (Algorithm 1), for every node in one pass.

    Returns node-index arrays ``(covered, partial)`` in pre-order: nodes
    fully inside the query rectangle with no covered ancestor (pruned as
    high in the tree as possible), and partially-overlapping *leaves* with
    no covered ancestor. Every node encloses its children (DESIGN.md §3.8),
    so every non-empty node under a covered node is covered: a covered node
    is on the frontier when its parent is not, and no partial leaf lies
    under a covered node.
    """
    overlap, covered = classify(tree.nodes, lo, hi)
    frontier = covered > covered[tree.parent]  # covered, parent not covered
    frontier[0] = covered[0]  # the root, its own parent
    partial = (overlap > covered) & tree.is_leaf
    return frontier.nonzero()[0], partial.nonzero()[0]


def overlapping_leaves(tree: Tree, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Node indices, in pre-order, of the non-empty leaves that overlap the
    query rectangle [lo, hi]: the strata a sample-only answer reads."""
    overlap, _ = classify(tree.nodes, lo, hi)
    return (overlap & tree.is_leaf).nonzero()[0]


def synopsis_bytes(n_nodes: int, d: int, n_rows: int, row_width: int) -> int:
    """Storage accounting shared by every approach: each of ``n_nodes``
    partitions stores 4 aggregate stats + 2d predicate extents, each of
    ``n_rows`` sampled rows stores ``row_width`` values; 8 bytes a value.
    Storage is accounted uncompressed (no §3.4 delta coding)."""
    return (n_nodes * (4 + 2 * d) + n_rows * row_width) * 8
