"""k-d tree partitionings for multi-dimensional PASS (§4.4, §5.4).

Two construction policies over an m-row optimisation sample:

* ``policy='pass'`` (KD-PASS): repeatedly expand the leaf containing the
  (approximate) maximum-variance query, subject to the §5.4 balance rule
  that leaf depths differ by at most ``balance_limit``;
* ``policy='us'`` (KD-US baseline): expand the shallowest leaf, ties
  broken randomly.

Each expansion splits a node at the per-dimension medians of its sample,
giving fanout 2^d. Leaf ids are dense ints. Once grown, the decision tree is
also kept as flat pre-order arrays (a split matrix, a child table and each
node's leaf id): a :class:`KDRouter`, which a :class:`KDTree` is. Called on an
(n, d) batch it descends every row one level at a time over those arrays,
and :meth:`KDRouter.leaf` descends one row over the same arrays kept as
lists; ``spark_build.with_leaf_fn`` compiles them into one Spark SQL ``CASE``
expression. :meth:`KDTree.router` gives the arrays alone, without the
optimisation sample and the grown nodes: what a synopsis keeps.

The per-leaf maximum-variance SUM query is approximated with the same
discretisation as 1-D (Appendix A.3): the better median-split half along
each dimension, a constant-factor approximation of the true leaf maximum.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .variance import cal_v


@dataclass
class KDNode:
    """One k-d tree node; ``split`` is the per-dimension median vector of
    the node's sample (None for leaves)."""

    idx: np.ndarray  # optimisation-sample row indices inside this node
    depth: int
    split: np.ndarray | None = None
    children: list["KDNode"] = field(default_factory=list)
    leaf_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _leaf_max_variance(a: np.ndarray, x: np.ndarray) -> float:
    """Approximate max SUM query variance among a leaf's sample rows.

    ``a`` are the aggregate values, ``x`` the (n, d) predicate matrix: the
    better half of a median split along each dimension (Lemma A.3
    generalised).
    """
    n = int(a.size)
    if n < 2:
        return 0.0
    best = 0.0
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        v = a[order]
        mid = n // 2
        for seg in (v[:mid], v[mid:]):
            best = max(best, cal_v(n, float(np.square(seg).sum()), float(seg.sum())))
    return best


class KDRouter:
    """The decision tree of a k-d partitioning as flat pre-order arrays: the
    split matrix ``split`` (n_nodes, d), the child table ``child`` (n_nodes,
    2^d) and each node's leaf id ``leaf_of`` (−1 for an internal node), with
    ``height`` levels below the root. A leaf splits at +inf and is its own
    every child, so a row that reaches it stays. It holds nothing else: it is
    what a synopsis keeps to route its inserts."""

    def __init__(self, split: np.ndarray, child: np.ndarray, leaf_of: np.ndarray, height: int) -> None:
        self.split = split
        self.child = child
        self.leaf_of = leaf_of
        self.height = height
        self._weights = 1 << np.arange(split.shape[1])
        self._split_rows = split.tolist()
        self._child_rows = child.tolist()
        self._leaf_ids = leaf_of.tolist()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Leaf id of every row of ``x`` (n, d): all rows descend together,
        one level at a time; child ``Σ_j [x_j > split_j]·2^j`` of a node."""
        x = np.asarray(x, dtype=np.float64)
        node = np.zeros(len(x), dtype=np.int64)
        for _ in range(self.height):
            node = self.child[node, (x > self.split[node]) @ self._weights]
        return self.leaf_of[node]

    def leaf(self, point: list[float]) -> int:
        """Leaf id of one row, a list of d floats: the same descent in plain
        Python, stopping at the first leaf (NaN compares false, bit 0)."""
        node = 0
        while (lid := self._leaf_ids[node]) < 0:
            code, bit = 0, 1
            for p, s in zip(point, self._split_rows[node]):
                if p > s:
                    code |= bit
                bit <<= 1
            node = self._child_rows[node][code]
        return lid


class KDTree(KDRouter):
    """Balanced-expansion k-d tree over an optimisation sample.

    Args:
        x: (m, d) predicate matrix of the optimisation sample.
        a: (m,) aggregate values of the optimisation sample.
        k_leaves: stop expanding once this many leaves exist.
        policy: 'pass' (max SUM variance expansion) or 'us' (shallowest).
        balance_limit: max allowed difference between leaf depths ('pass').
    """

    def __init__(
        self,
        x: np.ndarray,
        a: np.ndarray,
        k_leaves: int,
        *,
        policy: str = "pass",
        balance_limit: int = 2,
        seed: int = 0,
    ) -> None:
        self.x = np.asarray(x, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.float64)
        self.d = self.x.shape[1]
        self.policy = policy
        self.balance_limit = balance_limit
        self.root = KDNode(idx=np.arange(len(self.a)), depth=0)
        self._grow(k_leaves, np.random.default_rng(seed))
        nodes = list(self._iter(self.root))
        self.leaves = [n for n in nodes if n.is_leaf]
        for i, leaf in enumerate(self.leaves):
            leaf.leaf_id = i
        # The decision tree as arrays over the pre-order nodes.
        pos = {id(n): i for i, n in enumerate(nodes)}
        split = np.full((len(nodes), self.d), np.inf)
        child = np.repeat(np.arange(len(nodes))[:, None], 1 << self.d, axis=1)
        for i, n in enumerate(nodes):
            if not n.is_leaf:
                split[i] = n.split
                child[i] = [pos[id(c)] for c in n.children]
        leaf_of = np.array([n.leaf_id for n in nodes], dtype=np.int64)
        super().__init__(split, child, leaf_of, max(n.depth for n in self.leaves))

    def router(self) -> KDRouter:
        """The decision tree alone, without the optimisation sample and the
        grown nodes."""
        return KDRouter(self.split, self.child, self.leaf_of, self.height)

    # ------------------------------------------------------------------

    def _iter(self, node: KDNode):
        yield node
        for c in node.children:
            yield from self._iter(c)

    def _priority(self, node: KDNode, rng: np.random.Generator) -> float:
        if self.policy == "us":
            # Shallowest first; random tiebreak. Heap pops the minimum.
            return node.depth + rng.random() * 1e-6
        # Max variance first → negate for the min-heap.
        return -_leaf_max_variance(self.a[node.idx], self.x[node.idx])

    def _split(self, node: KDNode) -> bool:
        """Median-split ``node`` into 2^d children; False if unsplittable."""
        pts = self.x[node.idx]
        med = np.median(pts, axis=0)
        bits = (pts > med).astype(np.int64)
        codes = bits @ (1 << np.arange(self.d))
        if np.all(codes == codes[0]):
            return False  # all points identical w.r.t. the medians
        node.split = med
        node.children = [
            KDNode(idx=node.idx[codes == c], depth=node.depth + 1) for c in range(1 << self.d)
        ]
        return True

    def _grow(self, k_leaves: int, rng: np.random.Generator) -> None:
        heap: list[tuple[float, int, KDNode]] = []
        counter = 0

        def push(n: KDNode) -> None:
            nonlocal counter
            if len(n.idx) >= 2:
                heapq.heappush(heap, (self._priority(n, rng), counter, n))
                counter += 1

        push(self.root)
        n_leaves = 1
        deferred: list[tuple[float, int, KDNode]] = []
        while heap and n_leaves + (1 << self.d) - 1 <= k_leaves:
            prio, cnt, node = heapq.heappop(heap)
            if self.policy == "pass" and self.balance_limit is not None:
                min_depth = min(
                    min((n.depth for _, _, n in heap), default=node.depth),
                    min((n.depth for _, _, n in deferred), default=node.depth),
                )
                if node.depth - min_depth >= self.balance_limit:
                    deferred.append((prio, cnt, node))
                    continue
            if not self._split(node):
                continue
            n_leaves += len(node.children) - 1
            for c in node.children:
                push(c)
            for item in deferred:
                heapq.heappush(heap, item)
            deferred.clear()

    # ------------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)
