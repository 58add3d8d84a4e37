"""Partition tree invariants and the MCF traversal (§3.2, Algorithm 1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kdtree import KDTree
from repro.core.partitioner import Router1D
from repro.core.query import Query
from repro.core.synopsis import PassSynopsis, _tree_from_kd
from repro.core.tree import Node, NodeStats, build_tree, mcf, overlapping_leaves, synopsis_bytes
from tests.reference import (
    children, classify_one, leaf_stats, mcf_recursive, sample_only_leaves_mcf, synopsis_1d,
)


def leaves_from(groups, extents):
    """Leaf arrays from per-leaf value lists and 1-D [lo, hi] extents."""
    leaves = NodeStats.empty(len(groups), 1)
    for i, (vals, (lo, hi)) in enumerate(zip(groups, extents)):
        v = np.asarray(vals, float)
        leaves.sum[i], leaves.count[i], leaves.min[i], leaves.max[i] = v.sum(), v.size, v.min(), v.max()
        leaves.pmin[i], leaves.pmax[i] = lo, hi
    return leaves


@pytest.fixture()
def chain_leaves():
    """8 leaves over [0,10), [10,20), ... with increasing values."""
    return leaves_from(
        [[i * 10 + 1, i * 10 + 2] for i in range(8)], [(i * 10, i * 10 + 9) for i in range(8)]
    )


def test_build_tree_structure(chain_leaves):
    tree = build_tree(chain_leaves, fanout=2)
    assert tree.n_nodes == 15  # 8 + 4 + 2 + 1
    assert len(tree.leaves()) == 8
    assert tree.leaf_id[tree.leaf_node].tolist() == list(range(8))
    assert Node(tree, 0).stats.count == chain_leaves.count.sum()


def test_build_tree_fanout4(chain_leaves):
    tree = build_tree(chain_leaves, fanout=4)
    assert len(children(tree, 0)) == 2
    assert all(len(children(tree, c)) == 4 for c in children(tree, 0))


def test_build_tree_parent_equals_union(chain_leaves):
    tree = build_tree(chain_leaves, fanout=2)
    n = tree.nodes
    for i in range(tree.n_nodes):
        kids = children(tree, i)
        if kids:
            assert n.count[i] == n.count[kids].sum()
            assert n.sum[i] == pytest.approx(n.sum[kids].sum())
            assert n.min[i] == n.min[kids].min()
            assert n.max[i] == n.max[kids].max()
            assert n.pmin[i, 0] == n.pmin[kids, 0].min()
            assert n.pmax[i, 0] == n.pmax[kids, 0].max()


def test_build_tree_empty_raises():
    with pytest.raises(ValueError):
        build_tree(NodeStats.empty(0, 1))


def test_classify_three_cases(chain_leaves):
    n = build_tree(chain_leaves).leaves()[2]  # data extent [20, 29]
    assert n.classify(np.array([20.0]), np.array([29.0])) == "covered"
    assert n.classify(np.array([0.0]), np.array([100.0])) == "covered"
    assert n.classify(np.array([25.0]), np.array([40.0])) == "partial"
    assert n.classify(np.array([40.0]), np.array([50.0])) == "none"


def test_classify_empty_node_is_none():
    n = Node(build_tree(NodeStats.empty(1, 1)), 0)
    assert n.classify(np.array([-1e18]), np.array([1e18])) == "none"


def test_mcf_aligned_query_fully_covered(chain_leaves):
    tree = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(tree, np.array([10.0]), np.array([29.0]))
    assert not partial.size
    assert tree.nodes.count[covered].sum() == 4  # leaves 1 and 2


def test_mcf_root_pruning(chain_leaves):
    """A query covering everything must return the root alone."""
    tree = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(tree, np.array([-1.0]), np.array([1000.0]))
    assert covered.tolist() == [0] and not partial.size


def test_mcf_partial_edges(chain_leaves):
    tree = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(tree, np.array([5.0]), np.array([35.0]))
    # Leaves 0 and 3 partially overlap; 1, 2 fully covered.
    assert set(tree.leaf_id[partial].tolist()) == {0, 3}
    assert tree.nodes.count[covered].sum() == 4


def test_mcf_disjoint_query(chain_leaves):
    tree = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(tree, np.array([200.0]), np.array([300.0]))
    assert not covered.size and not partial.size


def _subtree_leaves(tree, i):
    return {int(l) for l in tree.leaf_id[i : tree.end[i]] if l >= 0}


def test_mcf_matches_bruteforce_random():
    """MCF's covered+partial sets must equal a flat scan's classification
    (with covered subtrees expanded to leaves)."""
    rng = np.random.default_rng(0)
    edges = np.sort(rng.choice(np.arange(1, 1000), 31, replace=False))
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges - 1, [999]])
    tree = build_tree(leaves_from([rng.random(3) * 10 for _ in starts], zip(starts, ends)))
    leaf_nodes = tree.leaf_node
    for _ in range(50):
        lo = np.array([float(rng.integers(0, 900))])
        hi = np.array([float(rng.integers(int(lo[0]), 1000))])
        covered, partial = mcf(tree, lo, hi)
        cov_leaf_ids = {l for n in covered for l in _subtree_leaves(tree, n)}
        par_leaf_ids = set(tree.leaf_id[partial].tolist())
        flat = [classify_one(tree.nodes, n, lo, hi) for n in leaf_nodes]
        assert cov_leaf_ids == {i for i, c in enumerate(flat) if c == "covered"}
        assert par_leaf_ids == {i for i, c in enumerate(flat) if c == "partial"}
        assert not (cov_leaf_ids & par_leaf_ids)


def test_zero_variance_rule():
    """§3.4 for AVG: a partially overlapped leaf whose values are all equal
    gives that value as its exact mean with no spread, but it weighs only its
    estimated matching rows and stays partial for the hard bounds. Leaf 1
    (c in [100, 200), every value 0) overlaps the query in one row: weighed
    by its full COUNT as a covered node it would give 5.495, and bounds
    [5.495, 5.495], for a truth of 10.88."""
    c = np.arange(200.0)
    v = np.where(c < 100, 10 + c % 3, 0.0)
    q = Query("avg", ("c",), (0.0,), (100.0,))
    truth = v[c <= 100].mean()
    for per_leaf in (100, 20):
        res = synopsis_1d(c, v, [100.0], per_leaf).answer(q)
        assert res.lb <= truth <= res.ub
        assert res.lb == 0.0 and res.ub == pytest.approx(10.99)
    full = synopsis_1d(c, v, [100.0], 100).answer(q)  # every row sampled
    assert full.est == pytest.approx(truth, rel=1e-12) and full.ci_half == 0.0
    # A zero-variance leaf alone: its value exactly, where the mean of 0.1
    # over the matching sampled rows and its φ-variance are not.
    v = np.where(c < 100, 10 + c % 3, 0.1)
    res = synopsis_1d(c, v, [100.0], 20).answer(Query("avg", ("c",), (120.0,), (300.0,)))
    assert res.est == 0.1 and res.ci_half == 0.0
    assert res.lb == res.ub == 0.1


def test_synopsis_bytes_accounting(chain_leaves):
    tree = build_tree(chain_leaves, fanout=2)
    b = synopsis_bytes(tree.n_nodes, d=1, n_rows=10, row_width=2)
    assert b == 15 * 6 * 8 + 10 * 2 * 8


# -- the vectorised MCF against the recursive definition -------------------


def _random_tree(draw_seed, kind, d, n_rows, n_leaves):
    """A 1-D fanout-2/4 tree or a k-d tree over ``n_rows`` random rows, and
    the assigner that routes rows of its predicate columns to their leaf.
    Values come from a small set, so some nodes have zero variance, and
    1-D leaves outnumber distinct predicate values, so some are empty."""
    rng = np.random.default_rng(draw_seed)
    x = rng.integers(0, 12, size=(n_rows, d)).astype(float)
    v = rng.choice([0.0, 1.0, 1.0, 4.0], n_rows) * (x[:, 0] > 5) + 2.0
    if kind == "kd":
        kd = KDTree(x, v, n_leaves, seed=draw_seed)
        return _tree_from_kd(kd.root, leaf_stats(x, v, kd(x), kd.n_leaves)), kd
    b = np.sort(rng.choice(np.arange(-1.0, 14.0, 0.5), min(n_leaves - 1, 30), replace=False))
    assign = Router1D(b)
    tree = build_tree(leaf_stats(x[:, :1], v, assign(x), len(b) + 1), fanout=2 if kind == "1d2" else 4)
    return tree, assign


#: A random tree (see :func:`_random_tree`) and query bounds for 3 columns.
TREES_AND_BOUNDS = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["1d2", "1d4", "kd"]),
    d=st.integers(1, 3),
    n_rows=st.integers(1, 120),
    n_leaves=st.integers(1, 40),
    bounds=st.lists(
        st.tuples(
            st.one_of(st.just(-np.inf), st.floats(-2, 14)),
            st.one_of(st.just(np.inf), st.floats(-2, 14)),
        ),
        min_size=3,
        max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(**TREES_AND_BOUNDS)
def test_mcf_equals_recursive_definition(seed, kind, d, n_rows, n_leaves, bounds):
    """Same covered nodes and partial leaves, in the same (pre-)order, as the
    depth-first Algorithm 1 — with empty leaves, unconstrained (±inf)
    columns and empty ranges (lo > hi)."""
    tree, _ = _random_tree(seed, kind, d, n_rows, n_leaves)
    dims = tree.nodes.pmin.shape[1]
    lo = np.array([b[0] for b in bounds[:dims]])
    hi = np.array([b[1] for b in bounds[:dims]])
    covered, partial = mcf(tree, lo, hi)
    want_cov, want_par = mcf_recursive(tree, lo, hi)
    assert covered.tolist() == want_cov
    assert partial.tolist() == want_par


@settings(max_examples=150, deadline=None)
@given(**TREES_AND_BOUNDS)
def test_overlapping_leaves_equal_mcf_rule(seed, kind, d, n_rows, n_leaves, bounds):
    """The leaves a sample-only answer reads: the same, in the same
    (pre-)order, as the MCF frontier expanded to its non-empty leaves — with
    empty leaves, unconstrained (±inf) columns and empty ranges (lo > hi)."""
    tree, _ = _random_tree(seed, kind, d, n_rows, n_leaves)
    dims = tree.nodes.pmin.shape[1]
    lo = np.array([b[0] for b in bounds[:dims]])
    hi = np.array([b[1] for b in bounds[:dims]])
    assert overlapping_leaves(tree, lo, hi).tolist() == sample_only_leaves_mcf(tree, lo, hi).tolist()


def assert_nodes_enclose_children(tree):
    """Each node's count and SUM are its children's totals, and its MIN/MAX
    and predicate extents enclose theirs: the invariant :func:`mcf` rests on.
    ``tree.parent`` names each child's parent, and the root its own."""
    n = tree.nodes
    assert tree.parent[0] == 0
    for i in range(tree.n_nodes):
        kids = children(tree, i)
        assert (tree.parent[kids] == i).all()
        if not kids:
            continue
        assert n.count[i] == n.count[kids].sum()
        assert n.sum[i] == pytest.approx(n.sum[kids].sum(), rel=1e-12, abs=1e-9)
        assert n.min[i] <= n.min[kids].min() and n.max[i] >= n.max[kids].max()
        assert (n.pmin[i] <= n.pmin[kids].min(axis=0)).all()
        assert (n.pmax[i] >= n.pmax[kids].max(axis=0)).all()


@settings(max_examples=100, deadline=None)
@given(**TREES_AND_BOUNDS, n_inserts=st.integers(1, 40))
def test_nodes_enclose_children(seed, kind, d, n_rows, n_leaves, bounds, n_inserts):
    """Nodes enclose their children in a built tree (1-D fanout 2/4 and
    k-d), and still after a stream of inserts whose values and predicate
    values often lie outside their leaf's ranges; MCF then still equals the
    recursive definition."""
    tree, assign = _random_tree(seed, kind, d, n_rows, n_leaves)
    assert_nodes_enclose_children(tree)
    cols = [f"c{j}" for j in range(tree.nodes.pmin.shape[1])]
    syn = PassSynopsis(tree, {}, cols, "a", tree.nodes.count[0], assign=assign)
    rng = np.random.default_rng(seed)
    for _ in range(n_inserts):
        row = dict(zip(cols, rng.uniform(-6.0, 20.0, len(cols))))
        syn.insert({**row, "a": float(rng.uniform(-10.0, 20.0))}, rng)
    assert_nodes_enclose_children(syn.tree)
    lo = np.array([b[0] for b in bounds[: len(cols)]])
    hi = np.array([b[1] for b in bounds[: len(cols)]])
    covered, partial = mcf(syn.tree, lo, hi)
    assert (covered.tolist(), partial.tolist()) == mcf_recursive(syn.tree, lo, hi)
