"""1-D partitioning algorithms of §4.3 and Appendix A.

All partitioners operate on the *optimisation sample*: an array ``a`` of
aggregate values already sorted by the predicate column. They return
``cuts`` — a list of k+1 item indices ``0 = c_0 < c_1 < … < c_k = m`` —
where partition j holds sample items ``[c_j, c_{j+1})``. The caller maps
cut indices to predicate-value boundaries (:func:`cuts_to_boundaries`)
and applies them to the full dataset.

Implemented algorithms, matching the paper's complexity table:

* :func:`equal_depth_cuts` — the EQ baseline (equal-frequency strata),
  also the provably optimal partitioning for COUNT queries (Lemma A.1).
* :class:`ADP` — the ``**`` *sampling + discretisation* algorithm:
  O(k·m·log m) DP using monotonicity binary search (Appendix A.5), run
  for every row of a DP column at once over numpy index arrays, and the
  constant-size median-split query set of Appendix A.3. It minimises the
  worst-case SUM query variance; COUNT is the same objective over a column
  of ones. Appendix A.4's AVG objective is not reproduced: every build
  optimises for SUM.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .variance import cal_v


def equal_depth_cuts(m: int, k: int) -> list[int]:
    """k equal-frequency partitions over m items (EQ baseline)."""
    k = min(k, m) or 1
    return [round(j * m / k) for j in range(k + 1)]


def cuts_to_boundaries(c_sorted: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Map sample cut indices to predicate-value boundaries.

    Returns the k−1 *interior* boundary values b_1 < … < b_{k−1}; a full
    dataset tuple with predicate value v goes to partition
    ``searchsorted(boundaries, v, side='right')``. Boundary j is the
    midpoint between the last item of partition j−1 and the first item of
    partition j so that the sampled items land on the intended sides.
    """
    c = np.asarray(c_sorted, dtype=np.float64)
    bounds = []
    for cut in cuts[1:-1]:
        left, right = c[cut - 1], c[cut]
        bounds.append((left + right) / 2.0)
    return np.asarray(bounds, dtype=np.float64)


def assign_partitions(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Partition id of each value for interior ``boundaries`` (see above)."""
    return np.searchsorted(boundaries, values, side="right")


class Router1D:
    """The leaf router of a 1-D partitioning with interior ``boundaries``.

    Called on an (n, d) batch it gives the leaf id of every row from its
    first column (:func:`assign_partitions`); :meth:`leaf` routes one row.
    """

    def __init__(self, boundaries: np.ndarray) -> None:
        self.boundaries = np.asarray(boundaries, dtype=np.float64)
        self._bounds = self.boundaries.tolist()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return assign_partitions(np.asarray(x, dtype=np.float64)[:, 0], self.boundaries)

    def leaf(self, point: list[float]) -> int:
        """Leaf id of one row, a list of floats. ``bisect_right`` equals
        ``searchsorted(side='right')``: NaN compares false with every
        boundary, so it lands in the last leaf, as it sorts last there."""
        return bisect_right(self._bounds, point[0])


# ---------------------------------------------------------------------------
# ADP: sampling + discretisation (the ** algorithm)
# ---------------------------------------------------------------------------


class ADP:
    """Approximate DP partitioner (sampling + discretisation, §4.3.1).

    Builds the DP table ``A[i][j]`` for j up to ``k_max``. Column j depends
    only on column j − 1, so :meth:`cuts` gives for every k ≤ ``k_max`` the
    cuts an ``ADP(a, k)`` gives, bit for bit.

    Args:
        a:      aggregate values of the m optimisation samples, sorted by
                the predicate column.
        k_max:  largest partition count to optimise for.
    """

    def __init__(self, a: np.ndarray, k_max: int) -> None:
        a = np.asarray(a, dtype=np.float64)
        self.m = m = int(a.size)
        self.k_max = max(1, min(k_max, m))
        # Prefix sums of t and t²: Σ t over items [lo, hi] is s[hi+1] − s[lo].
        self.s = np.concatenate([[0.0], np.cumsum(a)])
        self.q = np.concatenate([[0.0], np.cumsum(a * a)])
        self._solve()

    # -- discretised maximum-variance query inside candidate [lo, hi] ------

    def mvar(self, lo, hi):
        """Approximate max SUM query variance inside sample-index range
        [lo, hi] (inclusive) from the median split of Appendix A.3,
        q1 = [lo, mid−1] and q2 = [mid, hi]; elementwise over index arrays,
        a float for scalar indices."""
        lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
        n = hi - lo + 1
        ok = n >= 2
        mid = np.where(ok, lo + n // 2, lo)
        end = np.where(ok, hi + 1, lo)
        s, q = self.s, self.q
        v = np.maximum(
            cal_v(n, q[mid] - q[lo], s[mid] - s[lo]),
            cal_v(n, q[end] - q[mid], s[end] - s[mid]),
        )
        out = np.where(ok, v, 0.0)
        return float(out) if out.ndim == 0 else out

    # -- DP with monotonicity binary search (Appendix A.5) ------------------

    def _solve(self) -> None:
        """Fill column j of the DP for every i at once: each i runs the same
        binary search, in lockstep over index arrays."""
        m, k_max = self.m, self.k_max
        A = np.zeros((m + 1, k_max + 1))
        B = np.zeros((m + 1, k_max + 1), dtype=np.int64)
        i = np.arange(1, m + 1)
        A[i, 1] = self.mvar(np.zeros(m, dtype=np.int64), i - 1)
        for j in range(2, k_max + 1):
            prev = A[:, j - 1]
            # One item (or fewer) per partition — zero-variance cuts.
            few = np.arange(1, j + 1)
            B[few, j] = few - 1
            i = np.arange(j + 1, m + 1)
            # A[h][j−1] is non-decreasing in h, mvar(h, i−1) is
            # non-increasing: binary-search the crossing.
            lo, hi = np.full(i.size, j - 1), i - 1
            while True:
                active = lo < hi
                if not active.any():
                    break
                mid = (lo + hi) // 2
                left = prev[mid] >= self.mvar(mid, i - 1)
                hi = np.where(active & left, mid, hi)
                lo = np.where(active & ~left, mid + 1, lo)
            # The first strict minimum of the three candidates around it.
            best, arg = np.full(i.size, np.inf), lo
            for h in (lo - 1, lo, lo + 1):
                inside = (j - 1 <= h) & (h <= i - 1)
                hc = np.where(inside, h, lo)
                v = np.maximum(prev[hc], self.mvar(hc, i - 1))
                take = inside & (v < best)
                best = np.where(take, v, best)
                arg = np.where(take, h, arg)
            A[i, j] = best
            B[i, j] = arg
        self.A, self.B = A, B

    def cuts(self, k: int) -> tuple[list[int], float]:
        """Backtrack the cut indices for any k ≤ k_max."""
        k = max(1, min(k, self.k_max, self.m))
        cuts = [self.m]
        i, j = self.m, k
        while j > 1 and i > 0:
            h = int(self.B[i, j])
            cuts.append(h)
            i, j = h, j - 1
        cuts.append(0)
        cuts = sorted(set(cuts))
        return cuts, float(self.A[self.m, k])
