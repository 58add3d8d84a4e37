"""Rectangular subpopulation-aggregate queries (§3.1).

A query is ``AGG(A) WHERE x_i <= C_i <= y_i for 1 <= i <= d`` over the
predicate columns ``cols``; both endpoints are inclusive, matching the
paper's rectangular partitioning conditions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

AGGS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class Query:
    """One rectangular aggregate query.

    Attributes:
        agg:  one of :data:`AGGS`.
        cols: predicate column names (length d).
        lo:   lower bounds, inclusive, aligned with ``cols``.
        hi:   upper bounds, inclusive, aligned with ``cols``.
    """

    agg: str
    cols: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.agg not in AGGS:
            raise ValueError(f"unsupported aggregate {self.agg!r}")
        if not (len(self.cols) == len(self.lo) == len(self.hi)):
            raise ValueError("cols/lo/hi length mismatch")

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Boolean match vector of this query's predicate over ``pdf``."""
        m = np.ones(len(pdf), dtype=bool)
        for c, lo, hi in zip(self.cols, self.lo, self.hi):
            v = pdf[c].to_numpy()
            m &= (v >= lo) & (v <= hi)
        return m

    def box(self, cols: list[str]) -> tuple[np.ndarray, np.ndarray, bool]:
        """Query rectangle over ``cols`` (±inf for unconstrained columns)
        and whether the query also constrains a column outside ``cols``
        (workload shift, §5.4.1). A column named twice keeps the
        intersection of its ranges, as :meth:`mask` does."""
        lo = [-np.inf] * len(cols)
        hi = [np.inf] * len(cols)
        external = False
        for c, l, h in zip(self.cols, self.lo, self.hi):
            if c in cols:
                j = cols.index(c)
                lo[j] = max(l, lo[j])
                hi[j] = min(h, hi[j])
            else:
                external = True
        return np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64), external

    def sample_mask(self, x: np.ndarray, cols: list[str]) -> np.ndarray:
        """Boolean match vector over the rows of a sample matrix ``x``
        whose columns are ``cols``; a query column not among ``cols``
        raises :class:`KeyError`."""
        m = None
        for c, lo, hi in zip(self.cols, self.lo, self.hi):
            if c not in cols:
                raise KeyError(f"query column {c!r} not in sample columns {cols}")
            v = x[:, cols.index(c)]
            # ufunc calls: an operator with a scalar operand costs about twice as much.
            hit = np.greater_equal(v, lo) & np.less_equal(v, hi)
            m = hit if m is None else m & hit
        return np.ones(len(x), dtype=bool) if m is None else m

    def truth(self, pdf: pd.DataFrame, value_col: str) -> float:
        """Exact answer over the full data (ground truth for the harness)."""
        v = pdf[value_col].to_numpy()[self.mask(pdf)]
        if self.agg == "count":
            return float(v.size)
        if v.size == 0:
            return float("nan")
        if self.agg == "sum":
            return float(v.sum())
        if self.agg == "avg":
            return float(v.mean())
        if self.agg == "min":
            return float(v.min())
        return float(v.max())

    def sql(self, table: str, value_col: str) -> str:
        """The equivalent SQL text (used with the DuckDB oracle)."""
        pred = " AND ".join(
            f"({c} >= {lo!r} AND {c} <= {hi!r})"
            for c, lo, hi in zip(self.cols, self.lo, self.hi)
        )
        fn = {"sum": "SUM", "count": "COUNT", "avg": "AVG", "min": "MIN", "max": "MAX"}[self.agg]
        arg = "*" if self.agg == "count" else value_col
        return f"SELECT {fn}({arg}) AS result FROM {table} WHERE {pred}"
