"""VerdictDB [34] stand-in: scramble-style sampling (see DESIGN.md §3.5).

VerdictDB builds a *scramble* — a shuffled, block-sampled copy of the
table — and answers queries from the scramble alone with CLT error
bounds. The closed-source planner is out of reach, so this simulates the
same storage/accuracy trade-off with a uniform row-level scramble at
ratio r: r=1.0 stores (a permutation of) the full table and is exact up
to the finite-population correction; r=0.1 stores 10% and behaves like
plain uniform sampling at a 10% rate. The scramble is the US synopsis
(:mod:`.uniform`): one leaf indexed on no column, answered by the PASS
engine from its sample. Storage is accounted at full row width, matching
the paper's observation that VerdictDB-100% costs about the size of the
original dataset.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame

from ..core import spark_build
from ..core.synopsis import PassSynopsis
from .uniform import sampled


def build_verdictdb(
    df: DataFrame,
    pred_cols: list[str],
    value_col: str,
    *,
    ratio: float,
    seed: int = 0,
) -> PassSynopsis:
    """Scramble at sampling ``ratio`` ∈ (0, 1] of the rows with a value; the
    table is counted once."""
    t0 = time.perf_counter()
    df = spark_build.valued(df, value_col)
    n_total = df.count()
    k = max(1, int(round(ratio * n_total)))
    return sampled(df, pred_cols, value_col, k, n_total, seed, t0)
