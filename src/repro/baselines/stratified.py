"""ST baseline: equal-depth stratified sampling (§2.2).

Implemented as a :class:`~repro.core.synopsis.PassSynopsis` constructed
with ``use_aggregates=False``: identical strata, identical per-stratum
samples and §2.2 combination formulas, but every intersecting stratum is
answered from its sample — no exact partial aggregation and no hard bounds.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.synopsis import PassSynopsis


def build_stratified(
    df: DataFrame,
    pred_col: str,
    value_col: str,
    *,
    n_strata: int,
    sample_total: int,
    m_opt: int = 1024,
    seed: int = 0,
) -> PassSynopsis:
    """Equal-depth strata over ``pred_col`` with K/B samples each."""
    syn = PassSynopsis.build_1d(
        df, pred_col, value_col, k_partitions=n_strata, sample_total=sample_total,
        partitioner="eq", m_opt=m_opt, seed=seed,
    )
    return PassSynopsis(
        syn.tree, syn.samples, syn.pred_cols, value_col, syn.n_total, syn.sample_cols,
        build_seconds=syn.build_seconds, use_aggregates=False, assign=syn.assign, seed=seed,
    )
