"""Baseline AQP systems the paper compares against (§5.1.3, §5.5).

    uniform        — US: plain uniform sampling (§2.1)
    stratified     — ST: equal-depth stratified sampling (§2.2)
    aqppp          — AQP++ [36]: hill-climbed aggregates + uniform gap sample,
                     and KD-US (§5.4): shallowest-first k-d aggregates + US
    verdictdb_lite — VerdictDB [34] stand-in: scramble-style row sample
    deepdb_lite    — DeepDB [19] stand-in: factorised histogram model

US, ST and VerdictDB-lite are :class:`~repro.core.synopsis.PassSynopsis`
objects built without aggregates, answered by its one query engine: ST over
equal-depth strata, US and VerdictDB-lite as one leaf indexed on no column.
AQP++ and KD-US keep their own answer path (its AVG interval is a
delta-method ratio, and it gives no MIN/MAX interval).
"""
