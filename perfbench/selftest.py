"""Self-test of the benchmark, at a tiny scale.

    python3 perfbench/selftest.py

Run from the root of the repository; it takes about two minutes. In one
Spark session it runs every workload at ``workloads.TINY``, untraced and
traced, and checks that each run passes its own checks and reports every
metric ``BENCHMARK.json`` declares, with its unit and a finite value (above 0
for the end-to-end metrics). It then wraps ``PassSynopsis.answer`` so that it
corrupts the estimate, and then the hard bounds, of every answer, and checks
that the run counts each such answer as failed. Exits 1 on the first check
that does not hold.
"""
from __future__ import annotations

import dataclasses
import math
import shutil
import sys
import time

import run as bench


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}", flush=True)
        sys.exit(1)


def corrupt_estimate(res):
    """An estimate below the lower bound, which no estimator here can give."""
    return dataclasses.replace(res, est=res.lb - 1.0 - abs(res.lb))


def corrupt_bounds(res):
    """Hard bounds wholly above the upper bound, so they miss the answer."""
    shift = 1.0 + abs(res.ub)
    return dataclasses.replace(res, lb=res.lb + shift + (res.ub - res.lb), ub=res.ub + 2 * shift)


def main() -> int:
    tmp = bench.prepare()
    import workloads
    from repro.core.synopsis import PassSynopsis

    spark = workloads.start_spark(str(tmp))
    try:
        runs = {}
        for name, w in workloads.WORKLOADS.items():
            for trace in (False, True):
                units = bench.declared_units(trace)
                run = workloads.Run(spark, w, seed=1, seconds=0.0, trace=trace, scale=workloads.TINY)
                run.run(time.perf_counter())
                out = run.result(units)
                expect(out["correct"] and out["attempted"] > 0, f"{name} trace={trace}: {out}")
                for k, unit in units.items():
                    m = out["metrics"][k]
                    expect(m["unit"] == unit, f"{name}: {k} has unit {m['unit']}, not {unit}")
                    expect(math.isfinite(m["value"]) and (trace or m["value"] > 0),
                           f"{name} trace={trace}: {k} = {m['value']}")
                print(f"ok {name} trace={int(trace)}: {len(units)} metrics, "
                      f"{out['attempted']} operations", flush=True)
                runs[name] = run

        answer = PassSynopsis.answer
        for corrupt in (corrupt_estimate, corrupt_bounds):
            run = runs["nyc-1d"]
            PassSynopsis.answer = lambda self, q, corrupt=corrupt: corrupt(answer(self, q))
            try:
                before = run.ledger.failed
                run.query_pass(run.syn, run.queries, run.truth)
            finally:
                PassSynopsis.answer = answer
            failed = run.ledger.failed - before
            expect(failed == len(run.queries),
                   f"{corrupt.__name__}: {failed} of {len(run.queries)} answers counted as failed")
            print(f"ok {corrupt.__name__}: all {failed} answers counted as failed", flush=True)
    finally:
        workloads.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
