"""Benchmark of the PASS synopsis: build, query and ingest, end to end.

    python3 perfbench/run.py --workload nyc-1d --seed 1 --seconds 10 --trace 0

Run from the root of the repository. One run starts a local Spark session,
runs one workload of ``workloads.py`` for ``--seconds`` and checks every
answer. It prints any failures, then one JSON line of run metadata, then as
its last line ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``;
with ``--trace 1`` they are its ``per_layer`` ones, taken by ``tracer.py``.

Every file the run writes goes under ``.perfbench/`` in the repository and is
removed when it ends.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run must report, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def prepare() -> Path:
    """Point temporary files into the repository and make ``repro`` and the
    benchmark's modules importable, here and in Spark's Python workers.
    Returns the directory for temporary files."""
    if not (SRC / "repro").is_dir():
        raise FileNotFoundError(f"no program to benchmark at {SRC / 'repro'}")
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Spark's Python workers import ``repro`` to unpickle the k-d assigner.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(SRC))
    return tmp


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    units = declared_units(bool(args.trace))
    try:
        tmp = prepare()
    except FileNotFoundError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import workloads  # imports pyspark and repro, so only after prepare()

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spark = workloads.start_spark(str(tmp))
    try:
        run = workloads.Run(spark, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
        run.run(t_start)
        result = run.result(units)
        meta = {**run.meta(), "commit": commit(), "nproc": os.cpu_count(),
                "versions": workloads.versions(spark)}
    finally:
        workloads.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
