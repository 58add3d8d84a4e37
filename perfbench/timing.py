"""Latencies of single operations, corrected for the speed of the machine.

On a shared machine the same Python work can take up to twice as long from
one second to the next, and a whole 10-second run can fall in a slow spell.
A percentile of raw latencies then moves with the machine more than with the
program. So :class:`Clock` times a fixed probe, Python control flow around
numpy calls on 160-element arrays like the query and insert paths, at least
every ``PROBE_INTERVAL_S`` between operations. Each operation's latency is
scaled by ``PROBE_REF_S`` over the probe time interpolated at the moment the
operation ended: it reads as the latency on a machine that runs the probe in
``PROBE_REF_S``. The probe calls no code of the program, so a faster program
still reads faster. The raw latencies and probe times are kept too.

Bursts of noise shorter than the probe interval still stretch the tail. So
:meth:`Clock.percentile` takes a percentile within each block of ``BLOCK``
consecutive operations and reports the median over the blocks: a burst moves
only the blocks it falls in.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

PROBE_INTERVAL_S = 0.1
BLOCK = 100
#: Probe time on an unloaded 4-core machine; only scales the reported values.
PROBE_REF_S = 0.003

_X = np.linspace(0.0, 1.0, 160)
_LO, _HI = np.array([0.25]), np.array([0.75])


def probe_work() -> float:
    s = 0.0
    for _ in range(200):
        m = (_X >= _LO[0]) & (_X <= _HI[0])
        s += float((_X * m).mean())
        if np.any(_HI < _LO) or np.all(_LO <= _HI):
            s += 1.0
    return s


class Clock:
    """Operation latencies by kind, with the probe times to correct them."""

    def __init__(self) -> None:
        self.probe_at: list[float] = []
        self.probe_s: list[float] = []
        self.ops: dict[object, list[tuple[float, float]]] = defaultdict(list)
        self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.probe_at.append(t1)
        self.probe_s.append(t1 - t0)

    def record(self, kind, t0: float, t1: float) -> None:
        """Record one operation of ``kind`` that ran from ``t0`` to ``t1``;
        probe afterwards when the last probe is too old."""
        self.ops[kind].append((t1, t1 - t0))
        if t1 - self.probe_at[-1] > PROBE_INTERVAL_S:
            self.probe()

    def raw(self, kind) -> np.ndarray:
        return np.array([s for _, s in self.ops[kind]])

    def corrected(self, kind) -> np.ndarray:
        """Latencies of ``kind`` at the reference probe time, in seconds."""
        if not self.ops[kind]:
            return np.empty(0)
        at, s = np.array(self.ops[kind]).T
        return s * PROBE_REF_S / np.interp(at, self.probe_at, self.probe_s)

    def percentile(self, kind, p: float) -> float:
        """Median over blocks of ``BLOCK`` operations of the ``p``-th
        percentile of corrected latencies in the block, in seconds."""
        xs = self.corrected(kind)
        if not len(xs):
            return float("nan")
        blocks = [xs[i:i + BLOCK] for i in range(0, max(1, len(xs) - BLOCK + 1), BLOCK)]
        return float(np.median([np.percentile(b, p) for b in blocks]))
