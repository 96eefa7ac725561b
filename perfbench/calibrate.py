"""Host-speed calibration loop, independent of mmcsim.

On a host shared with other tenants, speed drifts by tens of percent within
seconds and over minutes. Raw wall-time medians of two runs of the same code
can then differ by more than any useful bound. run.py times this fixed loop
before and after every repetition. It scales the repetition's wall time by
``CAL_REF_S / (mean of the two loop times)``: an estimate of the repetition's
time on a host that runs the loop in ``CAL_REF_S``. The loop uses the same
kind of interpreted work as mmcsim's hot path: small float lists, keyed sorts,
frozen dataclasses, float math and formatting.

Changing the loop or ``CAL_REF_S`` changes every normalised figure, so both
stay fixed for the life of the benchmark.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

CAL_ROUNDS = 20000
CAL_REF_S = 0.1  # the loop's time on the reference host, by definition


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _loop(rounds: int) -> float:
    acc = 0.0
    text = []
    for i in range(rounds):
        v = [((i * 7 + k * 13) % 97) * 0.5 for k in range(12)]
        order = sorted(range(12), key=v.__getitem__)
        s = 0.0
        for j in order[:6]:
            s += v[j]
        p = _Pair(s, math.sin(s))
        acc += p.a * 1e-3 + p.b
        if i % 8 == 0:
            text.append(f"{acc:.9g}")
    return acc + len(text)


def calibration_seconds() -> float:
    """Wall seconds of one pass of the fixed loop."""
    t0 = time.perf_counter()
    _loop(CAL_ROUNDS)
    return time.perf_counter() - t0
