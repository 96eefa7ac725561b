"""Steady-state evaluation quantities computed from a simulation trace.

Windows are half-open spans (t_lo, t_hi]; a trace row belongs to a window
when its step ends inside (see ``scenario.steps_until``).  Every function
here is a pure reader of the trace arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import PHASES, NswSchedule, SimTrace, steps_until


def _window_slice(trace: SimTrace, window: tuple[float, float]) -> tuple[int, int]:
    ts = trace.config.params.t_s
    # a window reaching past the trace would be divided by a span it does
    # not cover; bounds may miss the ends by steps_until's tolerance
    for t in window:
        if not -1e-6 <= t / ts <= trace.steps + 1e-6:
            raise ValueError(
                f"window bound {t} lies outside the trace [0, {trace.steps * ts}]"
            )
    a, b = (steps_until(t, ts) for t in window)
    if a >= b:
        raise ValueError(f"window ({window[0]}, {window[1]}] contains no samples")
    return a, b


def effective_switching_frequency(
    trace: SimTrace,
    sm: int,
    window: tuple[float, float],
    phase: str = "a",
) -> float:
    """Turn-on events of one submodule per second over the window.

    Counting only 0->1 edges makes a full on/off cycle count once.  The
    edge into the first in-window step is attributed to that step, so
    counts are additive over adjacent windows.
    """
    a, b = _window_slice(trace, window)
    u = trace.phase(phase).u[:, sm]
    seg = u[a:b]
    prev = u[a - 1] if a > 0 else 0  # the initial state has everything off
    count = np.count_nonzero(seg[1:] > seg[:-1]) + int(seg[0] > prev)
    return count / (window[1] - window[0])


def ripple_percent(
    trace: SimTrace,
    sm: int,
    window: tuple[float, float],
    phase: str = "a",
) -> float:
    """Peak-to-peak capacitor voltage over the window, percent of its mean."""
    a, b = _window_slice(trace, window)
    v = trace.phase(phase).v_c[a:b, sm]
    return 100.0 * (float(v.max()) - float(v.min())) / float(v.mean())


def circulating_ratio(
    trace: SimTrace,
    phase: str,
    window: tuple[float, float],
) -> float:
    """Largest circulating-current deviation from its window mean, percent
    of the AC current amplitude (max |i| over the window)."""
    a, b = _window_slice(trace, window)
    iz = trace.phase(phase).i_circ[a:b]
    amp = float(np.abs(trace.phase(phase).i_ac[a:b]).max())
    dev = float(np.abs(iz - iz.mean()).max())
    if amp == 0.0:
        return 0.0 if dev == 0.0 else math.inf
    return 100.0 * dev / amp


def tracking_rmse(
    trace: SimTrace,
    phase: str,
    window: tuple[float, float],
) -> float:
    """RMS tracking error, percent of the reference RMS amplitude."""
    a, b = _window_slice(trace, window)
    tr = trace.phase(phase)
    err = tr.i_ac[a:b] - tr.i_ref[a:b]
    rms = float(np.sqrt(np.mean(err * err)))
    ref_rms = trace.config.i_ref_peak / math.sqrt(2.0)
    if ref_rms == 0.0:
        return 0.0 if rms == 0.0 else math.inf
    return 100.0 * rms / ref_rms


@dataclass(frozen=True)
class SegmentMetrics:
    """All evaluation quantities for one schedule segment.

    Array rows follow the phase order ("a", "b", "c"); submodule columns
    are upper arm first.  ``window`` is the span actually measured, i.e.
    the segment clipped to the post-warmup region minus the settle
    margin.
    """

    index: int
    t_start: float
    t_end: float
    n_sw_max: int
    window: tuple[float, float]
    f_s_per_sm: np.ndarray          # (3, 2n) [Hz]
    ripple_pct: np.ndarray          # (3, 2n)
    izm_ratio_pct: np.ndarray       # (3,)
    tracking_rmse_pct: np.ndarray   # (3,)
    transitions_per_step: np.ndarray  # (3, 2) mean per arm (upper, lower)

    def f_s_mean(self, phase: str = "a") -> float:
        return float(self.f_s_per_sm[PHASES.index(phase)].mean())

    def ripple_mean(self, phase: str = "a") -> float:
        return float(self.ripple_pct[PHASES.index(phase)].mean())

    def izm_ratio(self, phase: str = "a") -> float:
        return float(self.izm_ratio_pct[PHASES.index(phase)])

    def tracking(self, phase: str = "a") -> float:
        return float(self.tracking_rmse_pct[PHASES.index(phase)])


def segment_report(
    trace: SimTrace,
    schedule: NswSchedule | None = None,
    settle: float = 0.02,
) -> list[SegmentMetrics]:
    """Per-segment metrics over the post-warmup part of the trace.

    ``schedule`` defaults to the one the scenario ran with; passing a
    different segmentation re-slices the same trace (the budgets stored
    in the segments are reported as-is).  The first ``settle`` seconds of
    every measured segment are excluded so steps at segment boundaries do
    not pollute steady-state averages.
    """
    cfg = trace.config
    if schedule is None:
        schedule = cfg.nsw_schedule
    if settle < 0:
        raise ValueError("settle must be >= 0")

    n2 = 2 * cfg.params.n
    ts = cfg.params.t_s
    # derived from u once per report rather than once per segment
    switches = {
        ph: (trace.phase(ph).switches_upper, trace.phase(ph).switches_lower) for ph in PHASES
    }
    out: list[SegmentMetrics] = []
    for idx, (start, end, n_max) in enumerate(schedule.segments):
        lo = max(start, cfg.warmup)
        hi = min(end, cfg.duration)
        if steps_until(hi, ts) <= steps_until(lo, ts):
            continue
        w = (lo + settle, hi)
        if steps_until(hi, ts) <= steps_until(w[0], ts):
            raise ValueError(
                f"settle {settle} s leaves no samples in segment {idx} ({lo}, {hi}]"
            )
        f_s = np.array(
            [
                [effective_switching_frequency(trace, sm, w, ph) for sm in range(n2)]
                for ph in PHASES
            ]
        )
        ripple = np.array(
            [[ripple_percent(trace, sm, w, ph) for sm in range(n2)] for ph in PHASES]
        )
        izm = np.array([circulating_ratio(trace, ph, w) for ph in PHASES])
        rmse = np.array([tracking_rmse(trace, ph, w) for ph in PHASES])
        a, b = _window_slice(trace, w)
        trans = np.array([[float(sw[a:b].mean()) for sw in switches[ph]] for ph in PHASES])
        out.append(
            SegmentMetrics(
                index=idx,
                t_start=start,
                t_end=end,
                n_sw_max=n_max,
                window=w,
                f_s_per_sm=f_s,
                ripple_pct=ripple,
                izm_ratio_pct=izm,
                tracking_rmse_pct=rmse,
                transitions_per_step=trans,
            )
        )
    return out


def reduction_percent(report: list[SegmentMetrics], phase: str = "a") -> list[float]:
    """Switching-frequency reduction of each segment versus the first one,
    in percent (the first reported segment is the baseline)."""
    if not report:
        return []
    base = report[0].f_s_mean(phase)
    if base == 0.0:
        return [math.nan for _ in report]
    return [100.0 * (1.0 - seg.f_s_mean(phase) / base) for seg in report]
