"""Steady-state evaluation quantities computed from a simulation trace.

Windows are half-open spans (t_lo, t_hi]; a trace row belongs to a window
when its step ends inside (see ``scenario.steps_until``).  Every function
here is a pure reader of the trace arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import PHASES, NswSchedule, ScenarioConfig, SimTrace, steps_until


def _check_sm(trace: SimTrace, sm: int) -> None:
    # numpy would read a negative index from the last column back
    n2 = 2 * trace.config.params.n
    if isinstance(sm, bool) or not isinstance(sm, (int, np.integer)) or not 0 <= sm < n2:
        raise ValueError(f"sm must be an int in [0, {n2}), got {sm!r}")


def _phase_row(phase: str) -> int:
    """The row of ``phase`` in a SegmentMetrics array; an unknown label
    raises ``SimTrace.phase``'s ``ValueError``."""
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    return PHASES.index(phase)


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
    _check_sm(trace, sm)
    a, b = _window_slice(trace, window)
    count = np.count_nonzero(trace.phase(phase).edges(a, b)[:, sm] > 0)
    return count / (window[1] - window[0])


def _ripple(v_c: np.ndarray) -> np.ndarray:
    """Peak-to-peak of each column over the rows, percent of its mean."""
    # each mean is a sum over one contiguous row of the transpose, which
    # numpy sums pairwise as it does a lone column; v_c.mean(axis=0) would
    # add the rows one after another and round differently
    mean = np.ascontiguousarray(v_c.T).mean(axis=-1)
    return 100.0 * (v_c.max(axis=0) - v_c.min(axis=0)) / mean


def ripple_percent(
    trace: SimTrace,
    sm: int,
    window: tuple[float, float],
    phase: str = "a",
) -> float:
    """Peak-to-peak capacitor voltage over the window, percent of its mean."""
    _check_sm(trace, sm)
    a, b = _window_slice(trace, window)
    return float(_ripple(trace.phase(phase).v_c[a:b, sm, None])[0])


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
        return float(self.f_s_per_sm[_phase_row(phase)].mean())

    def ripple_mean(self, phase: str = "a") -> float:
        return float(self.ripple_pct[_phase_row(phase)].mean())

    def izm_ratio(self, phase: str = "a") -> float:
        return float(self.izm_ratio_pct[_phase_row(phase)])

    def tracking(self, phase: str = "a") -> float:
        return float(self.tracking_rmse_pct[_phase_row(phase)])


def segment_windows(
    config: ScenarioConfig,
    schedule: NswSchedule | None = None,
    settle: float = 0.02,
) -> list[tuple[int, tuple[float, float]]]:
    """The measured window of each segment of ``schedule`` (default: the
    config's) that holds steps after the warm-up, as ``(index, window)``.

    A window starts ``settle`` seconds into its segment's post-warm-up
    span.  It depends on the config alone, so a margin that leaves a
    segment no samples raises ``ValueError`` before anything runs.
    """
    if schedule is None:
        schedule = config.nsw_schedule
    # NaN fails both comparisons, and an infinite margin cannot be converted
    # to a step count
    if not (math.isfinite(settle) and settle >= 0):
        raise ValueError(f"settle must be finite and >= 0, got {settle}")
    ts = config.params.t_s
    windows = []
    for idx, (start, end, _) in enumerate(schedule.segments):
        lo = max(start, config.warmup)
        hi = min(end, config.duration)
        if steps_until(hi, ts) <= steps_until(lo, ts):
            continue
        if steps_until(hi, ts) <= steps_until(lo + settle, ts):
            raise ValueError(
                f"settle {settle} s leaves no samples in segment {idx} ({lo}, {hi}]"
            )
        windows.append((idx, (lo + settle, hi)))
    return windows


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
    not pollute steady-state averages; ``segment_windows`` gives the
    windows.
    """
    if schedule is None:
        schedule = trace.config.nsw_schedule
    n = trace.config.params.n
    out: list[SegmentMetrics] = []
    for idx, w in segment_windows(trace.config, schedule, settle):
        start, end, n_max = schedule.segments[idx]
        a, b = _window_slice(trace, w)
        f_s, ripple, trans = [], [], []
        for ph in PHASES:
            edges = trace.phase(ph).edges(a, b)
            f_s.append(np.count_nonzero(edges > 0, axis=0) / (w[1] - w[0]))
            trans.append([np.count_nonzero(arm) / (b - a) for arm in (edges[:, :n], edges[:, n:])])
            ripple.append(_ripple(trace.phase(ph).v_c[a:b]))
        izm = np.array([circulating_ratio(trace, ph, w) for ph in PHASES])
        rmse = np.array([tracking_rmse(trace, ph, w) for ph in PHASES])
        out.append(
            SegmentMetrics(
                index=idx,
                t_start=start,
                t_end=end,
                n_sw_max=n_max,
                window=w,
                f_s_per_sm=np.array(f_s),
                ripple_pct=np.array(ripple),
                izm_ratio_pct=izm,
                tracking_rmse_pct=rmse,
                transitions_per_step=np.array(trans),
            )
        )
    return out


def reduction_percent(report: list[SegmentMetrics], phase: str = "a") -> list[float]:
    """Switching-frequency reduction of each segment versus the first one,
    in percent (the first reported segment is the baseline)."""
    _phase_row(phase)
    if not report:
        return []
    base = report[0].f_s_mean(phase)
    if base == 0.0:
        return [math.nan for _ in report]
    return [100.0 * (1.0 - seg.f_s_mean(phase) / base) for seg in report]
