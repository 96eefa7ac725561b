"""Steady-state evaluation quantities computed from a simulation trace.

``segment_report`` measures each segment of a schedule over a half-open
window (t_lo, t_hi]; a trace row belongs to a window when its step ends
inside (see ``scenario.steps_until``).  ``_phase_metrics`` computes every
per-phase quantity from a window's rows of one leg, and the per-phase
fields of ``SegmentMetrics`` are its keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_type
from .scenario import PHASES, NswSchedule, PhaseTrace, ScenarioConfig, SimTrace, steps_until


def _phase_row(phase: str) -> int:
    """The row of ``phase`` in a SegmentMetrics array; an unknown label
    raises ``SimTrace.phase``'s ``ValueError``."""
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    return PHASES.index(phase)


def _ripple(v_c: np.ndarray) -> np.ndarray:
    """Peak-to-peak of each column over the rows, percent of its mean."""
    # each mean is a sum over one contiguous row of the transpose, which
    # numpy sums pairwise as it does a lone column; v_c.mean(axis=0) would
    # add the rows one after another and round differently
    mean = np.ascontiguousarray(v_c.T).mean(axis=-1)
    return 100.0 * (v_c.max(axis=0) - v_c.min(axis=0)) / mean


def _percent(value: float, ref: float) -> float:
    """``value`` in percent of ``ref``; 0 of 0 reads 0, and more than 0 of 0 inf."""
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return 100.0 * value / ref


def _phase_metrics(tr: PhaseTrace, a: int, b: int, span: float, ref_rms: float) -> dict[str, object]:
    """Every per-phase field of ``SegmentMetrics`` over rows ``a..b-1`` of
    one leg, by name; ``span`` is the window's length in seconds and
    ``ref_rms`` the reference current's RMS amplitude."""
    n = tr.u.shape[1] // 2
    # the edge into row a is attributed to row a, so counts are additive
    # over adjacent windows; a 0->1 edge counts one on/off cycle
    edges = tr.edges(a, b)
    iz = tr.i_circ[a:b]
    err = tr.i_ac[a:b] - tr.i_ref[a:b]
    return {
        "f_s_per_sm": np.count_nonzero(edges > 0, axis=0) / span,
        "ripple_pct": _ripple(tr.v_c[a:b]),
        # largest i_z deviation from its window mean, percent of the AC
        # current amplitude (max |i| over the window)
        "izm_ratio_pct": _percent(float(np.abs(iz - iz.mean()).max()), float(np.abs(tr.i_ac[a:b]).max())),
        "tracking_rmse_pct": _percent(float(np.sqrt(np.mean(err * err))), ref_rms),
        "transitions_per_step": [np.count_nonzero(arm) / (b - a) for arm in (edges[:, :n], edges[:, n:])],
    }


@dataclass(frozen=True, eq=False)
class SegmentMetrics:
    """All evaluation quantities for one schedule segment.

    Array rows follow the phase order ("a", "b", "c"); submodule columns
    are upper arm first.  The fields after ``window`` are the keys of
    ``_phase_metrics``, one row per phase.  ``window`` is the span actually
    measured, i.e. the segment clipped to the post-warmup region minus the
    settle margin.  ``==`` is identity, as an array has no truth value.
    """

    index: int
    t_start: float
    t_end: float
    n_sw_max: int
    window: tuple[float, float]
    f_s_per_sm: np.ndarray          # (3, 2n) turn-ons per second [Hz]
    ripple_pct: np.ndarray          # (3, 2n)
    izm_ratio_pct: np.ndarray       # (3,)
    tracking_rmse_pct: np.ndarray   # (3,) percent of the reference RMS
    transitions_per_step: np.ndarray  # (3, 2) mean per arm (upper, lower)


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
    _check_type("settle", settle, float)
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
    ts = trace.config.params.t_s
    ref_rms = trace.config.i_ref_peak / math.sqrt(2.0)
    out: list[SegmentMetrics] = []
    for idx, w in segment_windows(trace.config, schedule, settle):
        a, b = (steps_until(t, ts) for t in w)
        rows = [_phase_metrics(trace.phase(ph), a, b, w[1] - w[0], ref_rms) for ph in PHASES]
        fields = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        out.append(SegmentMetrics(idx, *schedule.segments[idx], w, **fields))
    return out


def reduction_percent(report: list[SegmentMetrics], phase: str = "a") -> list[float]:
    """Switching-frequency reduction of each segment versus the first one,
    in percent (the first reported segment is the baseline)."""
    row = _phase_row(phase)
    means = [float(seg.f_s_per_sm[row].mean()) for seg in report]
    if means and means[0] == 0.0:
        return [math.nan for _ in means]
    return [100.0 * (1.0 - f / means[0]) for f in means]
