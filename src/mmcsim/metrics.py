"""Steady-state evaluation quantities computed from a simulation trace.

``segment_report`` measures each segment of a schedule over a half-open
window (t_lo, t_hi]; a trace row belongs to a window when its step ends
inside (see ``scenario.steps_until``).  ``_window_metrics`` computes every
per-phase quantity of all three legs at once, each as one reduction along
the rows of a (leg, column, row) transpose of a window of the trace's
blocks, and the per-phase fields of ``SegmentMetrics`` are its keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_type
from .scenario import PHASES, NswSchedule, ScenarioConfig, SimTrace, _edges, _phase_index, steps_until


def _percent(value: np.ndarray, ref: np.ndarray | float) -> np.ndarray:
    """``value`` in percent of ``ref``, elementwise; 0 of 0 reads 0, and
    more than 0 of 0 inf."""
    with np.errstate(all="ignore"):
        pct = 100.0 * value / ref
    return np.where(ref == 0.0, np.where(value == 0.0, 0.0, math.inf), pct)


def _window_metrics(trace: SimTrace, a: int, b: int, span: float, ref_rms: float) -> dict[str, np.ndarray]:
    """Every per-phase field of ``SegmentMetrics`` over rows ``a..b-1`` of
    the trace, one row per leg, by name; ``span`` is the window's length in
    seconds and ``ref_rms`` the reference current's RMS amplitude.

    Each metric is one reduction along the rows of a C-contiguous (leg,
    column, row) block, the transpose of a window of the trace's blocks.  A
    mean is a sum over one contiguous row, which numpy sums pairwise,
    divided by the row count; a mean along the rows of a record block would
    add them one after another and round differently.
    """
    rows = b - a
    record, currents = trace.record, trace.record["currents"][a:b]
    # the edge into row a is attributed to row a, so counts are additive
    # over adjacent windows; a 0->1 edge counts one on/off cycle
    edges = np.ascontiguousarray(np.moveaxis(_edges(trace.blocks["u"], a, b), 0, -1))
    v_c = np.ascontiguousarray(np.moveaxis(record["v_c"][a:b], 0, -1))
    i_ac = np.ascontiguousarray(currents[:, 0].T)
    iz = np.ascontiguousarray(currents[:, 1].T)
    err = np.ascontiguousarray((currents[:, 0] - trace.refs[a:b, 0]).T)
    iz_mean = np.add.reduce(iz, axis=-1) / rows
    return {
        "f_s_per_sm": np.add.reduce(edges > 0, axis=-1) / span,
        # peak-to-peak of each capacitor voltage, percent of its mean
        "ripple_pct": 100.0 * (np.maximum.reduce(v_c, axis=-1) - np.minimum.reduce(v_c, axis=-1))
        / (np.add.reduce(v_c, axis=-1) / rows),
        # largest i_z deviation from its window mean, percent of the AC
        # current amplitude (max |i| over the window)
        "izm_ratio_pct": _percent(
            np.maximum.reduce(np.abs(iz - iz_mean[:, None]), axis=-1), np.maximum.reduce(np.abs(i_ac), axis=-1)
        ),
        "tracking_rmse_pct": _percent(np.sqrt(np.add.reduce(err * err, axis=-1) / rows), ref_rms),
        # the upper arm's columns, then the lower's
        "transitions_per_step": np.add.reduce((edges != 0).reshape(len(PHASES), 2, -1), axis=-1) / rows,
    }


@dataclass(frozen=True, eq=False)
class SegmentMetrics:
    """All evaluation quantities for one schedule segment.

    Array rows follow the phase order ("a", "b", "c"); submodule columns
    are upper arm first.  The fields after ``window`` are the keys of
    ``_window_metrics``, one row per phase.  ``window`` is the span actually
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
        fields = _window_metrics(trace, a, b, w[1] - w[0], ref_rms)
        out.append(SegmentMetrics(idx, *schedule.segments[idx], w, **fields))
    return out


def reduction_percent(report: list[SegmentMetrics], phase: str = "a") -> list[float]:
    """Switching-frequency reduction of each segment versus the first one,
    in percent (the first reported segment is the baseline)."""
    row = _phase_index(phase)
    means = [float(seg.f_s_per_sm[row].mean()) for seg in report]
    if means and means[0] == 0.0:
        return [math.nan for _ in means]
    return [100.0 * (1.0 - f / means[0]) for f in means]
