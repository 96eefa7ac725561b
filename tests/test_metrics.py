"""Metric definitions checked through segment_report on hand-built
synthetic traces, plus the segmentation logic on real runs."""
import copy
import math
import re
from dataclasses import fields

import numpy as np
import pytest

import mmcsim as m
from mmcsim.metrics import _phase_row
from mmcsim.scenario import PhaseTrace, steps_until

REL = 1e-12


def _synthetic_trace(u_a=None, v_c_a=None, i_ac=None, i_ref=None, i_circ=None,
                     steps=40, i_m=100.0):
    """Minimal single-segment trace on the 25 us grid; unspecified series
    default to zeros / nominal."""
    params = m.SystemParams(n=1)
    duration = steps * params.t_s
    # i_ref_peak = 2 p / (3 v_peak) = i_m  with v_peak = 1
    cfg = m.ScenarioConfig(
        params=params,
        duration=duration,
        warmup=0.0,
        p_ref=1.5 * i_m,
        v_s_peak=1.0,
        nsw_schedule=m.constant_schedule(duration, 1),
    )
    zeros = np.zeros(steps)
    u = np.zeros((steps, 2), dtype=np.int8)
    if u_a is not None:
        u[:, 0] = u_a
    v_c = np.full((steps, 2), 10e3)
    if v_c_a is not None:
        v_c[:, 0] = v_c_a
    tr = PhaseTrace(
        i_ac=np.array(i_ac, dtype=float) if i_ac is not None else zeros.copy(),
        i_ref=np.array(i_ref, dtype=float) if i_ref is not None else zeros.copy(),
        i_circ=np.array(i_circ, dtype=float) if i_circ is not None else zeros.copy(),
        v_grid=zeros.copy(),
        v_c=v_c,
        u=u,
    )
    return m.SimTrace(
        config=cfg,
        v_dc=np.full(steps, params.v_dc),
        phases={"a": tr, "b": copy.deepcopy(tr), "c": copy.deepcopy(tr)},
    )


def _phase_a(trace, schedule=None, settle=0.0):
    """Phase A's row of every per-phase field, for each reported segment."""
    return [
        {f.name: getattr(seg, f.name)[0] for f in fields(seg)[5:]}
        for seg in m.segment_report(trace, schedule, settle)
    ]


def _schedule(*bounds):
    """Budget-1 segments between the given bounds."""
    return m.NswSchedule(tuple((lo, hi, 1) for lo, hi in zip(bounds, bounds[1:])))


# --------------------------------------------- effective switching frequency

def test_fs_constant_status_is_zero():
    trace = _synthetic_trace(u_a=np.ones(40))
    # the initial 0 -> 1 edge lands on the first step; skip it
    assert _phase_a(trace, settle=25e-6)[0]["f_s_per_sm"][0] == 0.0


def test_fs_toggling_20khz():
    # toggling every step for 1 ms at 25 us: 20 turn-on edges
    trace = _synthetic_trace(u_a=(np.arange(40) + 1) % 2)
    got = _phase_a(trace)[0]["f_s_per_sm"][0]
    assert got == pytest.approx(20000.0, rel=REL)


def test_fs_window_additivity():
    rng = np.random.default_rng(5)
    trace = _synthetic_trace(u_a=rng.integers(0, 2, size=40), steps=40)
    a, b, c = 0.0, 0.4e-3, 1e-3
    total = _phase_a(trace)[0]["f_s_per_sm"][0] * (c - a)
    left, right = (rep["f_s_per_sm"][0] for rep in _phase_a(trace, _schedule(a, b, c)))
    assert total == pytest.approx(left * (b - a) + right * (c - b), rel=1e-9)


def test_off_grid_window_is_half_open():
    # steps end at 25, 50, 75, 100, 125 us; (30, 110] and (37.5, 112.5]
    # both hold the three steps ending at 50, 75 and 100 us
    trace = _synthetic_trace(u_a=[0, 1, 0, 1, 0] + [0] * 35)
    for lo, hi in ((30e-6, 110e-6), (37.5e-6, 112.5e-6)):
        assert [steps_until(t, 25e-6) for t in (lo, hi)] == [1, 4]
        # the turn-on edges at 50 and 100 us
        seg = m.segment_report(trace, _schedule(0.0, hi, 1e-3), settle=lo)[0]
        assert seg.window == (lo, hi)
        assert seg.f_s_per_sm[0, 0] * (hi - lo) == pytest.approx(2.0, rel=1e-9)
    # a bound on a step's end leaves that step out below and in above: the
    # steps ending at 75 and 100 us, and the turn-on at 100 us
    seg = m.segment_report(trace, _schedule(0.0, 100e-6, 1e-3), settle=50e-6)[0]
    assert seg.f_s_per_sm[0, 0] * 50e-6 == pytest.approx(1.0, rel=1e-9)


def test_fs_empty_window_rejected():
    # settle 1 ms leaves the 1 ms trace the window (1 ms, 1 ms], and 2 ms
    # the window (2 ms, 1 ms]
    trace = _synthetic_trace()
    for settle in (1e-3, 2e-3):
        with pytest.raises(ValueError, match=r"^settle .* leaves no samples in segment 0 \(0.0, 0.001\]$"):
            m.segment_report(trace, settle=settle)


def test_window_past_the_trace_is_clipped():
    # the 40-step (1 ms) trace toggling every step: 20 turn-ons in 1 ms;
    # dividing them by the 2 ms span of (0, 2 ms] would read 10,000 Hz
    trace = _synthetic_trace(u_a=(np.arange(40) + 1) % 2)
    for bounds in ((0.0, 2e-3), (0.0, 1e-3 + 1e-12), (0.0, 1e-3, 2e-3, 3e-3)):
        rep = m.segment_report(trace, _schedule(*bounds), settle=0.0)
        # a segment past the trace holds no steps and is not reported
        assert [seg.window for seg in rep] == [(0.0, 1e-3)]
        assert rep[0].f_s_per_sm[0, 0] == pytest.approx(20000.0, rel=REL)


# each per-phase quantity of a segment, read for a phase label through the
# row lookup that reduction_percent uses
READERS = {
    "f_s_mean": lambda rep, ph: rep[0].f_s_per_sm[_phase_row(ph)].mean(),
    "ripple_mean": lambda rep, ph: rep[0].ripple_pct[_phase_row(ph)].mean(),
    "izm_ratio": lambda rep, ph: rep[0].izm_ratio_pct[_phase_row(ph)],
    "tracking": lambda rep, ph: rep[0].tracking_rmse_pct[_phase_row(ph)],
    "reduction_percent": m.reduction_percent,
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("phase", ["d", "A", "", None], ids=repr)
def test_segment_metrics_reject_bad_phase(reader, phase):
    # "d" used to end in "tuple.index(x): x not in tuple"
    report = m.segment_report(_synthetic_trace(u_a=(np.arange(40) + 1) % 2), settle=0.0)
    read = READERS[reader]
    with pytest.raises(ValueError, match=re.escape(f"phase must be one of ('a', 'b', 'c'), got {phase!r}")):
        read(report, phase)
    # the synthetic legs are copies of one another
    assert read(report, "c") == read(report, "a")


def test_edges_signed_for_bool_and_int8_status():
    # a diff of bools reads "changed": a turn-off would count as a turn-on
    status = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1, 0] * 4)
    want = np.diff(status, prepend=0)  # every submodule is off before step 0
    results = []
    for dtype in (np.int8, bool):
        trace = _synthetic_trace(u_a=status)
        tr = trace.phase("a")
        tr.u = tr.u.astype(dtype)
        assert tr.edges().dtype == np.int8
        assert np.array_equal(tr.edges()[:, 0], want)
        assert np.array_equal(tr.edges(3, 17)[:, 0], want[3:17])
        assert tr.edges(5, 5).shape == (0, 2)
        reps = _phase_a(trace) + _phase_a(trace, _schedule(0.0, 100e-6, 575e-6, 1e-3))
        results.append([(rep["f_s_per_sm"][0], *rep["transitions_per_step"]) for rep in reps])
    assert results[0] == results[1]
    # 12 turn-ons in 1 ms, the first from the all-off start
    assert results[1][0][0] == pytest.approx(12e3, rel=REL)


# ------------------------------------------------------------------- ripple

def test_ripple_constant_is_zero():
    trace = _synthetic_trace()
    assert _phase_a(trace)[0]["ripple_pct"][0] == 0.0


def test_ripple_definition_fixture():
    # swing 10 kV +/- 60 V around a 10 kV mean: 1.2 percent
    v = np.full(40, 10e3)
    v[10] = 10060.0
    v[20] = 9940.0
    trace = _synthetic_trace(v_c_a=v)
    assert _phase_a(trace)[0]["ripple_pct"][0] == pytest.approx(1.2, rel=1e-9)


# ------------------------------------------------------- circulating ratio

def test_circulating_zero():
    trace = _synthetic_trace(i_ac=np.full(40, 345.0))
    assert _phase_a(trace)[0]["izm_ratio_pct"] == 0.0


def test_circulating_definition_fixture():
    iz = np.zeros(40)
    iz[5], iz[15] = 34.5, -34.5
    i = np.zeros(40)
    i[0] = 345.0
    trace = _synthetic_trace(i_ac=i, i_circ=iz)
    assert _phase_a(trace)[0]["izm_ratio_pct"] == pytest.approx(10.0, rel=1e-9)


# ------------------------------------------------------------ tracking rmse

def test_tracking_exact_is_zero():
    ref = 100.0 * np.sin(np.linspace(0, 2 * np.pi, 40))
    trace = _synthetic_trace(i_ac=ref, i_ref=ref)
    assert _phase_a(trace)[0]["tracking_rmse_pct"] == 0.0


def test_tracking_offset_fixture():
    # constant offset of 1% of the reference amplitude: 100 * 0.01 * sqrt(2)
    ref = 100.0 * np.sin(np.linspace(0, 2 * np.pi, 40))
    trace = _synthetic_trace(i_ac=ref + 1.0, i_ref=ref, i_m=100.0)
    got = _phase_a(trace)[0]["tracking_rmse_pct"]
    assert got == pytest.approx(1.4142135623730951, rel=1e-9)


# ---------------------------------------------------------- segment report

def test_segment_report_single_segment(fast_v1fc_trace):
    rep = m.segment_report(
        fast_v1fc_trace, schedule=m.constant_schedule(0.5, 6), settle=0.01
    )
    assert len(rep) == 1
    assert rep[0].window[0] == pytest.approx(0.11)
    assert rep[0].window[1] == pytest.approx(0.5)


def test_segment_report_fields_match_numpy_derivation(fast_v1fc_trace):
    # every per-phase field of one window, from the statuses, voltages and
    # currents by plain numpy: (0.31, 0.35] holds rows 12400..13999
    trace = fast_v1fc_trace
    n = trace.config.params.n
    seg = m.segment_report(trace, settle=0.01)[4]
    assert seg.window == (pytest.approx(0.31), 0.35)
    a, b = 12400, 14000
    span = seg.window[1] - seg.window[0]
    ref_rms = trace.config.i_ref_peak / np.sqrt(2.0)
    for p, ph in enumerate("abc"):
        tr = trace.phase(ph)
        u = tr.u[a - 1 : b].astype(int)
        before, after = u[:-1], u[1:]
        turn_ons = ((before == 0) & (after == 1)).sum(axis=0)
        flips = before != after
        assert np.array_equal(seg.f_s_per_sm[p], turn_ons / span)
        assert np.array_equal(seg.transitions_per_step[p], [flips[:, :n].sum(axis=1).mean(),
                                                            flips[:, n:].sum(axis=1).mean()])
        v = tr.v_c[a:b]
        assert seg.ripple_pct[p] == pytest.approx(100.0 * np.ptp(v, axis=0) / v.mean(axis=0), rel=1e-12)
        iz, i = tr.i_circ[a:b], tr.i_ac[a:b]
        assert seg.izm_ratio_pct[p] == pytest.approx(100.0 * np.max(np.abs(iz - iz.mean())) / np.max(np.abs(i)),
                                                     rel=1e-12)
        rmse = np.sqrt(np.mean((i - tr.i_ref[a:b]) ** 2))
        assert seg.tracking_rmse_pct[p] == pytest.approx(100.0 * rmse / ref_rms, rel=1e-12)


def test_window_bounds_on_the_grid_count_whole_steps(fast_v1fc_trace):
    # the step ending at 0.35 s has the float timestamp 0.35000000000000003
    ts = fast_v1fc_trace.config.params.t_s
    assert fast_v1fc_trace.t[13999] > 0.35
    assert [steps_until(t, ts) for t in (0.31, 0.35)] == [12400, 14000]


def test_segment_report_staircase_layout(fast_v1fc_trace):
    rep = m.segment_report(fast_v1fc_trace, settle=0.01)
    assert [seg.n_sw_max for seg in rep] == [6, 0, 1, 2, 3, 4, 5, 6]
    assert rep[0].window[0] == pytest.approx(0.11)  # clipped to warmup + settle
    for seg in rep[1:]:
        assert seg.window[0] == pytest.approx(seg.t_start + 0.01)
        assert seg.window[1] == pytest.approx(seg.t_end)


def test_segment_report_paper_layout(paper_v1fc_trace):
    rep = m.segment_report(paper_v1fc_trace)
    assert len(rep) == 8
    assert [seg.n_sw_max for seg in rep] == [6, 0, 1, 2, 3, 4, 5, 6]
    assert rep[0].window == (pytest.approx(1.02), pytest.approx(1.2))


def test_v1f2_switching_rate_flat_across_segments(paper_all6_v1f2_trace):
    # the conventional algorithm never reacts to the budget, so its
    # switching rate is stationary across the staircase segmentation
    segs = tuple((0.2 * k + 1.0, 0.2 * k + 1.2, 6) for k in range(8))
    rep = m.segment_report(
        paper_all6_v1f2_trace, schedule=m.NswSchedule(segments=segs)
    )
    means = np.array([seg.f_s_per_sm[0].mean() for seg in rep])
    assert np.ptp(means) / means.mean() < 0.15


def test_realized_transitions_follow_budget(paper_v1fc_trace):
    # soft monotonicity: tighter budgets cannot raise the realized
    # per-step transition count
    rep = m.segment_report(paper_v1fc_trace)
    by_budget = {seg.n_sw_max: seg.transitions_per_step[0].mean() for seg in rep[:7]}
    assert by_budget[0] <= by_budget[1] * 1.02
    assert by_budget[1] <= by_budget[2] * 1.02
    assert by_budget[2] <= by_budget[6] * 1.02


def test_settle_margin_must_leave_samples(fast_v1fc_trace):
    with pytest.raises(ValueError):
        m.segment_report(fast_v1fc_trace, settle=0.06)


@pytest.mark.parametrize("settle", [float("nan"), float("inf"), float("-inf"), -0.01])
def test_settle_must_be_finite_and_non_negative(settle):
    # NaN used to end in "cannot convert float NaN to integer", inf in an
    # OverflowError
    with pytest.raises(ValueError, match=r"^settle must be finite and >= 0, got "):
        m.segment_report(_synthetic_trace(), settle=settle)


@pytest.mark.parametrize("settle", ["0.01", None], ids=repr)
def test_settle_must_be_a_number(settle):
    # a string used to end in "TypeError: must be real number"
    with pytest.raises(ValueError, match=f"^settle: expected float, got {re.escape(repr(settle))}$"):
        m.segment_report(_synthetic_trace(), settle=settle)


@pytest.mark.parametrize(
    "bounds, match",
    [
        ((0.0, math.nan), r"segment 0 has a non-finite bound \(0.0, nan\]"),
        ((0.0, "0.5"), "segment 0 bounds: expected float, got '0.5'"),
    ],
    ids=["nan", "text"],
)
def test_re_slicing_schedule_checked_when_built(fast_v1fc_trace, bounds, match):
    # a NaN bound used to end in "cannot convert float NaN to integer", and a
    # text bound in a TypeError from a comparison, inside segment_report
    with pytest.raises(ValueError, match=f"^nsw_schedule: {match}$"):
        m.segment_report(fast_v1fc_trace, m.NswSchedule(((*bounds, 6),)))
