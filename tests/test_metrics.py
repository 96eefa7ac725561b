"""Metric definitions checked on hand-built synthetic traces, plus the
segmentation logic on real runs."""
import copy
import re

import numpy as np
import pytest

import mmcsim as m
from mmcsim.metrics import _window_slice
from mmcsim.scenario import PhaseTrace

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


# --------------------------------------------- effective switching frequency

def test_fs_constant_status_is_zero():
    trace = _synthetic_trace(u_a=np.ones(40))
    # the initial 0 -> 1 edge lands on the first step; skip it
    assert m.effective_switching_frequency(trace, 0, (25e-6, 1e-3)) == 0.0


def test_fs_toggling_20khz():
    # toggling every step for 1 ms at 25 us: 20 turn-on edges
    trace = _synthetic_trace(u_a=(np.arange(40) + 1) % 2)
    got = m.effective_switching_frequency(trace, 0, (0.0, 1e-3))
    assert got == pytest.approx(20000.0, rel=REL)


def test_fs_window_additivity():
    rng = np.random.default_rng(5)
    trace = _synthetic_trace(u_a=rng.integers(0, 2, size=40), steps=40)
    a, b, c = 0.0, 0.4e-3, 1e-3
    total = m.effective_switching_frequency(trace, 0, (a, c)) * (c - a)
    left = m.effective_switching_frequency(trace, 0, (a, b)) * (b - a)
    right = m.effective_switching_frequency(trace, 0, (b, c)) * (c - b)
    assert total == pytest.approx(left + right, rel=1e-9)


def test_off_grid_window_is_half_open():
    # steps end at 25, 50, 75, 100, 125 us; (30, 110] and (37.5, 112.5]
    # both hold the three steps ending at 50, 75 and 100 us
    trace = _synthetic_trace(u_a=[0, 1, 0, 1, 0] + [0] * 35)
    for window in ((30e-6, 110e-6), (37.5e-6, 112.5e-6)):
        assert _window_slice(trace, window) == (1, 4)
        # the turn-on edges at 50 and 100 us
        got = m.effective_switching_frequency(trace, 0, window)
        assert got * (window[1] - window[0]) == pytest.approx(2.0, rel=1e-9)
    # a bound on a step's end leaves that step out below and in above
    assert _window_slice(trace, (50e-6, 100e-6)) == (2, 4)


def test_fs_empty_window_rejected():
    trace = _synthetic_trace()
    with pytest.raises(ValueError):
        m.effective_switching_frequency(trace, 0, (1e-3, 1e-3))
    with pytest.raises(ValueError):
        m.effective_switching_frequency(trace, 0, (2e-3, 3e-3))


def test_window_past_the_trace_rejected():
    # the 40-step (1 ms) trace toggling every step: 20 turn-ons in 1 ms;
    # dividing them by the 2 ms span of (0, 2 ms] would read 10,000 Hz
    trace = _synthetic_trace(u_a=(np.arange(40) + 1) % 2)
    assert m.effective_switching_frequency(trace, 0, (0.0, 1e-3 + 1e-12)) == pytest.approx(
        20000.0, rel=1e-6
    )
    for window in ((0.0, 2e-3), (-25e-6, 1e-3), (0.0, 1e-3 + 25e-6)):
        with pytest.raises(ValueError, match="outside the trace"):
            m.effective_switching_frequency(trace, 0, window)
        with pytest.raises(ValueError, match="outside the trace"):
            m.ripple_percent(trace, 0, window)


METRICS_BY_SM = [m.effective_switching_frequency, m.ripple_percent]
METRICS_BY_PHASE = [m.circulating_ratio, m.tracking_rmse]


@pytest.mark.parametrize("metric", METRICS_BY_SM, ids=lambda f: f.__name__)
@pytest.mark.parametrize("sm", [-1, -2, 2, 1.0, True, "0", None], ids=repr)
def test_metric_rejects_bad_submodule(metric, sm):
    # the synthetic trace has n = 1, so sm lies in [0, 2); -1 used to read
    # the last submodule, and 2 ended in a bare IndexError
    trace = _synthetic_trace(u_a=(np.arange(40) + 1) % 2)
    with pytest.raises(ValueError, match=re.escape(f"sm must be an int in [0, 2), got {sm!r}")):
        metric(trace, sm, (0.0, 1e-3))
    metric(trace, np.int64(1), (0.0, 1e-3))  # a numpy int is an int


@pytest.mark.parametrize("metric", METRICS_BY_SM + METRICS_BY_PHASE, ids=lambda f: f.__name__)
@pytest.mark.parametrize("phase", ["d", "A", "", None], ids=repr)
def test_metric_rejects_bad_phase(metric, phase):
    # "d" used to end in a bare KeyError
    trace = _synthetic_trace(i_ac=np.ones(40))
    sm = {"sm": 0} if metric in METRICS_BY_SM else {}
    with pytest.raises(ValueError, match=re.escape(f"phase must be one of ('a', 'b', 'c'), got {phase!r}")):
        metric(trace, window=(0.0, 1e-3), phase=phase, **sm)


@pytest.mark.parametrize("reader", ["f_s_mean", "ripple_mean", "izm_ratio", "tracking", "reduction_percent"])
@pytest.mark.parametrize("phase", ["d", "A", "", None], ids=repr)
def test_segment_metrics_reject_bad_phase(reader, phase):
    # "d" used to end in "tuple.index(x): x not in tuple"
    report = m.segment_report(_synthetic_trace(u_a=(np.arange(40) + 1) % 2), settle=0.0)
    read = getattr(m, reader, None) or (lambda rep, ph: getattr(rep[0], reader)(ph))
    with pytest.raises(ValueError, match=re.escape(f"phase must be one of ('a', 'b', 'c'), got {phase!r}")):
        read(report, phase)
    read(report, "c")


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
        f_s = [m.effective_switching_frequency(trace, 0, w) for w in ((0.0, 1e-3), (100e-6, 575e-6))]
        results.append((tr.switches_upper, tr.switches_lower, f_s))
    (up8, low8, f_s8), (up_b, low_b, f_s_b) = results
    assert up8.dtype == up_b.dtype == np.int16
    assert np.array_equal(up8, up_b) and np.array_equal(low8, low_b)
    assert f_s8 == f_s_b
    # 12 turn-ons in 1 ms, the first from the all-off start
    assert f_s_b[0] == pytest.approx(12e3, rel=REL)


# ------------------------------------------------------------------- ripple

def test_ripple_constant_is_zero():
    trace = _synthetic_trace()
    assert m.ripple_percent(trace, 0, (0.0, 1e-3)) == 0.0


def test_ripple_definition_fixture():
    # swing 10 kV +/- 60 V around a 10 kV mean: 1.2 percent
    v = np.full(40, 10e3)
    v[10] = 10060.0
    v[20] = 9940.0
    trace = _synthetic_trace(v_c_a=v)
    assert m.ripple_percent(trace, 0, (0.0, 1e-3)) == pytest.approx(1.2, rel=1e-9)


# ------------------------------------------------------- circulating ratio

def test_circulating_zero():
    trace = _synthetic_trace(i_ac=np.full(40, 345.0))
    assert m.circulating_ratio(trace, "a", (0.0, 1e-3)) == 0.0


def test_circulating_definition_fixture():
    iz = np.zeros(40)
    iz[5], iz[15] = 34.5, -34.5
    i = np.zeros(40)
    i[0] = 345.0
    trace = _synthetic_trace(i_ac=i, i_circ=iz)
    assert m.circulating_ratio(trace, "a", (0.0, 1e-3)) == pytest.approx(10.0, rel=1e-9)


# ------------------------------------------------------------ tracking rmse

def test_tracking_exact_is_zero():
    ref = 100.0 * np.sin(np.linspace(0, 2 * np.pi, 40))
    trace = _synthetic_trace(i_ac=ref, i_ref=ref)
    assert m.tracking_rmse(trace, "a", (0.0, 1e-3)) == 0.0


def test_tracking_offset_fixture():
    # constant offset of 1% of the reference amplitude: 100 * 0.01 * sqrt(2)
    ref = 100.0 * np.sin(np.linspace(0, 2 * np.pi, 40))
    trace = _synthetic_trace(i_ac=ref + 1.0, i_ref=ref, i_m=100.0)
    got = m.tracking_rmse(trace, "a", (0.0, 1e-3))
    assert got == pytest.approx(1.4142135623730951, rel=1e-9)


# ---------------------------------------------------------- segment report

def test_segment_report_single_segment(fast_v1fc_trace):
    rep = m.segment_report(
        fast_v1fc_trace, schedule=m.constant_schedule(0.5, 6), settle=0.01
    )
    assert len(rep) == 1
    assert rep[0].window[0] == pytest.approx(0.11)
    assert rep[0].window[1] == pytest.approx(0.5)


def test_segment_report_equals_per_sm_functions(fast_v1fc_trace):
    trace = fast_v1fc_trace
    n = trace.config.params.n
    for seg in m.segment_report(trace, settle=0.01):
        a, b = _window_slice(trace, seg.window)
        for p, ph in enumerate("abc"):
            tr = trace.phase(ph)
            for sm in range(2 * n):
                assert seg.f_s_per_sm[p, sm] == m.effective_switching_frequency(trace, sm, seg.window, ph)
                assert seg.ripple_pct[p, sm] == m.ripple_percent(trace, sm, seg.window, ph)
            assert seg.transitions_per_step[p, 0] == tr.switches_upper[a:b].mean()
            assert seg.transitions_per_step[p, 1] == tr.switches_lower[a:b].mean()


def test_window_bounds_on_the_grid_count_whole_steps(fast_v1fc_trace):
    # the step ending at 0.35 s has the float timestamp 0.35000000000000003
    a, b = _window_slice(fast_v1fc_trace, (0.31, 0.35))
    assert (a, b) == (12400, 14000)


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
    means = np.array([seg.f_s_mean("a") for seg in rep])
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
