"""Scenario assembly: sources, schedule lookup, and the run loop."""
import math
from dataclasses import replace

import numpy as np
import pytest

import mmcsim as m
from mmcsim.scenario import PHASES, PhaseTrace, config_from_dict, config_to_dict

REL = 1e-12


# ---------------------------------------------------------------- sources

def test_reference_current_zero_power():
    cfg = m.ScenarioConfig(p_ref=0.0, duration=0.1, warmup=0.0,
                           nsw_schedule=m.constant_schedule(0.1, 6))
    for t in (0.0, 1e-3, 7.7e-3):
        for ph in "abc":
            assert m.reference_current(cfg, t, ph) == 0.0


def test_reference_current_amplitude():
    cfg = m.paper_config()
    # 2 * 13.18 MW / (3 * 25.5 kV), hand oracle
    assert cfg.i_ref_peak == pytest.approx(344.57516339869284, rel=REL)
    quarter = 1.0 / (4.0 * cfg.params.f_grid)
    assert m.reference_current(cfg, quarter, "a") == pytest.approx(
        cfg.i_ref_peak, rel=1e-9
    )


def test_reference_current_phase_b():
    cfg = m.paper_config()
    expect = -cfg.i_ref_peak * math.sin(2.0 * math.pi / 3.0)
    assert m.reference_current(cfg, 0.0, "b") == pytest.approx(expect, rel=1e-9)


def test_grid_voltage_fixtures():
    cfg = m.paper_config()
    assert m.grid_voltage(cfg, 0.0, "a") == 0.0
    quarter = 1.0 / (4.0 * cfg.params.f_grid)
    assert m.grid_voltage(cfg, quarter, "a") == pytest.approx(25.5e3, rel=1e-9)


def test_grid_voltage_balanced_sum():
    cfg = m.paper_config()
    for t in np.linspace(0.0, 0.05, 23):
        total = sum(m.grid_voltage(cfg, float(t), ph) for ph in "abc")
        assert abs(total) < 1e-6 * cfg.v_s_peak


def test_nominal_circulating_current():
    cfg = m.paper_config()
    assert cfg.i_circ_nominal == pytest.approx(13.18e6 / (3.0 * 60e3), rel=REL)


# --------------------------------------------------------------- schedule

def test_nsw_at_staircase_values():
    sched = m.paper_schedule()
    assert sched.at(1.3) == 0
    assert sched.at(1.5) == 1
    assert sched.at(2.5) == 6
    assert sched.at(0.5) == 6
    # boundaries are half-open on the left
    assert sched.at(1.2) == 6
    assert sched.at(1.2 + 1e-9) == 0
    assert sched.at(2.6) == 6


def test_nsw_at_outside_span():
    sched = m.paper_schedule()
    for t in (0.0, -1.0, 2.7):
        with pytest.raises(ValueError):
            sched.at(t)


def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 7),)).validate(6, 1.0)
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 6), (1.5, 2.0, 3))).validate(6, 2.0)
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 6), (0.5, 2.0, 3))).validate(6, 2.0)
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 6),)).validate(6, 2.0)


@pytest.mark.parametrize(
    "cfg",
    [
        m.paper_config(),
        m.fast_config("v1f2"),
        m.fast_config(dc_model="piline"),
        m.ScenarioConfig(
            params=m.SystemParams(n=4, v_dc=40e3, t_s=50e-6, w_circ=0.5),
            duration=0.5,
            warmup=0.2,
            nsw_schedule=m.NswSchedule(((0.0, 0.25, 4), (0.25, 0.5, 1))),
        ),
    ],
    ids=["paper", "fast", "piline", "custom"],
)
def test_config_dict_roundtrip(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.pop("warmup"), "warmup"),
        (lambda d: d["params"].update(resistance=5.0), "resistance"),
        (lambda d: d["params"].pop("c_sm"), "c_sm"),
    ],
    ids=["unknown", "missing", "unknown-param", "missing-param"],
)
def test_config_from_dict_names_bad_key(edit, key):
    data = config_to_dict(m.fast_config())
    edit(data)
    with pytest.raises(ValueError, match=key):
        config_from_dict(data)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="duration"):
        m.ScenarioConfig(duration=0.1 + 1e-5 / 3,
                         nsw_schedule=m.constant_schedule(0.1 + 1e-5 / 3, 6))
    with pytest.raises(ValueError, match="warmup"):
        m.ScenarioConfig(duration=0.1, warmup=0.2,
                         nsw_schedule=m.constant_schedule(0.1, 6))
    with pytest.raises(ValueError, match="algorithm"):
        m.ScenarioConfig(algorithm="pwm")
    with pytest.raises(ValueError, match="dc_model"):
        m.ScenarioConfig(dc_model="ideal")


# --------------------------------------------------------------- run loop

def test_idle_run_stays_near_equilibrium():
    cfg = m.ScenarioConfig(duration=0.05, warmup=0.05, p_ref=0.0,
                           nsw_schedule=m.constant_schedule(0.05, 6))
    trace = m.run_scenario(cfg)
    assert trace.steps == 2000
    for ph in "abc":
        p = trace.phase(ph)
        # residual hunting is bounded by the one-submodule quanta
        assert np.abs(p.i_ac).max() < 30.0
        assert np.abs(p.i_circ).max() < 50.0
        assert np.abs(p.v_c - 10e3).max() < 0.005 * 10e3


def test_record_count_matches_duration(fast_v1fc_trace):
    cfg = fast_v1fc_trace.config
    assert fast_v1fc_trace.steps == round(cfg.duration / cfg.params.t_s)
    assert fast_v1fc_trace.t[0] == pytest.approx(cfg.params.t_s, rel=REL)
    assert fast_v1fc_trace.t[-1] == pytest.approx(cfg.duration, rel=1e-9)


def test_stiff_source_constant_vdc(fast_v1fc_trace):
    assert np.all(fast_v1fc_trace.v_dc == fast_v1fc_trace.config.params.v_dc)


def test_schedule_fidelity(fast_v1fc_trace):
    # every bound of the fast schedule lies on the step grid: the segment
    # (start, end] holds rows round(start / t_s) .. round(end / t_s) - 1
    cfg = fast_v1fc_trace.config
    ts = cfg.params.t_s
    covered = 0
    for start, end, n_max in cfg.nsw_schedule.segments:
        rows = fast_v1fc_trace.n_sw_max[round(start / ts):round(end / ts)]
        assert (rows == n_max).all()
        covered += len(rows)
    assert covered == fast_v1fc_trace.steps


def _run_lengths(values):
    edges = np.flatnonzero(np.diff(values)) + 1
    return np.diff(np.concatenate([[0], edges, [len(values)]])).tolist()


def test_budget_segments_have_whole_step_counts(fast_v1fc_trace):
    # step 14,000 ends at 0.35000000000000003 s; it belongs to (0.30, 0.35]
    assert _run_lengths(fast_v1fc_trace.n_sw_max) == [6000] + [2000] * 7
    assert fast_v1fc_trace.n_sw_max[13999] == 3
    cfg = m.paper_config()
    budgets = cfg.nsw_schedule.per_step(cfg.params.t_s, cfg.steps)
    assert _run_lengths(budgets) == [48000] + [8000] * 7
    assert budgets[55999] == 0  # the step ending at 1.4 s


def test_three_phase_symmetry(paper_all6_v1f2_trace):
    # balanced sources: steady-state per-phase metrics agree within 5%
    rep = m.segment_report(paper_all6_v1f2_trace)[0]
    fs = [rep.f_s_mean(ph) for ph in "abc"]
    rip = [rep.ripple_mean(ph) for ph in "abc"]
    assert (max(fs) - min(fs)) / np.mean(fs) < 0.05
    assert (max(rip) - min(rip)) / np.mean(rip) < 0.05


def test_piline_bus_stays_bounded():
    cfg = m.ScenarioConfig(duration=0.2, warmup=0.1, dc_model="piline",
                           nsw_schedule=m.constant_schedule(0.2, 6))
    trace = m.run_scenario(cfg)
    v = trace.v_dc
    assert v.min() > 0.97 * 60e3
    assert v.max() < 1.03 * 60e3
    assert abs(v.mean() - 60e3) < 0.005 * 60e3


def test_unstable_piline_reports_divergence():
    # a lumped LC far beyond the stability limit of the fixed step
    cfg = m.ScenarioConfig(duration=0.01, warmup=0.0, dc_model="piline",
                           line_length_km=1.0, line_c_per_km=1e-12,
                           line_l_per_km=1e-12,
                           nsw_schedule=m.constant_schedule(0.01, 6))
    with pytest.raises(m.SimulationDiverged, match="step"):
        m.run_scenario(cfg)


def test_trace_switch_counts_match_status_stream(fast_v1fc_trace):
    tr = fast_v1fc_trace.phase("a")
    n = fast_v1fc_trace.config.params.n
    prev = np.zeros(2 * n, dtype=np.int8)
    for k in range(0, fast_v1fc_trace.steps, 7):
        if k > 0:
            prev = tr.u[k - 1]
        flips = np.abs(tr.u[k].astype(int) - prev.astype(int))
        assert tr.switches_upper[k] == flips[:n].sum()
        assert tr.switches_lower[k] == flips[n:].sum()


# ------------------------------------------------ the engine and its oracle

def _reference_run(config):
    """``run_scenario`` as a loop over the scalar building blocks: per step
    and phase, ``modulate_phase`` then ``step_phase`` on dataclass states,
    the pi-line bus voltage passed in through a rebuilt ``SystemParams``."""
    params = config.params
    n = params.n
    ts = params.t_s
    steps = config.steps
    states = {
        ph: m.nominal_phase_state(params, m.grid_voltage(config, 0.0, ph)) for ph in PHASES
    }
    nsw_arr = config.nsw_schedule.per_step(ts, steps)
    v_dc_arr = np.zeros(steps)
    traces = {
        ph: PhaseTrace(
            i_ac=np.zeros(steps), i_ref=np.zeros(steps), i_circ=np.zeros(steps),
            v_grid=np.zeros(steps), v_c=np.zeros((steps, 2 * n)),
            u=np.zeros((steps, 2 * n), dtype=np.int8),
        )
        for ph in PHASES
    }
    piline = config.dc_model == "piline"
    v_dc_now = params.v_dc
    i_line = 0.0
    if piline:
        l_total = config.line_l_per_km * config.line_length_km
        c_end = config.line_c_per_km * config.line_length_km / 2.0
    params_now = params
    for k, nsw in enumerate(nsw_arr.tolist()):
        t_next = (k + 1) * ts
        if piline:
            params_now = replace(params, v_dc=v_dc_now)
        iz_sum = 0.0
        for ph in PHASES:
            st = states[ph]
            i_ref_next = m.reference_current(config, t_next, ph)
            try:
                sel = m.modulate_phase(
                    st, i_ref_next, nsw, config.algorithm, params_now,
                    i_circ_nominal=config.i_circ_nominal,
                )
                new_st = m.step_phase(
                    st, sel.decision, m.grid_voltage(config, t_next, ph), params_now
                )
            except m.SimulationDiverged as exc:
                raise m.SimulationDiverged(
                    f"phase {ph} diverged at step {k + 1} (t = {t_next:.6f} s): {exc}"
                ) from None
            tr = traces[ph]
            tr.i_ac[k] = new_st.i_ac
            tr.i_ref[k] = i_ref_next
            tr.i_circ[k] = new_st.i_circ
            tr.v_grid[k] = new_st.v_grid
            tr.v_c[k] = new_st.upper.v_c + new_st.lower.v_c
            tr.u[k] = new_st.upper.u + new_st.lower.u
            states[ph] = new_st
            iz_sum += new_st.i_circ
        v_dc_arr[k] = params_now.v_dc
        if piline:
            i_line += ts / l_total * (params.v_dc - v_dc_now)
            v_dc_now += ts / c_end * (i_line - iz_sum)
            if not (math.isfinite(v_dc_now) and v_dc_now > 0.0):
                raise m.SimulationDiverged(
                    f"DC bus voltage {v_dc_now!r} at step {k + 1} (t = {t_next:.6f} s)"
                )
    return m.SimTrace(config=config, n_sw_max=nsw_arr, v_dc=v_dc_arr, phases=traces)


def _assert_same_trace(got, want):
    for name in ("n_sw_max", "v_dc"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for ph in PHASES:
        for name in ("i_ac", "i_ref", "i_circ", "v_grid", "v_c", "u"):
            a, b = getattr(got.phase(ph), name), getattr(want.phase(ph), name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{ph}.{name}"


def _staircase(duration, n):
    """The fast profile's staircase compressed to ``duration``, budgets
    capped at ``n``."""
    scale = duration / 0.5
    return m.NswSchedule(tuple(
        (round(start * scale, 9), round(end * scale, 9), min(budget, n))
        for start, end, budget in m.fast_schedule().segments
    ))


def test_engine_matches_scalar_loop_fast_profile(fast_v1fc_trace):
    _assert_same_trace(fast_v1fc_trace, _reference_run(fast_v1fc_trace.config))


@pytest.mark.parametrize(
    "cfg",
    [
        m.fast_config("v1f2", duration=0.1, warmup=0.0, nsw_schedule=_staircase(0.1, 6)),
        m.fast_config("v1fc", dc_model="piline", duration=0.1, warmup=0.0,
                      nsw_schedule=_staircase(0.1, 6)),
        m.fast_config("v1f2", dc_model="piline", duration=0.1, warmup=0.0,
                      nsw_schedule=_staircase(0.1, 6)),
        m.fast_config("v1fc", params=m.SystemParams(n=4, v_dc=40e3, w_circ=0.1),
                      duration=0.1, warmup=0.0, nsw_schedule=_staircase(0.1, 4)),
    ],
    ids=["v1f2-stiff", "v1fc-piline", "v1f2-piline", "n4-w_circ0.1"],
)
def test_engine_matches_scalar_loop(cfg):
    _assert_same_trace(m.run_scenario(cfg), _reference_run(cfg))


def test_leg_divergence_names_phase_and_step():
    # no weight on the circulating current, a 1 pH arm inductor and a
    # 1e300 V bus: the circulating current overflows within 15 steps
    cfg = m.ScenarioConfig(
        params=m.SystemParams(l_arm=1e-12, v_dc=1e300, w_circ=0.0),
        duration=0.002, warmup=0.0, nsw_schedule=m.constant_schedule(0.002, 6),
    )
    with pytest.raises(m.SimulationDiverged) as want:
        _reference_run(cfg)
    with pytest.raises(m.SimulationDiverged, match=r"^phase a diverged at step \d+ ") as got:
        m.run_scenario(cfg)
    # the same phase, step and time
    assert str(got.value).split(":")[0] == str(want.value).split(":")[0]
