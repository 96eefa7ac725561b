"""Scenario assembly: sources, schedule lookup, and the run loop."""
import math

import numpy as np
import pytest

import mmcsim as m
from mmcsim.scenario import config_from_dict, config_to_dict

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
