"""Scenario assembly: sources, schedule lookup, and the run loop."""
import math
import random
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import mmcsim as m
from mmcsim import kernel, scenario
from mmcsim.metrics import _window_metrics
from mmcsim.scenario import (
    PHASES, _blank_trace, _run_scalar, config_from_dict, config_to_dict, steps_until,
)

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

def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 7),)).validate(6, 1.0)
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 6), (1.5, 2.0, 3))).validate(6, 2.0)
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 6), (0.5, 2.0, 3))).validate(6, 2.0)
    with pytest.raises(ValueError, match="nsw_schedule"):
        m.NswSchedule(((0.0, 1.0, 6),)).validate(6, 2.0)
    with pytest.raises(ValueError, match="^nsw_schedule: needs at least one segment$"):
        m.NswSchedule(()).validate(6, 1.0)
    # the schedule would still tile (0, 1]
    with pytest.raises(ValueError, match=r"^nsw_schedule: segment 1 is empty \(0.5, 0.5\]$"):
        m.NswSchedule(((0.0, 0.5, 6), (0.5, 0.5, 3), (0.5, 1.0, 6))).validate(6, 1.0)
    # every comparison with a NaN is false, so the tiling checks alone pass it
    for bounds in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="^nsw_schedule: segment 0 has a non-finite bound"):
            m.NswSchedule(((*bounds, 6),)).validate(6, 1.0)
    # per_step's int16 cast would truncate a fractional budget
    for budget in (2.5, True, math.nan, "2"):
        with pytest.raises(ValueError, match="^nsw_schedule: segment 1 n_sw_max: expected int"):
            m.NswSchedule(((0.0, 0.5, 6), (0.5, 1.0, budget))).validate(6, 1.0)


@pytest.mark.parametrize(
    "segments, match",
    [
        (None, r"segments: expected a tuple of segments, got None"),
        (((0.0, 1.0),), r"segment 0: expected \(start, end, n_sw_max\), got \(0.0, 1.0\)"),
        (((0.0, 0.5, 6), (0.5, 1.0, 3, 4)),
         r"segment 1: expected \(start, end, n_sw_max\), got \(0.5, 1.0, 3, 4\)"),
        (((0.0, 1.0, 6), 1.0), r"segment 1: expected \(start, end, n_sw_max\), got 1.0"),
    ],
    ids=["none", "two-items", "four-items", "not-a-segment"],
)
def test_schedule_shape_checked_when_built(segments, match):
    # a ValueError naming the segment, not an unpacking error
    with pytest.raises(ValueError, match=f"^nsw_schedule: {match}$"):
        m.NswSchedule(segments)


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


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d["params"].update(n=6.0), "config.params.n: expected int, got 6.0"),
        (lambda d: d["params"].update(n=True), "config.params.n: expected int, got True"),
        (lambda d: d.update(warmup=False), "config.warmup: expected float, got False"),
        (lambda d: d.update(algorithm=1), "config.algorithm: expected str, got 1"),
        (lambda d: d.update(params=None), "config.params: expected a mapping, got None"),
        (lambda d: d["nsw_schedule"][1].__setitem__(2, 0.5),
         r"config.nsw_schedule\[1\]: expected int, got 0.5"),
        (lambda d: d["nsw_schedule"][0].__setitem__(0, "0"),
         r"config.nsw_schedule\[0\]: expected float, got '0'"),
    ],
    ids=["int-as-float", "int-as-bool", "float-as-bool", "str-as-int", "params-none",
         "budget-float", "start-str"],
)
def test_config_from_dict_names_mistyped_key(edit, match):
    data = config_to_dict(m.fast_config())
    edit(data)
    with pytest.raises(ValueError, match=f"^{match}$"):
        config_from_dict(data)


def test_config_from_dict_takes_int_for_float():
    data = config_to_dict(m.fast_config())
    data["warmup"] = 0
    data["nsw_schedule"][0][0] = 0
    assert config_from_dict(data) == m.fast_config(warmup=0.0)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: m.SystemParams(n=2.5), "n: expected int, got 2.5"),
        (lambda: m.SystemParams(n=True), "n: expected int, got True"),
        (lambda: m.SystemParams(v_dc="6e4"), "v_dc: expected float, got '6e4'"),
        (lambda: m.SystemParams(w_circ=False), "w_circ: expected float, got False"),
        (lambda: m.ScenarioConfig(p_ref="1"), "p_ref: expected float, got '1'"),
        (lambda: m.ScenarioConfig(algorithm=1), "algorithm: expected str, got 1"),
        (lambda: m.ScenarioConfig(params={}), "params: expected SystemParams, got {}"),
        (lambda: m.ScenarioConfig(nsw_schedule=((0.0, 2.6, 6),)),
         r"nsw_schedule: expected NswSchedule, got \(\(0.0, 2.6, 6\),\)"),
        (lambda: m.ScenarioConfig(nsw_schedule=m.NswSchedule(((0.0, "2.6", 6),))),
         "nsw_schedule: segment 0 bounds: expected float, got '2.6'"),
    ],
    ids=["n-float", "n-bool", "v_dc-str", "w_circ-bool", "p_ref-str", "algorithm-int", "params-dict",
         "schedule-tuple", "schedule-bound-str"],
)
def test_config_field_types_checked_where_they_live(build, match):
    # a ValueError naming the field, not a TypeError from a check of its
    # value or from the run
    with pytest.raises(ValueError, match=f"^{match}$"):
        build()


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


@pytest.mark.parametrize(
    "field",
    ["duration", "warmup", "p_ref", "v_s_peak", "line_length_km", "line_c_per_km", "line_l_per_km"],
)
def test_config_rejects_non_finite(field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=field):
            m.fast_config(**{field: value})


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(p_ref=1e300, v_s_peak=1e-300), "i_ref_peak"),
        (dict(p_ref=1e300, params=m.SystemParams(v_dc=1e-300)), "i_circ_nominal"),
        (dict(line_length_km=1e-200, line_l_per_km=1e-200), "line_inductance"),
        (dict(line_length_km=1e-200, line_c_per_km=1e-200), "line_end_capacitance"),
        (dict(line_length_km=1e200, line_c_per_km=1e200), "line_end_capacitance"),
        (dict(params=m.SystemParams(t_s=1e-300)), r"2\*\*53 steps"),
    ],
    ids=["i_ref_peak", "i_circ_nominal", "line-l-underflow", "line-c-underflow",
         "line-c-overflow", "too-many-steps"],
)
def test_config_rejects_derived_out_of_range(overrides, match):
    with pytest.raises(ValueError, match=match):
        m.fast_config(**overrides)


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


def test_trace_equality_is_identity():
    # == compares no arrays, which have no truth value: two runs' traces,
    # phases and segment metrics are unequal, and nothing raises
    cfg = m.fast_config(duration=0.02, warmup=0.0, nsw_schedule=m.constant_schedule(0.02, 6))
    a, b = m.run_scenario(cfg), m.run_scenario(cfg)
    assert a == a and (a == b) is False
    assert (a.phase("a") == b.phase("a")) is False
    seg_a, seg_b = (m.segment_report(trace, settle=0.005)[0] for trace in (a, b))
    assert (seg_a == seg_b) is False


def test_stiff_source_constant_vdc(fast_v1fc_trace):
    assert np.all(fast_v1fc_trace.v_dc == fast_v1fc_trace.config.params.v_dc)


def test_trace_budgets_come_from_the_schedule(fast_v1fc_trace):
    cfg = fast_v1fc_trace.config
    assert "n_sw_max" not in {f.name for f in fields(m.SimTrace)}
    budgets = fast_v1fc_trace.n_sw_max
    assert budgets.dtype == np.int16
    assert np.array_equal(budgets, cfg.nsw_schedule.per_step(cfg.params.t_s, cfg.steps))
    with pytest.raises(AttributeError):
        fast_v1fc_trace.n_sw_max = budgets


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
    fs = rep.f_s_per_sm.mean(axis=1)
    rip = rep.ripple_pct.mean(axis=1)
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


def test_scalar_piline_steps_check_no_params_again(monkeypatch):
    # the bus voltage reaches the scalar functions in a copy of params: the
    # fields it shares with params are not checked again on every step
    cfg = m.ScenarioConfig(duration=0.001, warmup=0.0, dc_model="piline",
                           nsw_schedule=m.constant_schedule(0.001, 6))
    checks = []
    post_init = m.SystemParams.__post_init__
    monkeypatch.setattr(m.SystemParams, "__post_init__", lambda self: checks.append(post_init(self)))
    trace = _run_scalar(cfg)
    assert checks == [] and len(set(trace.v_dc.tolist())) > 2


def test_unstable_piline_reports_divergence():
    # a lumped LC far beyond the stability limit of the fixed step
    cfg = m.ScenarioConfig(duration=0.01, warmup=0.0, dc_model="piline",
                           line_length_km=1.0, line_c_per_km=1e-12,
                           line_l_per_km=1e-12,
                           nsw_schedule=m.constant_schedule(0.01, 6))
    with pytest.raises(m.SimulationDiverged, match=r"^DC bus voltage .* at step 1 \(t = ") as want:
        _run_scalar(cfg)
    if kernel.library() is not None:  # the kernel's text is the scalar loop's
        with pytest.raises(m.SimulationDiverged) as got:
            m.run_scenario(cfg)
        assert str(got.value) == str(want.value)


# ------------------------------------------------ the kernel and its oracle

@pytest.fixture(scope="module")
def c_engine():
    """``run_scenario`` on the compiled kernel; skipped without one, as
    ``run_scenario`` then is the scalar loop it would be compared with."""
    if kernel.library() is None:
        pytest.skip(f"no step kernel: {kernel.engine()[1]}")
    return m.run_scenario


def _assert_same_trace(got, want):
    """The same bytes in every block, the start row included."""
    for name, block in want.blocks.items():
        assert got.blocks[name].tobytes() == block.tobytes(), name


def _staircase(duration, n):
    """The fast profile's staircase compressed to ``duration``, budgets
    capped at ``n``."""
    scale = duration / 0.5
    return m.NswSchedule(tuple(
        (round(start * scale, 9), round(end * scale, 9), min(budget, n))
        for start, end, budget in m.fast_schedule().segments
    ))


def _steps(algorithm, steps, budget):
    """A stiff-bus run of ``steps`` steps at a constant budget, no warm-up."""
    duration = steps * 25e-6
    return m.fast_config(algorithm, duration=duration, warmup=0.0,
                         nsw_schedule=m.constant_schedule(duration, budget))


def test_engine_matches_scalar_loop_fast_profile(c_engine, fast_v1fc_trace):
    # the fixture is run_scenario's, on the kernel
    _assert_same_trace(fast_v1fc_trace, _run_scalar(fast_v1fc_trace.config))


@pytest.mark.parametrize(
    "cfg",
    [
        m.fast_config("v1fc", dc_model="piline", duration=0.1, warmup=0.0,
                      nsw_schedule=_staircase(0.1, 6)),
        m.fast_config("v1fc", params=m.SystemParams(n=4, v_dc=40e3, w_circ=0.1),
                      duration=0.1, warmup=0.0, nsw_schedule=_staircase(0.1, 4)),
        # with no weight on the circulating current, cells tie exactly on the
        # objective, so the selection's first-minimum rule decides them
        *(m.fast_config(algorithm, params=m.SystemParams(w_circ=0.0), duration=0.005,
                        warmup=0.0, nsw_schedule=m.constant_schedule(0.005, budget))
          for algorithm, budget in (("v1fc", 0), ("v1fc", 3), ("v1f2", 6))),
        m.fast_config("v1f2"),
        m.fast_config("v1fc", dc_model="piline", duration=0.2, nsw_schedule=_staircase(0.2, 6)),
        m.fast_config("v1f2", dc_model="piline", duration=0.2, nsw_schedule=_staircase(0.2, 6)),
        # the benchmark's budget sweep: each constant budget from a warm-up.
        # From the balanced start every anticipated key ties on the first
        # steps, so the budget partition and the tie-breaks order the arms;
        # the staircases start at budget n, where the partition is off
        *(m.fast_config("v1fc", duration=0.02, warmup=0.005,
                        nsw_schedule=m.constant_schedule(0.02, budget)) for budget in range(7)),
        m.fast_config("v1fc", params=m.SystemParams(w_circ=0.0), duration=0.05, warmup=0.0,
                      nsw_schedule=_staircase(0.05, 6)),
        m.fast_config("v1fc", params=m.SystemParams(n=1), duration=0.05, warmup=0.0,
                      nsw_schedule=_staircase(0.05, 1)),
        m.fast_config("v1fc", params=m.SystemParams(n=12), duration=0.05, warmup=0.0,
                      nsw_schedule=_staircase(0.05, 12)),
        # on a stiff bus the kernel hands leg c over to its second thread at
        # step steps // 2, which restarts it from the record row before:
        # steps // 2 is 0, 1 and 1, then odd, then 25 ms into budget 0, far
        # over the cap
        *(_steps("v1fc", steps, 6) for steps in (1, 2, 3, 4001)),
        _steps("v1fc", 2000, 0),
        m.fast_config("v1f2", duration=0.025025, warmup=0.0, nsw_schedule=_staircase(0.025025, 6)),
    ],
    ids=["v1fc-piline", "n4-w_circ0.1", "w_circ0-budget0", "w_circ0-budget3", "w_circ0-v1f2",
         "fast-v1f2", "piline-v1fc", "piline-v1f2",
         *(f"budget{budget}" for budget in range(7)), "w_circ0", "n1", "n12",
         *(f"hand_over-{name}"
           for name in ("1-step", "2-steps", "3-steps", "4001-steps", "budget0", "v1f2"))],
)
def test_engine_matches_scalar_loop(c_engine, cfg):
    _assert_same_trace(c_engine(cfg), _run_scalar(cfg))


def test_engine_matches_scalar_loop_with_hand_over_at_every_step(c_engine):
    # runs of every length from 1 to 400 steps hand leg c over at every step
    # from 0 to 200; at a constant budget each is the first rows of the
    # longest run.  A restart that misses the state by one step's grid
    # voltage changes a selection in a few of these
    want = _run_scalar(_steps("v1fc", 400, 2)).record
    for steps in range(1, 401):
        got = c_engine(_steps("v1fc", steps, 2)).record
        for name, block in want.items():
            assert got[name].tobytes() == block[:steps].tobytes(), (steps, name)


def test_blank_trace_references_are_the_scalar_functions():
    # the scalar loop reads each step's i_ref and v_grid from _blank_trace's
    # references: reference_current's and grid_voltage's bits at the step's
    # end time, here over the first and the last 2,000 steps of a paper run
    config = m.paper_config()
    trace = _blank_trace(config)
    rows = [*range(2000), *range(config.steps - 2000, config.steps)]
    for ph in PHASES:
        tr = trace.phase(ph)
        for name, fn in (("i_ref", m.reference_current), ("v_grid", m.grid_voltage)):
            want = np.array([fn(config, (k + 1) * config.params.t_s, ph) for k in rows])
            assert getattr(tr, name)[rows].tobytes() == want.tobytes(), (ph, name)


def _short_blank_trace():
    config = m.fast_config(duration=0.001, warmup=0.0, nsw_schedule=m.constant_schedule(0.001, 6))
    return _blank_trace(config)


def test_trace_fields_are_views_of_its_blocks():
    # the trace's init fields are its config and blocks; the start row holds
    # _start_states, each record block and refs is the view of its block
    # after the start row, v_dc and each phase's fields are views of the
    # blocks, and a leg's fields are not rebound
    trace = _short_blank_trace()
    assert [trace.leg_state(ph, -1) for ph in PHASES] == scenario._start_states(trace.config)
    for k in (-2, trace.steps):
        with pytest.raises(IndexError, match=re.escape(f"trace row {k} outside -1..{trace.steps - 1}")):
            trace.leg_state("a", k)
    assert [f.name for f in fields(m.SimTrace) if f.init] == ["config", "blocks"]
    for name, block in trace.blocks.items():
        view = trace.refs if name == "refs" else trace.record[name]
        assert view.shape == (block.shape[0] - 1, *block.shape[1:]), name
        assert view.ctypes.data == block.ctypes.data + block.strides[0], name
    assert trace.v_dc is trace.record["v_dc"]
    for ph in PHASES:
        tr = trace.phase(ph)
        for name, block in (("i_ac", "currents"), ("i_circ", "currents"), ("v_c", "v_c"), ("u", "u")):
            assert np.shares_memory(getattr(tr, name), trace.record[block]), (ph, name)
        assert np.shares_memory(tr.i_ref, trace.refs) and np.shares_memory(tr.v_grid, trace.refs)
        with pytest.raises(AttributeError):
            tr.u = tr.u.astype(bool)


@pytest.mark.parametrize("wrong", ["shape", "dtype"])
@pytest.mark.parametrize("name", ["currents", "v_c", "u", "v_dc", "refs"])
def test_trace_refuses_a_block_off_its_layout(name, wrong):
    trace = _short_blank_trace()
    blocks = dict(trace.blocks)
    good = blocks[name]
    blocks[name] = bad = good[:-1] if wrong == "shape" else np.zeros(good.shape, np.float32)
    with pytest.raises(ValueError, match=re.escape(
        f"trace block {name}: expected {good.dtype} {good.shape}, got {bad.dtype} {bad.shape}"
    )):
        replace(trace, blocks=blocks)


def test_trace_refuses_a_record_off_its_names():
    trace = _short_blank_trace()
    blocks = dict(reversed(trace.blocks.items()))
    with pytest.raises(ValueError, match=re.escape(
        "trace blocks ['refs', 'v_dc', 'u', 'v_c', 'currents'], expected ['currents', 'v_c', 'u', 'v_dc', 'refs']"
    )):
        replace(trace, blocks=blocks)


def test_library_sines_equal_math_sin(c_engine):
    # libm's sin, which math.sin calls: the paper profile's references of
    # every phase, and arguments of every size, to the last bit
    lib = kernel.library()
    config = m.paper_config()
    assert _blank_trace(config, lib).refs.tobytes() == _blank_trace(config).refs.tobytes()
    rng = np.random.default_rng(18)
    x = np.concatenate([rng.uniform(-1e3, 1e3, 100_000), rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float)])
    got = np.empty_like(x)
    lib.mmcsim_sin(x.ctypes.data, got.ctypes.data, x.size)
    assert got.tobytes() == np.array([math.sin(v) for v in x.tolist()]).tobytes()


@pytest.mark.parametrize("fixture", ["paper_v1fc_trace", "paper_all6_v1f2_trace"])
def test_engine_matches_scalar_steps_from_paper_rows(c_engine, request, fixture):
    # the scalar functions restarted from two rows in each segment of the
    # paper staircase reach the kernel's next rows bit for bit; the deep
    # states of a paper run (budget 0 far over the cap) are never reached by
    # the from-zero runs above.  The pi-line's line current is not recorded,
    # so only a stiff bus can restart.
    trace = request.getfixturevalue(fixture)
    config, width = trace.config, 100
    params = config.params
    assert config.dc_model == "stiff"
    for start, end, _ in m.paper_schedule().segments:
        first, last = steps_until(start, params.t_s), steps_until(end, params.t_s) - 1
        # the second window runs into the next segment's budget
        for k in (first, min(last - width // 2, trace.steps - 1 - width)):
            for ph in PHASES:
                st = trace.leg_state(ph, k)
                for j in range(k + 1, k + width + 1):
                    t, nsw = trace.t[j].item(), trace.n_sw_max[j].item()
                    sel = m.modulate_phase(
                        st, m.reference_current(config, t, ph), nsw, config.algorithm, params,
                        i_circ_nominal=config.i_circ_nominal,
                    )
                    st = m.step_phase(st, sel.decision, m.grid_voltage(config, t, ph), params)
                    # repr writes each float's shortest round-trip text, so
                    # equal reprs are equal bits, the sign of a zero included
                    assert repr(st) == repr(trace.leg_state(ph, j)), (ph, k, j)


@pytest.mark.parametrize("k", [40_000, 55_000], ids=["budget6", "budget0-deep"])
@pytest.mark.parametrize(
    "config",
    [
        # leg c is handed over at step 200
        _steps("v1fc", 400, 0),
        _steps("v1fc", 1, 6),
        m.fast_config("v1f2", dc_model="piline", duration=0.01, warmup=0.0,
                      nsw_schedule=m.constant_schedule(0.01, 6)),
    ],
    ids=["stiff-400-steps", "1-step", "piline-v1f2"],
)
def test_engines_step_from_an_unbalanced_start(c_engine, monkeypatch, paper_v1fc_trace, config, k):
    # both engines start from _start_states, here the legs of paper row k:
    # at step 55,000, 7,000 steps into budget 0, the capacitors are far from
    # balanced and the statuses mixed.  The kernel reads the start row that
    # _blank_trace fills from it; the scalar loop steps from the states
    def paper_row(_config):
        return [paper_v1fc_trace.leg_state(ph, k) for ph in PHASES]

    monkeypatch.setattr(scenario, "_start_states", paper_row)
    got, want = c_engine(config), _run_scalar(config)
    assert [want.leg_state(ph, -1) for ph in PHASES] == paper_row(config)
    _assert_same_trace(got, want)


def test_edges_of_step_0_diff_against_the_start_row(monkeypatch, paper_v1fc_trace):
    # a budget-0 run from paper row 55,000: leg a keeps its six inserted
    # submodules on step 0, so it has no edge there, where an all-off start
    # would count six turn-ons; legs b and c switch.  Edges and switching
    # metrics diff step 0 against the start row, later steps the row before
    monkeypatch.setattr(scenario, "_start_states", lambda _: [paper_v1fc_trace.leg_state(ph, 55_000) for ph in PHASES])
    trace, rows = m.run_scenario(_steps("v1fc", 800, 0)), 40
    assert trace.phase("a").u[0].sum() == 6 and not trace.phase("a").edges(0, 1).any()
    assert not _window_metrics(trace, 0, 1, 25e-6, 1.0)["transitions_per_step"][0].any()
    got = _window_metrics(trace, 0, rows, rows * 25e-6, 1.0)
    for p, ph in enumerate(PHASES):
        want = np.diff(trace.blocks["u"][: rows + 1, p], axis=0)
        assert np.array_equal(trace.phase(ph).edges(0, rows), want) and want[0].any() == (p > 0), ph
        assert got["f_s_per_sm"][p].tolist() == (np.add.reduce(want > 0) / (rows * 25e-6)).tolist(), ph
        per_arm = np.add.reduce(want.reshape(rows, 2, -1) != 0, axis=(0, 2)) / rows
        assert got["transitions_per_step"][p].tolist() == per_arm.tolist(), ph


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_arm_sorter_matches_scalar_sorts_on_ties(c_engine, n):
    # capacitor voltages from three values, so keys tie within an arm, and
    # random statuses, so the ON set is seldom an index prefix: the ON-first
    # tie-break and the budget stage decide the order.  The runs above all
    # pass with a plain stable sort of the key too, so this test is the one
    # that holds the kernel's tie-break to the scalar sorts.
    params = m.SystemParams(n=n)
    rng = random.Random(n)
    for _ in range(600):
        arm = m.ArmState([rng.choice((9.9e3, 10e3, 10.1e3)) for _ in range(n)],
                         [rng.randint(0, 1) for _ in range(n)])
        i_arm = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 500.0)
        # the kernel's inputs: the anticipated voltages times the sort
        # direction, and the statuses
        v_next = m.anticipate_capacitor_voltages(arm, i_arm, [1] * n, params)
        key = np.array(v_next) * (-1.0 if i_arm < 0 else 1.0)
        want = m.sort_v1f2(arm, i_arm, params).order
        assert _kernel_order(key, arm.u, False, n) == want, (arm, i_arm)
        for budget in range(n + 1):
            want = m.sort_v1fc(arm, i_arm, budget, params).order
            assert _kernel_order(key, arm.u, True, budget) == want, (arm, i_arm, budget)


def _kernel_order(key, u, v1fc, budget, start=None):
    """The compiled kernel's order of one arm, as a tuple, sorted from the
    permutation ``start`` (default index order); None when the kernel is
    not loaded."""
    lib = kernel.library()
    if lib is None:
        return None
    key, u = np.ascontiguousarray(key, float), np.ascontiguousarray(u, np.int8)
    perm = np.array(range(len(key)) if start is None else start, np.int32)
    order = np.empty(len(key), np.int32)
    lib.mmcsim_sort_arm(
        len(key), key.ctypes.data, u.ctypes.data, v1fc, budget, perm.ctypes.data, order.ctypes.data
    )
    return tuple(order.tolist())


def test_arm_sorter_puts_on_first_among_ties():
    # equal voltages, ON set {1, 3, 4}: ON first at any budget, where a
    # plain stable sort of the key would give 0, 1, 3, 4, 2, 5 at budget 1
    n = 6
    arm = m.ArmState([10e3] * n, [0, 1, 0, 1, 1, 0])
    for budget in (1, n):
        assert m.sort_v1fc(arm, 1.0, budget, m.SystemParams()).order == (1, 3, 4, 0, 2, 5)
        assert _kernel_order([10e3] * n, arm.u, True, budget) in (None, (1, 3, 4, 0, 2, 5))


@pytest.mark.parametrize("i_arm, v1f2, v1fc", [
    (1.0, (3, 1, 0, 2), (3, 1, 2, 0)),
    (-0.0, (3, 1, 0, 2), (3, 1, 2, 0)),
    (-1.0, (1, 3, 0, 2), (1, 3, 2, 0)),
], ids=["charging", "zero-current", "discharging"])
def test_scalar_sorts_put_nan_last(i_arm, v1f2, v1fc):
    # a NaN voltage after every number in both directions, two NaNs tied:
    # index order, and ON first under v1fc; a sort comparing with < alone
    # would leave the NaNs where its comparisons happened to put them
    params = m.SystemParams(n=4)
    arm = m.ArmState([math.nan, 10e3, math.nan, 9e3], [0, 0, 1, 1])
    assert m.sort_v1f2(arm, i_arm, params).order == v1f2
    assert m.sort_v1fc(arm, i_arm, 4, params).order == v1fc
    # budget 0: the OFF submodules 1 and 0 deferred behind the ON ones
    assert m.sort_v1fc(arm, i_arm, 0, params).order == (3, 2, 1, 0)
    assert m.sort_v1f2(m.ArmState([math.nan, 1.0], [0, 0]), 1.0, m.SystemParams(n=2)).order == (1, 0)


@pytest.mark.parametrize("n", [1, 2, 4, 6, 9])
def test_arm_sorter_gives_scalar_order_from_any_start(c_engine, n):
    # a run sorts each arm from the order of its previous step; the kernel's
    # order is a total order, so a reversed, a shuffled and an already
    # sorted start give the scalar sorts' order.  Keys tie (three voltages),
    # are zeros of both signs (i_arm = -0.0 leaves each voltage as it is)
    # or NaN, which both put after every number
    params = m.SystemParams(n=n)
    rng = random.Random(100 + n)
    voltages = [(9.9e3, 10e3, 10.1e3), (0.0, -0.0, 10e3), (9.9e3, 10e3, math.nan), (0.0, -0.0, math.nan)]
    for _ in range(150):
        values = rng.choice(voltages)
        arm = m.ArmState([rng.choice(values) for _ in range(n)], [rng.randint(0, 1) for _ in range(n)])
        i_arm = rng.choice((-0.0, -1.0, 1.0)) * rng.uniform(0.0, 500.0)
        v_next = m.anticipate_capacitor_voltages(arm, i_arm, [1] * n, params)
        key = np.array(v_next) * (-1.0 if i_arm < 0 else 1.0)
        v1f2 = m.sort_v1f2(arm, i_arm, params).order
        starts = [range(n - 1, -1, -1), rng.sample(range(n), n), v1f2,
                  m.sort_v1fc(arm, i_arm, n, params).order]
        for start in starts:
            assert _kernel_order(key, arm.u, False, n, start) == v1f2, (arm, i_arm, start)
            for budget in range(n + 1):
                want = m.sort_v1fc(arm, i_arm, budget, params).order
                assert _kernel_order(key, arm.u, True, budget, start) == want, (arm, i_arm, budget, start)


def test_leg_divergence_names_phase_and_step():
    # no weight on the circulating current, a 1 pH arm inductor and a
    # 1e300 V bus: the circulating current overflows within 15 steps
    cfg = m.ScenarioConfig(
        params=m.SystemParams(l_arm=1e-12, v_dc=1e300, w_circ=0.0),
        duration=0.002, warmup=0.0, nsw_schedule=m.constant_schedule(0.002, 6),
    )
    text = r"^phase a diverged at step \d+ \(t = [0-9.]+ s\): non-finite state after the step: i_ac="
    with pytest.raises(m.SimulationDiverged, match=text) as want:
        _run_scalar(cfg)
    messages = {str(want.value)}
    if kernel.library() is not None:
        with pytest.raises(m.SimulationDiverged) as got:
            m.run_scenario(cfg)
        messages.add(str(got.value))
    # the same phase, step, currents and capacitor voltages from the kernel
    # as from the scalar loop
    assert len(messages) == 1, messages
