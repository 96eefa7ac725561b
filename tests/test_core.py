"""Unit checks of the phase-leg model against independently computed values.

Expected numbers were derived by hand (or by a throwaway evaluation of the
closed forms) before the implementation and frozen here.
"""
import math
import random
from dataclasses import replace

import pytest

import mmcsim as m

REL = 1e-12


def test_derived_constants(table1):
    assert table1.l_ac == pytest.approx(6.5e-3, rel=REL)
    assert table1.z_step == pytest.approx(260.03, rel=REL)
    assert table1.v_sm_nominal == pytest.approx(10e3, rel=REL)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"v_dc": 0.0},
        {"c_sm": -1e-3},
        {"l_arm": 0.0},
        {"l_grid": 0.0},
        {"t_s": 0.0},
        {"r_grid": -0.1},
        {"w_track": -1.0},
        {"w_circ": -0.5},
        {"f_grid": 0.0},
        {"v_dc": math.inf},
        {"c_sm": math.nan},
        {"t_s": math.inf},
        {"f_grid": math.inf},
        {"r_grid": math.inf},
        {"w_track": math.nan},
        {"w_circ": math.inf},
        {"l_grid": 5e-324, "l_arm": 5e-324, "t_s": 10.0, "r_grid": 0.0},  # z_step 0
        {"l_grid": 1e300, "l_arm": 1e300, "t_s": 1e-300},  # z_step inf
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        m.SystemParams(**kwargs)


def test_params_n_fits_the_int16_budgets():
    # NswSchedule.per_step holds budgets up to n as int16
    assert m.SystemParams(n=32767).n == 32767
    with pytest.raises(ValueError, match="^n must be <= 32767, got 32768$"):
        m.SystemParams(n=32768)


def test_predict_ac_current_symmetric_idle(table1):
    assert m.predict_ac_current(table1, 30000.0, 30000.0, 0.0, 0.0) == 0.0


def test_predict_ac_current_drive(table1):
    # 2 kV arm-voltage difference, everything else zero: 1000 / 260.03
    got = m.predict_ac_current(table1, 29000.0, 31000.0, 0.0, 0.0)
    assert got == pytest.approx(3.8457101103718805, rel=REL)


def test_predict_ac_current_memory(table1):
    # near-unity current memory for small series resistance
    got = m.predict_ac_current(table1, 30000.0, 30000.0, 0.0, 10.0)
    assert got == pytest.approx(9.99884628696689, rel=REL)


def test_predict_ac_current_affine_coefficients(table1):
    # finite differences must match the closed-form coefficients
    f = m.predict_ac_current
    base = f(table1, 29500.0, 30750.0, 120.0, 7.0)
    h = 256.0  # power of two keeps the differences exact
    z = table1.z_step
    assert (f(table1, 29500.0 + h, 30750.0, 120.0, 7.0) - base) == pytest.approx(
        -h / (2 * z), rel=1e-9
    )
    assert (f(table1, 29500.0, 30750.0 + h, 120.0, 7.0) - base) == pytest.approx(
        h / (2 * z), rel=1e-9
    )
    assert (f(table1, 29500.0, 30750.0, 120.0 + h, 7.0) - base) == pytest.approx(
        -h / z, rel=1e-9
    )
    assert (f(table1, 29500.0, 30750.0, 120.0, 7.0 + h) - base) == pytest.approx(
        h * (table1.l_ac / table1.t_s) / z, rel=1e-9
    )


def test_anticipate_bypassed_hold_voltage(table1):
    arm = m.ArmState([10000.0, 9990.0, 10010.0, 10000.0, 9980.0, 10020.0], [0] * 6)
    out = m.anticipate_capacitor_voltages(arm, 150.0, [0] * 6, table1)
    assert out == arm.v_c


def test_anticipate_zero_current(table1):
    arm = m.ArmState([10000.0, 9990.0, 10010.0, 10000.0, 9980.0, 10020.0], [0] * 6)
    out = m.anticipate_capacitor_voltages(arm, 0.0, [1] * 6, table1)
    assert out == arm.v_c


def test_anticipate_increment(table1):
    # dv = 25e-6 * 100 / 2.5e-3 = 1.0 volt, hand oracle
    arm = m.ArmState([10000.0] * 6, [0] * 6)
    out = m.anticipate_capacitor_voltages(arm, 100.0, [1, 0, 1, 0, 1, 0], table1)
    assert out[0] == pytest.approx(10001.0, rel=REL)
    assert out[1] == 10000.0
    assert out[2] == pytest.approx(10001.0, rel=REL)


def test_anticipate_length_mismatch(table1):
    arm = m.ArmState([10000.0] * 6, [0] * 6)
    with pytest.raises(ValueError):
        m.anticipate_capacitor_voltages(arm, 1.0, [1, 0], table1)


def test_arm_voltage_fixtures():
    assert m.arm_voltage([10000.0] * 6, [0] * 6) == 0.0
    assert m.arm_voltage([10000.0] * 6, [1, 1, 1, 0, 0, 0]) == 30000.0
    got = m.arm_voltage(
        [10100.0, 9900.0, 10000.0, 10000.0, 10050.0, 9950.0], [1, 0, 1, 0, 1, 0]
    )
    assert got == pytest.approx(30150.0, rel=REL)
    with pytest.raises(ValueError):
        m.arm_voltage([1.0, 2.0], [1])


def test_arm_voltage_linear_in_disjoint_patterns():
    rng = random.Random(4)
    for _ in range(200):
        v = [rng.uniform(9000.0, 11000.0) for _ in range(6)]
        mask = [rng.randint(0, 1) for _ in range(6)]
        u1 = [s if rng.random() < 0.5 else 0 for s in mask]
        u2 = [s - a for s, a in zip(mask, u1)]
        total = m.arm_voltage(v, [a + b for a, b in zip(u1, u2)])
        assert m.arm_voltage(v, u1) + m.arm_voltage(v, u2) == pytest.approx(
            total, rel=REL
        )


def test_predict_circulating_fixtures(table1):
    # balanced insertion is a fixed point
    assert m.predict_circulating_current(table1, 30000.0, 30000.0, 0.0) == 0.0
    assert m.predict_circulating_current(table1, 30000.0, 30000.0, 5.0) == 5.0
    # 240 V deficit: 25e-6 / 6e-3 * 240 = 1.0 A, hand oracle
    got = m.predict_circulating_current(table1, 29880.0, 29880.0, 0.0)
    assert got == pytest.approx(1.0, rel=REL)


def test_arm_currents_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        i_ac = rng.uniform(-500.0, 500.0)
        i_circ = rng.uniform(-100.0, 100.0)
        i_up, i_low = m.arm_currents(i_ac, i_circ)
        assert i_up - i_low == pytest.approx(i_ac, rel=REL, abs=1e-12)
        assert (i_up + i_low) / 2.0 == pytest.approx(i_circ, rel=REL, abs=1e-12)


def test_step_phase_equilibrium_fixed_point(table1):
    state = m.nominal_phase_state(table1)
    decision = m.SwitchDecision((1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0))
    new = m.step_phase(state, decision, 0.0, table1)
    assert new.i_ac == 0.0
    assert new.i_circ == 0.0
    assert new.upper.v_c == state.upper.v_c
    assert new.lower.v_c == state.lower.v_c


def test_step_phase_drift_matches_increment(table1):
    rng = random.Random(21)
    v_up = [rng.uniform(9500.0, 10500.0) for _ in range(6)]
    v_low = [rng.uniform(9500.0, 10500.0) for _ in range(6)]
    u = [1, 0, 1, 1, 0, 0]
    i_ac, i_circ = 140.0, 60.0
    i_u, i_l = m.arm_currents(i_ac, i_circ)
    state = m.PhaseLegState(
        upper=m.ArmState(list(v_up), list(u), i_u),
        lower=m.ArmState(list(v_low), list(u), i_l),
        i_ac=i_ac,
        i_circ=i_circ,
        v_grid=0.0,
    )
    new = m.step_phase(state, m.SwitchDecision(tuple(u + u)), 100.0, table1)
    for j in range(6):
        if u[j]:
            expect_up = table1.t_s * i_u / table1.c_sm
            expect_low = table1.t_s * i_l / table1.c_sm
            assert new.upper.v_c[j] - v_up[j] == pytest.approx(expect_up, rel=1e-9)
            assert new.lower.v_c[j] - v_low[j] == pytest.approx(expect_low, rel=1e-9)
        else:
            assert new.upper.v_c[j] == v_up[j]
            assert new.lower.v_c[j] == v_low[j]


def test_step_phase_rejects_divergence(table1):
    state = m.nominal_phase_state(table1)
    state.i_ac = 1e308  # finite, but the update overflows
    decision = m.SwitchDecision((0,) * 12)
    with pytest.raises(m.SimulationDiverged):
        m.step_phase(state, decision, 0.0, table1)


def test_step_phase_nan_capacitor_diverges(table1):
    state = m.nominal_phase_state(table1)
    state.upper.v_c[0] = float("nan")
    decision = m.SwitchDecision((1,) + (0,) * 11)  # insert the NaN submodule
    # the text the scenario and the compiled kernel report too: the
    # currents and capacitor voltages after the step
    with pytest.raises(
        m.SimulationDiverged,
        match=r"^non-finite state after the step: i_ac=nan, i_circ=nan, v_c=\[nan, 10000\.0, ",
    ):
        m.step_phase(state, decision, 0.0, table1)


def test_step_phase_nan_in_bypassed_submodule_diverges(table1):
    state = m.nominal_phase_state(table1)
    state.upper.v_c[0] = float("nan")
    decision = m.SwitchDecision((0, 1, 1, 1, 0, 0) * 2)  # leaves SM 0 off
    with pytest.raises(m.SimulationDiverged, match="upper arm"):
        m.step_phase(state, decision, 0.0, table1)


def test_step_phase_passes_finite_non_positive_capacitor_voltage(table1):
    # divergence means a non-finite number; the linear model has no diode
    # clamp, so an inserted capacitor may discharge through zero
    state = m.nominal_phase_state(table1)
    state.upper.v_c[:2] = [-500.0, 0.0]
    state.upper.i_arm = -200.0  # discharges the inserted submodules
    decision = m.SwitchDecision((1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0))
    new = m.step_phase(state, decision, 0.0, table1)
    assert new.upper.v_c[0] == -500.0 + table1.t_s * -200.0 / table1.c_sm < -500.0
    assert new.upper.v_c[1] == 0.0  # bypassed: kept bit for bit
    assert all(map(math.isfinite, (new.i_ac, new.i_circ, *new.upper.v_c, *new.lower.v_c)))


def test_step_phase_decision_length(table1):
    state = m.nominal_phase_state(table1)
    with pytest.raises(ValueError):
        m.step_phase(state, m.SwitchDecision((1, 0)), 0.0, table1)


def test_one_cycle_mean_capacitor_regression():
    # one exact grid cycle on the step grid (50 Hz -> 800 steps); the mean
    # of all 12 capacitors must stay within 1% of nominal under the
    # conventional algorithm at full load
    params = replace(m.SystemParams(), f_grid=50.0)
    cfg = m.ScenarioConfig(
        params=params,
        duration=0.02,
        warmup=0.0,
        algorithm="v1f2",
        nsw_schedule=m.constant_schedule(0.02, 6),
    )
    trace = m.run_scenario(cfg)
    mean_v = float(trace.phase("a").v_c[-1].mean())
    assert abs(mean_v - 10e3) < 0.01 * 10e3


def test_switch_decision_validation():
    with pytest.raises(ValueError):
        m.SwitchDecision((1, 2, 0, 0))
    with pytest.raises(ValueError):
        m.SwitchDecision((1, 0, 0))  # odd length
    d = m.SwitchDecision((1, 0, 1, 1))
    assert d.upper(2) == (1, 0)
    assert d.lower(2) == (1, 1)


def test_arm_state_validation():
    with pytest.raises(ValueError):
        m.ArmState([1.0, 2.0], [0])
    with pytest.raises(ValueError):
        m.ArmState([1.0], [3])
