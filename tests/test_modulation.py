"""Modulation-stage checks: targets, objective, both sort strategies, and
the selection shortcut against its exhaustive oracle."""
import random
from dataclasses import replace

import pytest

import mmcsim as m

REL = 1e-12


# ---------------------------------------------------------------- targets

def test_targets_idle(table1):
    t = m.compute_targets(table1, 0.0, 0.0, 0.0, 0.0)
    assert t.v_up_target == 30000.0
    assert t.v_low_target == 30000.0


def test_targets_reference_step(table1):
    # z_step * 100 A = 26003 V of drive, hand oracle
    t = m.compute_targets(table1, 100.0, 0.0, 0.0, 0.0)
    assert t.v_up_target == pytest.approx(3997.0, rel=REL)
    assert t.v_low_target == pytest.approx(56003.0, rel=REL)


def test_targets_sum_identity(table1):
    rng = random.Random(3)
    for _ in range(500):
        i_ref = rng.uniform(-500.0, 500.0)
        i_now = rng.uniform(-500.0, 500.0)
        i_circ = rng.uniform(-200.0, 200.0)
        v_s = rng.uniform(-30e3, 30e3)
        t = m.compute_targets(table1, i_ref, i_now, i_circ, v_s)
        expect = table1.v_dc + (2.0 * table1.l_arm / table1.t_s) * i_circ
        assert t.v_up_target + t.v_low_target == pytest.approx(expect, rel=REL)


# -------------------------------------------------------------- objective

def test_objective_zero_at_targets(table1):
    t = m.ArmTargets(28000.0, 31000.0)
    assert m.objective_f(table1, t, 28000.0, 31000.0) == 0.0


def test_objective_tracking_term(table1):
    # deviations +100/-100: pure tracking error, 200 / (2 * 260.03)
    t = m.ArmTargets(30000.0, 30000.0)
    got = m.objective_f(table1, t, 29900.0, 30100.0)
    assert got == pytest.approx(0.38457101103718805, rel=REL)


def test_objective_circulating_term(table1):
    # equal deviations of 120: pure circulating error, (25e-6/6e-3) * 240
    t = m.ArmTargets(30000.0, 30000.0)
    got = m.objective_f(table1, t, 29880.0, 29880.0)
    assert got == pytest.approx(1.0, rel=REL)


def test_objective_decomposition(table1):
    # the two terms must equal w*|current error| and w*|next circulating
    # current| recomputed through the prediction equations
    params = replace(table1, w_track=0.7, w_circ=1.3)
    rng = random.Random(17)
    for _ in range(300):
        i_ref = rng.uniform(-400.0, 400.0)
        i_now = rng.uniform(-400.0, 400.0)
        i_circ = rng.uniform(-150.0, 150.0)
        v_s = rng.uniform(-30e3, 30e3)
        v_up = rng.uniform(0.0, 62e3)
        v_low = rng.uniform(0.0, 62e3)
        targets = m.compute_targets(params, i_ref, i_now, i_circ, v_s)
        f = m.objective_f(params, targets, v_up, v_low)
        d_i = m.predict_ac_current(params, v_up, v_low, v_s, i_now) - i_ref
        iz_next = m.predict_circulating_current(params, v_up, v_low, i_circ)
        expect = params.w_track * abs(d_i) + params.w_circ * abs(iz_next)
        assert f == pytest.approx(expect, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------------ sorts

def test_sort_v1f2_directions():
    p = m.SystemParams(n=3)
    arm = m.ArmState([3000.0, 1000.0, 2000.0], [0, 0, 0])
    assert m.sort_v1f2(arm, 1.0, p).order == (1, 2, 0)
    assert m.sort_v1f2(arm, -1.0, p).order == (0, 2, 1)


def test_sort_v1f2_stable_on_ties(table1):
    arm = m.ArmState([10000.0] * 6, [0, 1, 0, 1, 0, 1])
    assert m.sort_v1f2(arm, 5.0, table1).order == (0, 1, 2, 3, 4, 5)
    assert m.sort_v1f2(arm, -5.0, table1).order == (0, 1, 2, 3, 4, 5)


def test_sort_v1f2_penalties_zero(table1):
    arm = m.ArmState([10010.0, 9990.0, 10000.0, 10020.0, 9980.0, 10005.0],
                     [1, 0, 1, 0, 1, 0])
    s = m.sort_v1f2(arm, 10.0, table1)
    assert s.penalties == (0,) * 6
    assert sorted(s.order) == list(range(6))


def test_sort_v1fc_relaxed_budget_matches_v1f2(table1):
    rng = random.Random(9)
    for _ in range(300):
        v = [rng.uniform(9000.0, 11000.0) for _ in range(6)]
        u = [rng.randint(0, 1) for _ in range(6)]
        i_arm = rng.uniform(-300.0, 300.0)
        arm = m.ArmState(v, u)
        assert (
            m.sort_v1fc(arm, i_arm, 6, table1).order
            == m.sort_v1f2(arm, i_arm, table1).order
        )


def test_sort_v1fc_enumerated_fixture():
    # n=3, statuses [1,0,1], voltages [10,9,11], charging, budget 0.
    # Enumerated by hand: voltage order is [1,0,2]; SM 1 is the only one
    # that would switch and its single event exceeds the zero budget, so
    # it defers behind the two already-on SMs.
    p = m.SystemParams(n=3)
    arm = m.ArmState([10.0, 9.0, 11.0], [1, 0, 1])
    s = m.sort_v1fc(arm, 1.0, 0, p)
    assert s.order == (0, 2, 1)
    assert s.switch_counts == (0, 0, 1)
    assert s.penalties == (0, 0, 1)


def test_sort_v1fc_all_on_zero_budget(table1):
    arm = m.ArmState([10010.0, 9990.0, 10000.0, 10020.0, 9980.0, 10005.0], [1] * 6)
    s = m.sort_v1fc(arm, 10.0, 0, table1)
    assert s.penalties == (0,) * 6
    assert s.switch_counts == (0,) * 6
    assert s.order == m.sort_v1f2(arm, 10.0, table1).order


def test_sort_v1fc_stability_chain(table1):
    # equal voltages and equal statuses: every cascaded sort is a no-op
    for u in ([0] * 6, [1] * 6):
        for budget in (0, 3, 6):
            s = m.sort_v1fc(m.ArmState([10e3] * 6, list(u)), 5.0, budget, table1)
            assert s.order == (0, 1, 2, 3, 4, 5)
    # equal voltages, mixed statuses: inserted SMs take the front
    s = m.sort_v1fc(m.ArmState([10e3] * 6, [0, 1, 0, 0, 1, 0]), 5.0, 0, table1)
    assert s.order == (1, 4, 0, 2, 3, 5)


def test_sort_v1fc_key_recomputation(table1):
    rng = random.Random(31)
    for _ in range(500):
        v = [rng.uniform(9000.0, 11000.0) for _ in range(6)]
        u = [rng.randint(0, 1) for _ in range(6)]
        i_arm = rng.uniform(-300.0, 300.0)
        budget = rng.randint(0, 6)
        s = m.sort_v1fc(m.ArmState(v, u), i_arm, budget, table1)
        assert sorted(s.order) == list(range(6))
        events = 0
        for pos, j in enumerate(s.order):
            events += 1 - u[j]
            assert s.switch_counts[pos] == events
            assert s.penalties[pos] == max(0, events - budget)
        assert list(s.switch_counts) == sorted(s.switch_counts)


def test_sort_v1fc_budget_range(table1):
    arm = m.ArmState([10000.0] * 6, [0] * 6)
    with pytest.raises(ValueError):
        m.sort_v1fc(arm, 1.0, 7, table1)
    with pytest.raises(ValueError):
        m.sort_v1fc(arm, 1.0, -1, table1)


# ---------------------------------------------------------------- cumsums

def test_cumulative_sums_uniform(table1):
    arm = m.ArmState([10000.0] * 6, [0] * 6)
    s = m.sort_v1f2(arm, 0.0, table1)
    sums = m.cumulative_sums(s, [10e3] * 6)
    assert sums == [0.0, 10e3, 20e3, 30e3, 40e3, 50e3, 60e3]


def test_cumulative_sums_running(table1):
    p = m.SystemParams(n=3)
    arm = m.ArmState([9900.0, 10000.0, 10100.0], [0, 0, 0])
    s = m.sort_v1f2(arm, 1.0, p)
    sums = m.cumulative_sums(s, [9900.0, 10000.0, 10100.0])
    assert sums[0] == 0.0
    assert sums == pytest.approx([0.0, 9900.0, 19900.0, 30000.0], rel=REL)


# -------------------------------------------------------------- selection

def _uniform_cumsums(n=6, step=10e3):
    return [step * k for k in range(n + 1)]


def test_select_exact_target(table1):
    alpha = _uniform_cumsums()
    t = m.ArmTargets(30000.0, 10000.0)
    r = m.select_optimal(alpha, alpha, t, table1)
    assert (r.m_up, r.m_low) == (3, 1)
    assert r.f_value == 0.0


def test_select_midpoint_tie_break(table1):
    # both targets halfway into the first interval: (1,0) and (0,1) tie
    # on the objective, the smaller upper count wins
    alpha = _uniform_cumsums()
    t = m.ArmTargets(5000.0, 5000.0)
    r = m.select_optimal(alpha, alpha, t, table1)
    b = m.brute_force_select(alpha, alpha, t, table1)
    assert (r.m_up, r.m_low) == (0, 1)
    assert (b.m_up, b.m_low) == (0, 1)
    assert r.f_value == b.f_value == pytest.approx(19.228550551859403, rel=REL)


def test_select_duplicate_cumsum_tie(table1):
    # a zero anticipated voltage duplicates a cumsum entry; the smaller
    # insertion count must win exactly as in the exhaustive scan
    p3 = m.SystemParams(n=3)
    alpha = [0.0, 10000.0, 20000.0, 30000.0]
    beta = [0.0, 10000.0, 10000.0, 20000.0]
    t = m.ArmTargets(10000.0, 10000.0)
    r = m.select_optimal(alpha, beta, t, p3)
    b = m.brute_force_select(alpha, beta, t, p3)
    assert (r.m_up, r.m_low, r.f_value) == (b.m_up, b.m_low, b.f_value) == (1, 1, 0.0)


# objective weightings on both sides of w_track / (2 z_step) = w_circ t_s / (2 l_arm)
WEIGHTINGS = pytest.mark.parametrize(
    "weights",
    [{}, {"w_circ": 0.1}, {"w_circ": 0.0}, {"w_track": 2.0, "w_circ": 0.5}],
    ids=["table1", "w_circ=0.1", "w_circ=0", "w_track=2-w_circ=0.5"],
)


@WEIGHTINGS
def test_select_matches_brute_force_random(table1, weights):
    table1 = replace(table1, **weights)
    rng = random.Random(101)
    for _ in range(2000):
        caps_up = [10e3 * rng.uniform(0.9, 1.1) for _ in range(6)]
        caps_low = [10e3 * rng.uniform(0.9, 1.1) for _ in range(6)]
        alpha = [0.0]
        for v in caps_up:
            alpha.append(alpha[-1] + v)
        beta = [0.0]
        for v in caps_low:
            beta.append(beta[-1] + v)
        t = m.ArmTargets(
            rng.uniform(-0.1, 1.1) * table1.v_dc, rng.uniform(-0.1, 1.1) * table1.v_dc
        )
        r = m.select_optimal(alpha, beta, t, table1)
        b = m.brute_force_select(alpha, beta, t, table1)
        assert (r.m_up, r.m_low) == (b.m_up, b.m_low)
        assert r.f_value == b.f_value


@WEIGHTINGS
def test_select_matches_brute_force_wide_spread(table1, weights):
    # capacitor voltages spread +-50 %: under each weighting here, the
    # optimum of some cases lies outside the brackets around the two
    # targets, where a search of the brackets alone would miss it
    params = replace(table1, **weights)
    rng = random.Random(202)
    for _ in range(2000):
        alpha = [0.0]
        beta = [0.0]
        for _ in range(6):
            alpha.append(alpha[-1] + 10e3 * rng.uniform(0.5, 1.5))
            beta.append(beta[-1] + 10e3 * rng.uniform(0.5, 1.5))
        t = m.ArmTargets(
            rng.uniform(-0.1, 1.1) * params.v_dc, rng.uniform(-0.1, 1.1) * params.v_dc
        )
        r = m.select_optimal(alpha, beta, t, params)
        b = m.brute_force_select(alpha, beta, t, params)
        assert (r.m_up, r.m_low, r.f_value) == (b.m_up, b.m_low, b.f_value)


def test_select_clamped_targets(table1):
    alpha = _uniform_cumsums()
    for t in (m.ArmTargets(-5000.0, 30000.0), m.ArmTargets(70000.0, 65000.0)):
        r = m.select_optimal(alpha, alpha, t, table1)
        b = m.brute_force_select(alpha, alpha, t, table1)
        assert (r.m_up, r.m_low, r.f_value) == (b.m_up, b.m_low, b.f_value)


def test_select_nonmonotone_cumsum(table1):
    # a negative anticipated voltage makes the running sum dip
    p3 = m.SystemParams(n=3)
    alpha = [0.0, 12000.0, 11000.0, 21000.0]
    beta = [0.0, 9000.0, 19000.0, 29000.0]
    t = m.ArmTargets(11500.0, 15000.0)
    r = m.select_optimal(alpha, beta, t, p3)
    b = m.brute_force_select(alpha, beta, t, p3)
    assert (r.m_up, r.m_low, r.f_value) == (b.m_up, b.m_low, b.f_value)


def test_select_nan_cumsum():
    # a NaN objective never wins a comparison in the exhaustive scan
    p2 = m.SystemParams(n=2)
    alpha = [0.0, 10000.0, float("nan")]
    beta = [0.0, 10000.0, 20000.0]
    t = m.ArmTargets(10000.0, 10000.0)
    r = m.select_optimal(alpha, beta, t, p2)
    b = m.brute_force_select(alpha, beta, t, p2)
    assert (r.m_up, r.m_low, r.f_value) == (b.m_up, b.m_low, b.f_value) == (1, 1, 0.0)


def test_brute_force_minimal_case():
    p1 = m.SystemParams(n=1)
    alpha = [0.0, 60000.0]
    r = m.brute_force_select(alpha, alpha, m.ArmTargets(0.0, 60000.0), p1)
    assert (r.m_up, r.m_low) == (0, 1)
    assert r.f_value == 0.0


def test_brute_force_balanced(table1):
    alpha = _uniform_cumsums()
    r = m.brute_force_select(alpha, alpha, m.ArmTargets(30000.0, 30000.0), table1)
    assert (r.m_up, r.m_low) == (3, 3)
    assert r.f_value == 0.0


# --------------------------------------------------------- modulate_phase

def test_modulate_idle_equilibrium(table1):
    state = m.nominal_phase_state(table1)
    sel = m.modulate_phase(state, 0.0, 6, "v1fc", table1)
    assert (sel.m_up, sel.m_low) == (3, 3)
    assert sel.f_value == 0.0
    assert sel.decision.statuses == (1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0)


def _random_state(rng, params):
    v_up = [10e3 * rng.uniform(0.92, 1.08) for _ in range(params.n)]
    v_low = [10e3 * rng.uniform(0.92, 1.08) for _ in range(params.n)]
    u_up = [rng.randint(0, 1) for _ in range(params.n)]
    u_low = [rng.randint(0, 1) for _ in range(params.n)]
    i_ac = rng.uniform(-400.0, 400.0)
    i_circ = rng.uniform(-120.0, 120.0)
    iu, il = m.arm_currents(i_ac, i_circ)
    return m.PhaseLegState(
        upper=m.ArmState(v_up, u_up, iu),
        lower=m.ArmState(v_low, u_low, il),
        i_ac=i_ac,
        i_circ=i_circ,
        v_grid=rng.uniform(-25e3, 25e3),
    )


def test_modulate_v1fc_relaxed_equals_v1f2(table1):
    rng = random.Random(77)
    for _ in range(200):
        state = _random_state(rng, table1)
        i_ref = rng.uniform(-400.0, 400.0)
        a = m.modulate_phase(state, i_ref, 6, "v1fc", table1)
        b = m.modulate_phase(state, i_ref, 6, "v1f2", table1)
        assert a.decision.statuses == b.decision.statuses
        assert a.f_value == b.f_value


def test_modulate_matches_prefix_oracle(table1):
    # the chosen pair must be the exhaustive optimum over every
    # prefix-feasible insertion pattern (i.e. every (m_up, m_low) pair)
    rng = random.Random(55)
    for _ in range(100):
        state = _random_state(rng, table1)
        i_ref = rng.uniform(-400.0, 400.0)
        budget = rng.randint(0, 6)
        sel = m.modulate_phase(state, i_ref, budget, "v1fc", table1)
        iu, il = m.arm_currents(state.i_ac, state.i_circ)
        up = m.sort_v1fc(state.upper, iu, budget, table1)
        low = m.sort_v1fc(state.lower, il, budget, table1)
        alpha = m.cumulative_sums(
            up, m.anticipate_capacitor_voltages(state.upper, iu, [1] * 6, table1)
        )
        beta = m.cumulative_sums(
            low, m.anticipate_capacitor_voltages(state.lower, il, [1] * 6, table1)
        )
        targets = m.compute_targets(table1, i_ref, state.i_ac, state.i_circ, state.v_grid)
        oracle = m.brute_force_select(alpha, beta, targets, table1)
        assert (sel.m_up, sel.m_low) == (oracle.m_up, oracle.m_low)
        assert sel.f_value == oracle.f_value
        # decision inserts exactly the chosen prefixes
        for pos, j in enumerate(up.order):
            assert sel.decision.statuses[j] == (1 if pos < sel.m_up else 0)
        for pos, j in enumerate(low.order):
            assert sel.decision.statuses[6 + j] == (1 if pos < sel.m_low else 0)


def test_modulate_unknown_algorithm(table1):
    state = m.nominal_phase_state(table1)
    with pytest.raises(ValueError):
        m.modulate_phase(state, 0.0, 6, "psc-pwm", table1)
