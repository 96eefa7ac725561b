"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
the quantitative criteria slice the session-scoped full-length runs.
"""
import random
from dataclasses import replace

import numpy as np
import pytest

import mmcsim as m

REL = 1e-12


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


# -------------------------------------------------------------------------
# Criterion 1: the grid selector equals the exhaustive oracle, exactly,
# over 10^4 randomized instances under each of four objective weightings.
# -------------------------------------------------------------------------
@pytest.mark.parametrize(
    "weights",
    [{}, {"w_circ": 0.1}, {"w_circ": 0.0}, {"w_track": 2.0, "w_circ": 0.5}],
    ids=["table1", "w_circ=0.1", "w_circ=0", "w_track=2-w_circ=0.5"],
)
def test_c1_selection_oracle_equivalence(table1, weights):
    table1 = replace(table1, **weights)
    rng = random.Random(20240817)
    trials = 10_000
    mismatches = 0
    for _ in range(trials):
        alpha = [0.0]
        beta = [0.0]
        for _ in range(6):
            alpha.append(alpha[-1] + 10e3 * rng.uniform(0.9, 1.1))
        for _ in range(6):
            beta.append(beta[-1] + 10e3 * rng.uniform(0.9, 1.1))
        targets = m.ArmTargets(
            rng.uniform(-0.1, 1.1) * table1.v_dc,
            rng.uniform(-0.1, 1.1) * table1.v_dc,
        )
        fast = m.select_optimal(alpha, beta, targets, table1)
        slow = m.brute_force_select(alpha, beta, targets, table1)
        if (fast.m_up, fast.m_low) != (slow.m_up, slow.m_low) or (
            fast.f_value != slow.f_value
        ):
            mismatches += 1
    ok = mismatches == 0
    _report("C1", ok, f"{weights or 'table1'}: {trials} random instances, {mismatches} mismatches")
    assert ok


# -------------------------------------------------------------------------
# Criterion 2: with the budget pinned at 6, the constrained algorithm and
# the conventional one produce bit-identical decision streams over the
# full scenario.
# -------------------------------------------------------------------------
def test_c2_constrained_degenerates_to_conventional(
    paper_all6_v1fc_trace, paper_all6_v1f2_trace
):
    same_u = all(
        np.array_equal(
            paper_all6_v1fc_trace.phase(ph).u, paper_all6_v1f2_trace.phase(ph).u
        )
        for ph in "abc"
    )
    same_vc = all(
        np.array_equal(
            paper_all6_v1fc_trace.phase(ph).v_c, paper_all6_v1f2_trace.phase(ph).v_c
        )
        for ph in "abc"
    )
    _report(
        "C2",
        same_u and same_vc,
        f"decision streams identical over {paper_all6_v1fc_trace.steps} steps x 3 phases: "
        f"u={same_u}, v_c={same_vc}",
    )
    assert same_u and same_vc


# -------------------------------------------------------------------------
# Criterion 3: switching-frequency reduction staircase, normalized to the
# budget-6 baseline segment.
# -------------------------------------------------------------------------
def test_c3_switching_frequency_staircase(paper_v1fc_trace):
    rep = m.segment_report(paper_v1fc_trace)
    assert [seg.n_sw_max for seg in rep] == [6, 0, 1, 2, 3, 4, 5, 6]
    red = m.reduction_percent(rep)
    by_budget = {seg.n_sw_max: r for seg, r in zip(rep[:7], red[:7])}
    checks = [
        abs(by_budget[0] - 80.0) <= 10.0,
        abs(by_budget[1] - 38.0) <= 10.0,
        abs(by_budget[2] - 10.0) <= 5.0,
        by_budget[3] <= 8.0,
        by_budget[4] <= 8.0,
        by_budget[5] <= 8.0,
    ]
    ok = all(checks)
    detail = ", ".join(
        f"budget {b}: {by_budget[b]:.1f}%" for b in (0, 1, 2, 3, 4, 5)
    )
    _report("C3", ok, f"reductions vs baseline {rep[0].f_s_mean('a'):.0f} Hz: {detail}")
    assert ok


# -------------------------------------------------------------------------
# Criterion 4: capacitor ripple at budget 6 is 1.2% +/- 0.6 pp and agrees
# across the submodules of an arm within 0.3 pp.
# -------------------------------------------------------------------------
def test_c4_capacitor_ripple(paper_v1fc_trace):
    rep = m.segment_report(paper_v1fc_trace)
    seg = rep[0]
    assert seg.n_sw_max == 6
    ripples = seg.ripple_pct[0]  # phase a, 12 submodules
    in_band = bool(np.all(np.abs(ripples - 1.2) <= 0.6))
    spread_up = float(ripples[:6].max() - ripples[:6].min())
    spread_low = float(ripples[6:].max() - ripples[6:].min())
    agree = spread_up <= 0.3 and spread_low <= 0.3
    ok = in_band and agree
    _report(
        "C4",
        ok,
        f"ripple {ripples.min():.2f}..{ripples.max():.2f}% "
        f"(band 0.6..1.8), arm spreads {spread_up:.2f}/{spread_low:.2f} pp (<= 0.3)",
    )
    assert ok


# -------------------------------------------------------------------------
# Criterion 5: circulating-current deviation stays within 15% of the AC
# amplitude in every segment.
# -------------------------------------------------------------------------
def test_c5_circulating_current_suppression(paper_v1fc_trace):
    rep = m.segment_report(paper_v1fc_trace)
    worst = max(float(seg.izm_ratio_pct.max()) for seg in rep)
    ok = worst <= 15.0
    _report("C5", ok, f"worst deviation over 8 segments x 3 phases: {worst:.1f}% (<= 15%)")
    assert ok


# -------------------------------------------------------------------------
# Criterion 6: model equations against independent closed-form fixtures,
# within 1e-12 relative.
# -------------------------------------------------------------------------
def test_c6_model_equation_fixtures(table1):
    checks: list[tuple[str, float, float]] = []

    checks.append(
        ("ac current drive", m.predict_ac_current(table1, 29000.0, 31000.0, 0.0, 0.0),
         3.8457101103718805)
    )
    checks.append(
        ("ac current memory", m.predict_ac_current(table1, 30000.0, 30000.0, 0.0, 10.0),
         9.99884628696689)
    )
    arm = m.ArmState([10000.0] * 6, [0] * 6)
    checks.append(
        ("capacitor increment",
         m.anticipate_capacitor_voltages(arm, 100.0, [1] * 6, table1)[0], 10001.0)
    )
    checks.append(
        ("arm voltage",
         m.arm_voltage([10100.0, 9900.0, 10000.0, 10000.0, 10050.0, 9950.0],
                       [1, 0, 1, 0, 1, 0]),
         30150.0)
    )
    checks.append(
        ("circulating current",
         m.predict_circulating_current(table1, 29880.0, 29880.0, 0.0), 1.0)
    )
    targets = m.compute_targets(table1, 100.0, 0.0, 0.0, 0.0)
    checks.append(("upper target", targets.v_up_target, 3997.0))
    checks.append(("lower target", targets.v_low_target, 56003.0))
    t0 = m.ArmTargets(30000.0, 30000.0)
    checks.append(
        ("objective tracking term", m.objective_f(table1, t0, 29900.0, 30100.0),
         0.38457101103718805)
    )
    checks.append(
        ("objective circulating term", m.objective_f(table1, t0, 29880.0, 29880.0),
         1.0)
    )
    # budget penalty on the enumerated 3-submodule instance
    p3 = m.SystemParams(n=3)
    s = m.sort_v1fc(m.ArmState([10.0, 9.0, 11.0], [1, 0, 1]), 1.0, 0, p3)
    checks.append(("penalty vector", float(s.penalties == (0, 0, 1)), 1.0))
    sums = m.cumulative_sums(
        m.sort_v1f2(m.ArmState([9900.0, 10000.0, 10100.0], [0] * 3), 1.0, p3),
        [9900.0, 10000.0, 10100.0],
    )
    checks.append(("cumulative sum tail", sums[3], 30000.0))
    checks.append(("cumulative sum head", sums[0] + 1.0, 1.0))

    failed = [
        name
        for name, got, want in checks
        if not got == pytest.approx(want, rel=REL)
    ]
    ok = not failed
    _report("C6", ok, f"{len(checks)} closed-form fixtures, failed: {failed or 'none'}")
    assert ok


# -------------------------------------------------------------------------
# Criterion 7: property suite.
# -------------------------------------------------------------------------
def test_c7_determinism():
    a = m.run_scenario(m.fast_config("v1fc"))
    b = m.run_scenario(m.fast_config("v1fc"))
    same = all(
        np.array_equal(getattr(a.phase(ph), f), getattr(b.phase(ph), f))
        for ph in "abc"
        for f in ("i_ac", "i_ref", "i_circ", "v_grid", "v_c", "u",
                  "switches_upper", "switches_lower")
    ) and np.array_equal(a.t, b.t) and np.array_equal(a.n_sw_max, b.n_sw_max)
    _report("C7a", same, "bit-identical repeat of the fast scenario")
    assert same


def test_c7_capacitor_changes_iff_inserted(fast_v1fc_trace):
    params = fast_v1fc_trace.config.params
    bad_hold = 0
    bad_drift = 0
    for ph in "abc":
        tr = fast_v1fc_trace.phase(ph)
        steps = fast_v1fc_trace.steps
        prev_vc = np.vstack([np.full((1, 12), 10e3), tr.v_c[:-1]])
        prev_i = np.concatenate([[0.0], tr.i_ac[:-1]])
        prev_iz = np.concatenate([[0.0], tr.i_circ[:-1]])
        delta = tr.v_c - prev_vc
        inserted = tr.u == 1
        # bypassed submodules hold their voltage bit for bit
        bad_hold += int(np.count_nonzero(delta[~inserted] != 0.0))
        # inserted ones integrate the arm current measured before the step
        i_up = prev_iz + 0.5 * prev_i
        i_low = prev_iz - 0.5 * prev_i
        inc = np.hstack([
            np.repeat((params.t_s * i_up / params.c_sm)[:, None], 6, axis=1),
            np.repeat((params.t_s * i_low / params.c_sm)[:, None], 6, axis=1),
        ])
        err = np.abs(delta - inc)[inserted]
        scale = np.maximum(np.abs(inc[inserted]), 1e-6)
        bad_drift += int(np.count_nonzero(err > 1e-9 * scale + 1e-12))
        assert steps == len(tr.i_ac)
    ok = bad_hold == 0 and bad_drift == 0
    _report(
        "C7b", ok,
        f"capacitor-changes-iff-inserted on every step: "
        f"{bad_hold} hold violations, {bad_drift} drift violations",
    )
    assert ok


def test_c7_sort_properties(table1):
    rng = random.Random(424242)
    trials = 10_000
    bad = 0
    for _ in range(trials):
        v = [10e3 * rng.uniform(0.9, 1.1) for _ in range(6)]
        u = [rng.randint(0, 1) for _ in range(6)]
        i_arm = rng.uniform(-400.0, 400.0)
        budget = rng.randint(0, 6)
        s = m.sort_v1fc(m.ArmState(v, u), i_arm, budget, table1)
        if sorted(s.order) != list(range(6)):
            bad += 1
            continue
        events = 0
        for pos, j in enumerate(s.order):
            events += 1 - u[j]
            if s.switch_counts[pos] != events:
                bad += 1
                break
            if s.penalties[pos] != max(0, events - budget):
                bad += 1
                break
    ok = bad == 0
    _report("C7c", ok, f"{trials} random sorts: permutation + penalty recomputation, {bad} bad")
    assert ok


def test_c7_target_sum_identity(table1):
    rng = random.Random(99)
    trials = 10_000
    bad = 0
    for _ in range(trials):
        i_circ = rng.uniform(-300.0, 300.0)
        t = m.compute_targets(
            table1,
            rng.uniform(-500.0, 500.0),
            rng.uniform(-500.0, 500.0),
            i_circ,
            rng.uniform(-30e3, 30e3),
        )
        expect = table1.v_dc + (2.0 * table1.l_arm / table1.t_s) * i_circ
        if abs(t.v_up_target + t.v_low_target - expect) > 1e-12 * max(abs(expect), 1.0):
            bad += 1
    ok = bad == 0
    _report("C7d", ok, f"{trials} random target sums within 1e-12 relative, {bad} bad")
    assert ok


# -------------------------------------------------------------------------
# Criterion 8: tracking error within 5% of the reference RMS everywhere.
# -------------------------------------------------------------------------
def test_c8_tracking_sanity(paper_v1fc_trace):
    rep = m.segment_report(paper_v1fc_trace)
    worst = max(float(seg.tracking_rmse_pct.max()) for seg in rep)
    ok = worst <= 5.0
    _report("C8", ok, f"worst tracking RMSE over 8 segments x 3 phases: {worst:.2f}% (<= 5%)")
    assert ok
