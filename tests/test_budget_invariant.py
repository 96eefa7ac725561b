"""The v1fc budget as an exact invariant: on every arm-step, turn-ons are at
most the budget plus the forced ones, the rise of the inserted count.

Turn-offs are free, so a selection may insert more submodules than before;
those rises are forced turn-ons.  The v1fc order puts every ON submodule and
the first ``budget`` OFF ones (penalty 0) ahead of the rest, so any prefix
turns on at most ``budget`` submodules, or, once it holds every ON one,
exactly the rise.
"""
from itertools import accumulate

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mmcsim as m  # noqa: E402


@st.composite
def _legs(draw):
    n = draw(st.integers(1, 8))
    params = m.SystemParams(
        n=n,
        w_track=draw(st.floats(0.0, 10.0)),
        w_circ=draw(st.floats(0.0, 10.0)),
    )
    v_sm = params.v_sm_nominal
    volts = st.floats(0.5 * v_sm, 1.5 * v_sm)
    arms = [
        m.ArmState(draw(st.lists(volts, min_size=n, max_size=n)),
                   draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        for _ in range(2)
    ]
    currents = draw(st.lists(st.floats(-2e3, 2e3), min_size=2, max_size=2))
    # targets over the reachable arm voltages and a little past them
    targets = draw(st.lists(st.floats(-0.2 * params.v_dc, 2.0 * params.v_dc),
                            min_size=2, max_size=2))
    budget = draw(st.integers(0, n))
    return params, arms, currents, targets, budget


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_legs())
def test_v1fc_turn_ons_within_budget_plus_forced(leg):
    params, arms, currents, targets, budget = leg
    sorted_arms = [
        m.sort_v1fc(arm, i_arm, budget, params) for arm, i_arm in zip(arms, currents)
    ]
    # the sums and the selection of modulate_phase
    alpha, beta = (list(accumulate(s.v_next, initial=0.0)) for s in sorted_arms)
    chosen = m.brute_force_select(alpha, beta, m.ArmTargets(*targets), params)
    for arm, s, m_new in zip(arms, sorted_arms, (chosen.m_up, chosen.m_low)):
        inserted = set(s.order[:m_new])
        turn_ons = sum(1 for j in inserted if not arm.u[j])
        forced = max(0, m_new - sum(arm.u))
        assert turn_ons <= budget + forced, (turn_ons, budget, forced)
