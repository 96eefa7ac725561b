"""Per-phase switching decision: targets, sorted selection, and both
submodule orderings (the conventional voltage sort and the
switching-constrained cascade)."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .core import (
    ArmState,
    PhaseLegState,
    SwitchDecision,
    SystemParams,
    anticipate_capacitor_voltages,
    arm_currents,
)

ALGORITHMS = ("v1f2", "v1fc")


@dataclass(frozen=True)
class ArmTargets:
    """Ideal next-step arm voltages for exact tracking and zero
    circulating-current residual."""

    v_up_target: float
    v_low_target: float


@dataclass(frozen=True)
class SortedArm:
    """Result of a sorting pass over one arm.

    ``order[m]`` is the original submodule index placed at position m and
    ``v_next[m]`` its anticipated capacitor voltage.  ``u`` holds the
    arm's statuses before the step, by original index, and ``budget`` the
    switching budget the order was built for; the per-position keys
    ``switch_counts`` and ``penalties`` are derived from these.
    """

    order: tuple[int, ...]
    v_next: tuple[float, ...]
    u: tuple[int, ...]
    budget: int

    @property
    def switch_counts(self) -> tuple[int, ...]:
        """Cumulative count of turn-on events over each prefix of the order."""
        return tuple(accumulate(1 - self.u[j] for j in self.order))

    @property
    def penalties(self) -> tuple[int, ...]:
        """Budget penalty max(0, count - budget) of each prefix."""
        return tuple(max(0, c - self.budget) for c in self.switch_counts)


@dataclass(frozen=True)
class SelectionResult:
    """Insertion counts chosen for a phase leg and their objective value.

    ``decision`` is populated by ``modulate_phase``, which knows the sort
    permutations; ``brute_force_select`` leaves it None.
    """

    m_up: int
    m_low: int
    f_value: float
    decision: Optional[SwitchDecision] = None


def compute_targets(
    params: SystemParams,
    i_ref: float,
    i_now: float,
    i_circ_now: float,
    v_grid_now: float,
) -> ArmTargets:
    """Arm-voltage targets that would track ``i_ref`` exactly and drive the
    circulating current to zero in one step."""
    common = params.v_dc / 2.0 + (params.l_arm / params.t_s) * i_circ_now
    drive = params.z_step * i_ref + v_grid_now - (params.l_ac / params.t_s) * i_now
    return ArmTargets(common - drive, common + drive)


def objective_f(
    params: SystemParams,
    targets: ArmTargets,
    v_up_next: float,
    v_low_next: float,
) -> float:
    """Weighted selection objective for one candidate pair of arm voltages.

    The two terms equal w_track * |AC tracking error| and
    w_circ * |next circulating current| expressed in amperes.
    """
    w_track, w_circ = _objective_weights(params)
    return _weighted(w_track, w_circ, targets.v_up_target - v_up_next, targets.v_low_target - v_low_next)


def _objective_weights(params: SystemParams) -> tuple[float, float]:
    # the weights of objective_f's two terms, per volt of d_low -+ d_up
    return params.w_track / (2.0 * params.z_step), params.w_circ * params.t_s / (2.0 * params.l_arm)


def _weighted(w_track: float, w_circ: float, d_up: float, d_low: float) -> float:
    # objective_f from its weights and the two arms' target-minus-candidate
    return w_track * abs(d_low - d_up) + w_circ * abs(d_low + d_up)


def _anticipated_all_on(arm: ArmState, i_arm: float, params: SystemParams) -> list[float]:
    # sorting keys assume hypothetical insertion of every SM; the increment
    # is uniform across an arm, so measured-voltage order is preserved
    return anticipate_capacitor_voltages(arm, i_arm, [1] * params.n, params)


def sort_v1f2(arm: ArmState, i_arm: float, params: SystemParams) -> SortedArm:
    """Conventional balancing order: anticipated capacitor voltage only.

    Ascending while the arm current charges (i_arm >= 0), descending
    otherwise, ties keeping index order.  Budget n: penalties are all zero.
    """
    v_next = _anticipated_all_on(arm, i_arm, params)
    order = sorted(range(params.n), key=v_next.__getitem__, reverse=i_arm < 0)
    return SortedArm(
        order=tuple(order),
        v_next=tuple(v_next[j] for j in order),
        u=tuple(arm.u),
        budget=params.n,
    )


def sort_v1fc(
    arm: ArmState,
    i_arm: float,
    n_sw_max: int,
    params: SystemParams,
) -> SortedArm:
    """Switching-constrained balancing order (cascaded stable sorts).

    Passes: (a) currently-inserted SMs first, (b) anticipated capacitor
    voltage (ascending when charging), (c) stable re-sort by the
    switching-budget penalty.  The penalty key lives on each submodule:
    an already-ON SM switches for free and carries zero penalty, while
    the k-th OFF SM along the voltage order carries max(0, k - budget).
    Attaching the prefix-cumulative count to positions instead would be
    non-decreasing along the order and the final stable sort would never
    move anything, voiding the constraint.

    With ``n_sw_max == n`` every penalty is zero and the result collapses
    to the plain voltage order of ``sort_v1f2``.
    """
    n = params.n
    if not 0 <= n_sw_max <= n:
        raise ValueError(f"n_sw_max must be in [0, {n}], got {n_sw_max}")
    u_now = arm.u
    v_next = _anticipated_all_on(arm, i_arm, params)

    order = sorted(range(n), key=lambda j: -u_now[j])
    order = sorted(order, key=v_next.__getitem__, reverse=i_arm < 0)

    penalty = [0] * n
    events = 0
    for j in order:
        if not u_now[j]:
            events += 1
            if events > n_sw_max:
                penalty[j] = events - n_sw_max
    order.sort(key=penalty.__getitem__)

    return SortedArm(
        order=tuple(order),
        v_next=tuple(v_next[j] for j in order),
        u=tuple(u_now),
        budget=n_sw_max,
    )


def cumulative_sums(sorted_arm: SortedArm, v_c_next: Sequence[float]) -> list[float]:
    """Running sums [0, s1, ..., sn] of anticipated capacitor voltages taken
    in the sorted order; entry k is the arm voltage obtained by inserting
    the first k submodules."""
    return list(accumulate((v_c_next[j] for j in sorted_arm.order), initial=0.0))


def brute_force_select(
    alpha: Sequence[float],
    beta: Sequence[float],
    targets: ArmTargets,
    params: SystemParams,
) -> SelectionResult:
    """Insertion counts (m_up, m_low) minimizing the objective, by a scan of
    every pair of cumulative sums: the reference selection, and the oracle
    the compiled kernel's selection is tested against.

    Ties are broken by smaller objective, then smaller m_up, then smaller
    m_low; a NaN objective never wins a comparison.  Empty sums raise
    ``ValueError``.
    """
    for name, sums in (("alpha", alpha), ("beta", beta)):
        if len(sums) == 0:
            raise ValueError(f"{name}: no cumulative sums, expected n+1 entries")
    # objective_f per cell, its weights and targets read once per call: the
    # same operations, so the same floats
    w_track, w_circ = _objective_weights(params)
    t_up, t_low = targets.v_up_target, targets.v_low_target
    best: tuple[float, int, int] | None = None
    for m_up, a in enumerate(alpha):
        d_up = t_up - a
        for m_low, b in enumerate(beta):
            # the scan runs in (m_up, m_low) order, so a cell that ties the
            # best so far comes after it and loses: the objective decides
            f = _weighted(w_track, w_circ, d_up, t_low - b)
            if best is None or f < best[0]:
                best = (f, m_up, m_low)
    return SelectionResult(m_up=best[1], m_low=best[2], f_value=best[0])


# perfbench/tracer.py looks up both names on this module
select_optimal = brute_force_select


def modulate_phase(
    state: PhaseLegState,
    i_ref: float,
    n_sw_max: int,
    algorithm: str,
    params: SystemParams,
    i_circ_nominal: float = 0.0,
) -> SelectionResult:
    """One full modulation pass for one phase leg.

    Anticipates capacitor voltages, sorts each arm with the chosen
    strategy, builds cumulative sums, selects insertion counts against
    the voltage targets, and maps the chosen prefixes back to original
    submodule indices.

    ``i_circ_nominal`` is subtracted from the measured circulating
    current before the targets are formed, steering the common-mode
    current toward that value instead of zero.  The scenario layer uses
    it to route the average DC-side power of the operating point; the
    default of zero leaves the textbook behaviour untouched.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    n = params.n
    i_up, i_low = arm_currents(state.i_ac, state.i_circ)

    targets = compute_targets(
        params, i_ref, state.i_ac, state.i_circ - i_circ_nominal, state.v_grid
    )

    if algorithm == "v1f2":
        up = sort_v1f2(state.upper, i_up, params)
        low = sort_v1f2(state.lower, i_low, params)
    else:
        up = sort_v1fc(state.upper, i_up, n_sw_max, params)
        low = sort_v1fc(state.lower, i_low, n_sw_max, params)

    # the sorts already hold the anticipated voltages in sorted order
    alpha = list(accumulate(up.v_next, initial=0.0))
    beta = list(accumulate(low.v_next, initial=0.0))
    chosen = brute_force_select(alpha, beta, targets, params)

    statuses = [0] * (2 * n)
    for m in range(chosen.m_up):
        statuses[up.order[m]] = 1
    for m in range(chosen.m_low):
        statuses[n + low.order[m]] = 1
    return SelectionResult(
        m_up=chosen.m_up,
        m_low=chosen.m_low,
        f_value=chosen.f_value,
        decision=SwitchDecision(tuple(statuses)),
    )
