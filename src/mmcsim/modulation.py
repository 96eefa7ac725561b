"""Per-phase switching decision: targets, sorted selection, and both
submodule orderings (the conventional voltage sort and the
switching-constrained cascade)."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

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
    permutations; the bare selectors leave it None.
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
    d_up = targets.v_up_target - v_up_next
    d_low = targets.v_low_target - v_low_next
    return (params.w_track / (2.0 * params.z_step)) * abs(d_low - d_up) + (
        params.w_circ * params.t_s / (2.0 * params.l_arm)
    ) * abs(d_low + d_up)


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
    """Exhaustive reference selection over every (m_up, m_low) pair.

    Kept as the oracle the grid selector is tested against; ties are
    broken by smaller objective, then smaller m_up, then smaller m_low.
    """
    best: tuple[float, int, int] | None = None
    for m_up, a in enumerate(alpha):
        for m_low, b in enumerate(beta):
            key = (objective_f(params, targets, a, b), m_up, m_low)
            if best is None or key < best:
                best = key
    assert best is not None
    return SelectionResult(m_up=best[1], m_low=best[2], f_value=best[0])


class GridSelector:
    """Full-grid selection for a fixed batch of legs, with its buffers.

    Built once for legs of leading shape ``lead`` with ``n`` submodules per
    arm.  A call takes ``sums`` of shape lead + (2, n+1), the upper then the
    lower cumulative sums, and ``targets`` of shape lead + (2, 1), the upper
    then the lower target, and returns, as a new array of shape ``lead``,
    the flat index ``m_up * (n+1) + m_low`` of the cell that minimizes the
    objective.  Each cell is computed with the operations of ``objective_f``,
    so it is the same float, and ``argmin`` over the row-major grid takes
    the first minimum: the tie-break of ``brute_force_select``, smaller
    objective, then smaller m_up, then smaller m_low.  A NaN cell counts as
    +inf, as a NaN never wins a comparison in the scan; the two differ only
    when cell (0, 0) is NaN, which the scan then keeps.
    """

    def __init__(self, lead: tuple[int, ...], n: int, params: SystemParams) -> None:
        size = n + 1
        self.n = n
        # 0-d arrays: a ufunc converts a Python float operand on every call
        self.c_track = np.array(params.w_track / (2.0 * params.z_step))
        self.c_circ = np.array(params.w_circ * params.t_s / (2.0 * params.l_arm))
        self._inf = np.array(np.inf)
        self._d = np.empty(lead + (2, size))
        # the flat index in d of each cell's lower and upper difference: one
        # gather lays both grids out contiguously, and a ufunc on contiguous
        # operands of one shape costs less than one that broadcasts
        m_up, m_low = np.divmod(np.arange(size * size), size)
        first = np.arange(0, self._d.size, 2 * size).reshape(lead + (1,))
        self._gather = np.array((first + size + m_low, first + m_up))
        self._grids = np.empty((2,) + lead + (size * size,))
        self._d_low, self._d_up = self._grids
        self._f = np.empty(lead + (size * size,))
        self._g = np.empty_like(self._f)

    def __call__(self, sums: np.ndarray, targets: np.ndarray) -> np.ndarray:
        d, d_low, d_up, f, g = self._d, self._d_low, self._d_up, self._f, self._g
        np.subtract(targets, sums, out=d)
        # mode="clip" only spares numpy a buffered copy of `out`
        d.take(self._gather, out=self._grids, mode="clip")
        np.subtract(d_low, d_up, out=f)
        np.abs(f, out=f)
        np.multiply(self.c_track, f, out=f)
        np.add(d_low, d_up, out=g)
        np.abs(g, out=g)
        np.multiply(self.c_circ, g, out=g)
        np.add(f, g, out=f)
        np.fmin(f, self._inf, out=f)
        return f.argmin(axis=-1)

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Insertion masks by cell, (cell, arm, position) bool: ``masks[c]``
        inserts the first m_up upper and m_low lower submodules in sorted
        order."""
        m_up, m_low = np.divmod(np.arange((self.n + 1) ** 2), self.n + 1)
        return np.arange(self.n) < np.stack((m_up, m_low), axis=-1)[..., None]


def select_grid(sums: np.ndarray, targets: np.ndarray, params: SystemParams) -> np.ndarray:
    """Insertion counts (m_up, m_low) minimizing the objective over every pair.

    ``sums[..., 0, :]`` and ``sums[..., 1, :]`` are the upper and lower
    cumulative sums (n+1 entries each), ``targets[..., 0]`` and
    ``targets[..., 1]`` the upper and lower targets; any leading shape
    batches independent legs, and the result has shape (..., 2).  The
    selection is ``GridSelector``'s, ties and NaN cells included.
    """
    size = sums.shape[-1]
    cell = GridSelector(sums.shape[:-2], size - 1, params)(sums, targets[..., None])
    return np.stack(np.divmod(cell, size), axis=-1)


def select_optimal(
    alpha: Sequence[float],
    beta: Sequence[float],
    targets: ArmTargets,
    params: SystemParams,
) -> SelectionResult:
    """Minimize the selection objective over the cumulative-sum grids.

    Evaluates the full grid with ``GridSelector``, the selection the
    scenario engine runs, so the result is ``brute_force_select``'s for
    any weights, tie-breaks included.  ``alpha`` and ``beta`` have the
    same length.
    """
    cell = GridSelector((), len(alpha) - 1, params)(
        np.array([alpha, beta]), np.array([[targets.v_up_target], [targets.v_low_target]])
    )
    m_up, m_low = divmod(int(cell), len(alpha))
    return SelectionResult(
        m_up=m_up,
        m_low=m_low,
        f_value=objective_f(params, targets, alpha[m_up], beta[m_low]),
    )


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
    chosen = select_optimal(alpha, beta, targets, params)

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
