"""Discrete-time model of one modular-multilevel-converter phase leg.

Value types for the converter state plus the single-step prediction
equations used both by the simulated plant and by the modulation stage
when it anticipates the effect of a candidate switch pattern.  All
operations are pure functions of their inputs; ``step_phase`` returns a
new state instead of mutating the old one.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Any, Sequence


class SimulationDiverged(RuntimeError):
    """A state update produced a non-finite value."""


def _check_type(where: str, value: Any, kind: type) -> None:
    """An int field takes an int, a float field an int or a float, a str
    field a str; a bool is not a number (and no field is a bool)."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")


def _check_field_types(cls: type, values: dict[str, Any], where: str = "") -> None:
    """``_check_type`` on ``values[name]``, named ``where + name``, for each
    field of the dataclass ``cls`` that has a plain default, against the
    default's type; a field built by a factory is left to its own check."""
    for f in fields(cls):
        if f.default is not MISSING:
            _check_type(where + f.name, values[f.name], type(f.default))


@dataclass(frozen=True)
class SystemParams:
    """Electrical constants of one MMC terminal plus objective weights.

    Defaults reproduce the desk-scale HVDC case-study configuration.
    The AC side is a stiff source behind a series R-L branch; each arm
    carries ``n`` half-bridge submodules and an arm inductor.
    """

    n: int = 6                 # submodules per arm
    v_dc: float = 60e3         # DC link voltage [V]
    c_sm: float = 2.5e-3       # submodule capacitance [F]
    l_arm: float = 3e-3        # arm inductance [H]
    r_grid: float = 0.03       # grid-side series resistance [ohm]
    l_grid: float = 5e-3       # grid-side series inductance [H]
    t_s: float = 25e-6         # sampling period [s]
    f_grid: float = 60.0       # grid frequency [Hz]
    w_track: float = 1.0       # AC current tracking weight
    w_circ: float = 1.0        # circulating current weight

    def __post_init__(self) -> None:
        _check_field_types(SystemParams, vars(self))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # NswSchedule.per_step holds the budgets, at most n, as int16
        if self.n > 32767:
            raise ValueError(f"n must be <= 32767, got {self.n}")
        # negated comparisons, so that NaN fails them too
        for name in ("r_grid", "w_track", "w_circ"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # z_step is derived, and can underflow to 0 or overflow
        for name in ("v_dc", "c_sm", "l_arm", "l_grid", "t_s", "f_grid", "z_step"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def l_ac(self) -> float:
        """Effective AC-loop inductance: grid inductance plus half an arm [H]."""
        return self.l_grid + self.l_arm / 2.0

    @property
    def z_step(self) -> float:
        """One-step discretized loop impedance R + L_ac / T_s [ohm]."""
        return self.r_grid + self.l_ac / self.t_s

    @property
    def v_sm_nominal(self) -> float:
        """Nominal capacitor voltage of a single submodule [V]."""
        return self.v_dc / self.n


@dataclass(frozen=True)
class SwitchDecision:
    """Binary insertion pattern for a phase leg.

    ``statuses`` holds the upper arm first, then the lower arm; 1 means
    the submodule capacitor is inserted in the arm path.
    """

    statuses: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.statuses) % 2 != 0:
            raise ValueError("statuses must cover two arms of equal size")
        if any(s not in (0, 1) for s in self.statuses):
            raise ValueError("statuses must be 0 or 1")


@dataclass
class ArmState:
    """Capacitor voltages and switch statuses of one arm; its current is
    derived from the leg's by ``arm_currents``."""

    v_c: list[float]           # per-SM capacitor voltage [V]
    u: list[int]               # per-SM status, 1 = inserted

    def __post_init__(self) -> None:
        if len(self.v_c) != len(self.u):
            raise ValueError(
                f"v_c and u must have equal length, got {len(self.v_c)} and {len(self.u)}"
            )
        if any(s not in (0, 1) for s in self.u):
            raise ValueError("statuses must be 0 or 1")


@dataclass
class PhaseLegState:
    """Full state of one phase leg: two arms plus terminal quantities."""

    upper: ArmState
    lower: ArmState
    i_ac: float = 0.0          # AC output current [A]
    i_circ: float = 0.0        # circulating (common-mode) current [A]
    v_grid: float = 0.0        # grid phase voltage sample [V]


def nominal_phase_state(params: SystemParams, v_grid: float = 0.0) -> PhaseLegState:
    """Equilibrium initial state: all capacitors at V_dc/n, everything off.

    The model itself never prescribes a start-up condition; this balanced
    initialization is the documented convention of the simulator.
    """
    n = params.n
    v0 = params.v_sm_nominal
    return PhaseLegState(
        upper=ArmState([v0] * n, [0] * n),
        lower=ArmState([v0] * n, [0] * n),
        i_ac=0.0,
        i_circ=0.0,
        v_grid=v_grid,
    )


def arm_currents(i_ac: float, i_circ: float) -> tuple[float, float]:
    """Split terminal quantities into (upper, lower) arm currents.

    Single home of the convention i_up = i_circ + i_ac/2 and
    i_low = i_circ - i_ac/2; every arm-current-dependent computation
    routes through here.
    """
    half = 0.5 * i_ac
    return i_circ + half, i_circ - half


def predict_ac_current(
    params: SystemParams,
    v_up_next: float,
    v_low_next: float,
    v_grid: float,
    i_now: float,
) -> float:
    """Next-step AC current given next-step arm voltages.

    ``v_grid`` is the caller's estimate of the grid voltage over the
    coming step; the controller passes the latest measured sample, the
    plant passes the true next sample.  A non-finite input gives a
    non-finite current, which ``step_phase`` reports.
    """
    return (
        (v_low_next - v_up_next) / 2.0 - v_grid + (params.l_ac / params.t_s) * i_now
    ) / params.z_step


def anticipate_capacitor_voltages(
    arm: ArmState,
    i_arm: float,
    u_next: Sequence[int],
    params: SystemParams,
) -> list[float]:
    """Capacitor voltages after one step under pattern ``u_next``.

    Inserted submodules integrate the arm current for one period;
    bypassed submodules are returned unchanged (bit for bit).
    """
    if len(u_next) != len(arm.v_c):
        raise ValueError(
            f"u_next has length {len(u_next)}, arm has {len(arm.v_c)} submodules"
        )
    inc = params.t_s * i_arm / params.c_sm
    return [v + inc if s else v for v, s in zip(arm.v_c, u_next)]


def arm_voltage(v_c_next: Sequence[float], u_next: Sequence[int]) -> float:
    """Voltage across an arm: sum of the inserted capacitor voltages, added
    in submodule order (the builtin ``sum`` compensates float rounding from
    Python 3.12 on, which the compiled kernel does not)."""
    if len(v_c_next) != len(u_next):
        raise ValueError("v_c_next and u_next must have equal length")
    total = 0.0
    for v, s in zip(v_c_next, u_next):
        if s:
            total += v
    return total


def predict_circulating_current(
    params: SystemParams,
    v_up_next: float,
    v_low_next: float,
    i_circ_now: float,
) -> float:
    """Next-step circulating current from the phase-leg voltage imbalance."""
    return (params.t_s / (2.0 * params.l_arm)) * (
        params.v_dc - v_low_next - v_up_next
    ) + i_circ_now


def _non_finite_state(i_ac: float, i_circ: float, v_c: list[float]) -> str:
    """The text of a leg whose currents turned non-finite in a step, from
    ``step_phase`` and the compiled kernel alike: the new currents and the
    new capacitor voltages, upper arm first."""
    return f"non-finite state after the step: i_ac={i_ac!r}, i_circ={i_circ!r}, v_c={v_c!r}"


def step_phase(
    state: PhaseLegState,
    decision: SwitchDecision,
    v_grid_next: float,
    params: SystemParams,
) -> PhaseLegState:
    """Advance one phase leg by one sampling period under ``decision``.

    Order of the update: capacitor dynamics driven by the arm currents
    that ``arm_currents`` derives from the leg's currents now, then arm
    voltages, then AC and circulating currents.  Raises ``SimulationDiverged``,
    with the text of ``_non_finite_state``, if the new currents are not
    finite, and names the arm if a bypassed capacitor voltage is not.
    """
    n = params.n
    if len(decision.statuses) != 2 * n:
        raise ValueError(
            f"decision covers {len(decision.statuses)} submodules, expected {2 * n}"
        )
    u_up, u_low = decision.statuses[:n], decision.statuses[n:]

    i_up, i_low = arm_currents(state.i_ac, state.i_circ)
    v_c_up = anticipate_capacitor_voltages(state.upper, i_up, u_up, params)
    v_c_low = anticipate_capacitor_voltages(state.lower, i_low, u_low, params)
    v_up = arm_voltage(v_c_up, u_up)
    v_low = arm_voltage(v_c_low, u_low)

    i_ac = predict_ac_current(params, v_up, v_low, v_grid_next, state.i_ac)
    i_circ = predict_circulating_current(params, v_up, v_low, state.i_circ)
    # a non-finite inserted capacitor voltage spoils both currents
    if not (math.isfinite(i_ac) and math.isfinite(i_circ)):
        raise SimulationDiverged(_non_finite_state(i_ac, i_circ, v_c_up + v_c_low))
    # a bypassed submodule reaches neither current; any NaN or inf spoils the sum
    for arm, v_c in (("upper", v_c_up), ("lower", v_c_low)):
        if not math.isfinite(sum(v_c)):
            raise SimulationDiverged(f"non-finite capacitor voltage in the {arm} arm: {v_c!r}")

    return PhaseLegState(
        upper=ArmState(v_c_up, list(u_up)),
        lower=ArmState(v_c_low, list(u_low)),
        i_ac=i_ac,
        i_circ=i_circ,
        v_grid=v_grid_next,
    )
