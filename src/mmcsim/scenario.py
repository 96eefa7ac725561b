"""Back-to-back HVDC scenario: three phase legs against a stiff (or
pi-line) DC side, advanced at a fixed sampling period."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import numpy as np

from .core import (
    ArmState, PhaseLegState, SimulationDiverged, SystemParams, _check_field_types, _check_type, nominal_phase_state,
    step_phase,
)
from .modulation import ALGORITHMS, modulate_phase

PHASES = ("a", "b", "c")
_PHASE_OFFSET = {"a": 0.0, "b": 2.0 * math.pi / 3.0, "c": 4.0 * math.pi / 3.0}

DC_MODELS = ("stiff", "piline")


def steps_until(t: float, t_s: float) -> int:
    """Number of steps ending at or before ``t`` (step k ends at (k+1)*t_s);
    a time up to 1e-6 * t_s short of a step's end counts as reaching it."""
    return math.floor(t / t_s + 1e-6)


@dataclass(frozen=True)
class NswSchedule:
    """Piecewise-constant cap on switching events per arm per step.

    Segments are (t_start, t_end, n_sw_max) with half-open spans
    (t_start, t_end]; together they must tile (0, duration].  A segment
    holds the steps that end inside it.  Each segment's shape (three
    items) and types and the finiteness of its bounds are checked when the
    schedule is built; ``validate`` checks the tiling and the budgets'
    range against a config.
    """

    segments: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.segments, (tuple, list)):
            raise ValueError(f"nsw_schedule: segments: expected a tuple of segments, got {self.segments!r}")
        for k, segment in enumerate(self.segments):
            if not isinstance(segment, (tuple, list)) or len(segment) != 3:
                raise ValueError(f"nsw_schedule: segment {k}: expected (start, end, n_sw_max), got {segment!r}")
            start, end, n_max = segment
            _check_type(f"nsw_schedule: segment {k} bounds", start, float)
            _check_type(f"nsw_schedule: segment {k} bounds", end, float)
            _check_type(f"nsw_schedule: segment {k} n_sw_max", n_max, int)
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError(f"nsw_schedule: segment {k} has a non-finite bound ({start}, {end}]")

    def validate(self, n: int, duration: float) -> None:
        if not self.segments:
            raise ValueError("nsw_schedule: needs at least one segment")
        prev_end = 0.0
        for k, (start, end, n_max) in enumerate(self.segments):
            if not 0 <= n_max <= n:
                raise ValueError(
                    f"nsw_schedule: segment {k} has n_sw_max={n_max}, outside [0, {n}]"
                )
            if end <= start:
                raise ValueError(f"nsw_schedule: segment {k} is empty ({start}, {end}]")
            if abs(start - prev_end) > 1e-9:
                raise ValueError(
                    f"nsw_schedule: segment {k} starts at {start}, expected {prev_end}"
                )
            prev_end = end
        if abs(prev_end - duration) > 1e-9:
            raise ValueError(
                f"nsw_schedule: segments end at {prev_end}, expected duration {duration}"
            )

    def per_step(self, t_s: float, steps: int) -> np.ndarray:
        """Budget of each step, int16; the last segment runs to the last step."""
        budgets = [n_max for _, _, n_max in self.segments]
        ends = [steps_until(end, t_s) for _, end, _ in self.segments[:-1]] + [steps]
        return np.repeat(np.array(budgets).astype(np.int16), np.diff([0, *ends]))


def paper_schedule() -> NswSchedule:
    """The case-study staircase: budget 6 through warm-up and the first
    reported window, then 0..5 in 0.2 s segments, then 6 again."""
    return NswSchedule(
        segments=(
            (0.0, 1.2, 6),
            (1.2, 1.4, 0),
            (1.4, 1.6, 1),
            (1.6, 1.8, 2),
            (1.8, 2.0, 3),
            (2.0, 2.2, 4),
            (2.2, 2.4, 5),
            (2.4, 2.6, 6),
        )
    )


def fast_schedule() -> NswSchedule:
    """Compressed staircase for CI: same shape, 50 ms segments."""
    return NswSchedule(
        segments=(
            (0.0, 0.15, 6),
            (0.15, 0.20, 0),
            (0.20, 0.25, 1),
            (0.25, 0.30, 2),
            (0.30, 0.35, 3),
            (0.35, 0.40, 4),
            (0.40, 0.45, 5),
            (0.45, 0.50, 6),
        )
    )


def constant_schedule(duration: float, n_sw_max: int) -> NswSchedule:
    return NswSchedule(segments=((0.0, duration, n_sw_max),))


def _fit_schedule(schedule: NswSchedule, duration: float) -> NswSchedule:
    """Clip a schedule to a shorter run, or stretch its last segment over a
    longer one.  Only applied to schedules the user did not write out
    explicitly for that duration."""
    segments = []
    for start, end, n_max in schedule.segments:
        if start >= duration:
            break
        segments.append((start, min(end, duration), n_max))
    if not segments:
        start0, _, n0 = schedule.segments[0]
        segments.append((start0, duration, n0))
    last = segments[-1]
    if last[1] < duration:
        segments[-1] = (last[0], duration, last[2])
    return NswSchedule(segments=tuple(segments))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one scenario end to end."""

    params: SystemParams = field(default_factory=SystemParams)
    duration: float = 2.6          # simulated span [s]
    warmup: float = 1.0            # excluded from all metrics [s]
    p_ref: float = 13.18e6         # active power setpoint [W]
    v_s_peak: float = 25.5e3       # grid phase voltage amplitude [V]
    algorithm: str = "v1fc"
    nsw_schedule: NswSchedule = field(default_factory=paper_schedule)
    dc_model: str = "stiff"
    line_length_km: float = 5.0
    line_c_per_km: float = 16e-6   # [F/km]
    line_l_per_km: float = 50e-6   # [H/km]

    def __post_init__(self) -> None:
        _check_field_types(ScenarioConfig, vars(self))
        _check_type("params", self.params, SystemParams)
        _check_type("nsw_schedule", self.nsw_schedule, NswSchedule)
        # written as `not x > 0` so that NaN fails too; the line totals are
        # derived, and can underflow to 0 or overflow
        for name in ("duration", "v_s_peak", "line_length_km", "line_c_per_km",
                     "line_l_per_km", "line_inductance", "line_end_capacitance"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.warmup <= self.duration:
            raise ValueError(
                f"warmup must lie in [0, duration], got {self.warmup}"
            )
        for name in ("p_ref", "i_ref_peak", "i_circ_nominal"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.dc_model not in DC_MODELS:
            raise ValueError(
                f"dc_model must be one of {DC_MODELS}, got {self.dc_model!r}"
            )
        # past 2**53 the step count is not exact in floats
        if not self.duration / self.params.t_s < 2.0**53:
            raise ValueError(
                f"duration {self.duration} is more than 2**53 steps of t_s {self.params.t_s}"
            )
        steps = self.steps
        if steps < 1 or abs(steps * self.params.t_s - self.duration) > 1e-6 * self.params.t_s:
            raise ValueError(
                f"duration {self.duration} is not a multiple of t_s {self.params.t_s}"
            )
        # the engine's sine argument at the last sample; math.sin fails on inf
        t_last = steps * self.params.t_s
        if not math.isfinite(2.0 * math.pi * self.params.f_grid * t_last):
            raise ValueError(
                f"f_grid {self.params.f_grid} overflows 2*pi*f_grid*t at the last "
                f"sample time t = {t_last}"
            )
        self.nsw_schedule.validate(self.params.n, self.duration)

    @property
    def steps(self) -> int:
        return steps_until(self.duration, self.params.t_s)

    @property
    def i_ref_peak(self) -> float:
        """Reference current amplitude from the power setpoint at unity pf."""
        return 2.0 * self.p_ref / (3.0 * self.v_s_peak)

    @property
    def i_circ_nominal(self) -> float:
        """Average per-leg common-mode current carrying the DC-side power."""
        return self.p_ref / (3.0 * self.params.v_dc)

    @property
    def line_inductance(self) -> float:
        """Series inductance of the pi-line DC model [H]."""
        return self.line_l_per_km * self.line_length_km

    @property
    def line_end_capacitance(self) -> float:
        """Capacitance at each end of the pi-line DC model [F]."""
        return self.line_c_per_km * self.line_length_km / 2.0


def paper_config(algorithm: str = "v1fc", **overrides: Any) -> ScenarioConfig:
    """Full-length case-study scenario."""
    return ScenarioConfig(algorithm=algorithm, **overrides)


def fast_config(algorithm: str = "v1fc", **overrides: Any) -> ScenarioConfig:
    """Sub-minute profile with the compressed staircase."""
    defaults: dict[str, Any] = dict(
        duration=0.5,
        warmup=0.1,
        nsw_schedule=fast_schedule(),
    )
    defaults.update(overrides)
    return ScenarioConfig(algorithm=algorithm, **defaults)


def reference_current(config: ScenarioConfig, t: float, phase: str) -> float:
    """Open-loop sinusoidal current reference, unity power factor."""
    return config.i_ref_peak * math.sin(
        2.0 * math.pi * config.params.f_grid * t - _PHASE_OFFSET[phase]
    )


def grid_voltage(config: ScenarioConfig, t: float, phase: str) -> float:
    """Balanced three-phase grid source, synchronous with the reference."""
    return config.v_s_peak * math.sin(
        2.0 * math.pi * config.params.f_grid * t - _PHASE_OFFSET[phase]
    )


def _phase_index(label: str) -> int:
    """The index of phase ``label`` in ``PHASES``; an unknown one raises ``ValueError``."""
    if label not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {label!r}")
    return PHASES.index(label)


def _edges(u: np.ndarray, start: int, stop: int | None) -> np.ndarray:
    """Status changes on steps ``start..stop-1`` (None: to the last) of a
    (steps + 1, 2n) or (steps + 1, 3, 2n) int8 status block whose row 0 is
    the start row, against the row before: +1 a turn-on, -1 a turn-off."""
    return np.diff(u[start : None if stop is None else stop + 1], axis=0)


@dataclass(frozen=True, eq=False)
class PhaseTrace:
    """Per-step records of one phase leg, views of its trace's blocks;
    ``==`` is identity, as an array has no truth value."""

    i_ac: np.ndarray
    i_ref: np.ndarray
    i_circ: np.ndarray
    v_grid: np.ndarray
    v_c: np.ndarray            # (steps, 2n): upper arm columns first
    _u: np.ndarray = field(repr=False)  # (steps + 1, 2n) int8, the start row first

    @property
    def u(self) -> np.ndarray:
        """The statuses, (steps, 2n) int8: ``_u`` after the start row."""
        return self._u[1:]

    def edges(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """``_edges`` of the leg's statuses, (rows, 2n) int8."""
        return _edges(self._u, start, stop)


@dataclass(eq=False)
class SimTrace:
    """Complete record of a scenario run, built from its ``blocks``, laid
    out by ``_block_layout``, each with the start row, the state before step
    0, in front of row 0.  ``record`` and ``refs`` are the blocks' views
    after the start row: row k holds the state reached at t[k] = (k+1) * t_s
    with the decision that produced it.  A block whose name, shape or dtype
    is not the config's raises ``ValueError``; ``v_dc`` and each
    ``PhaseTrace`` are views of the blocks.  ``t``, the end time of each
    step, and ``n_sw_max`` come from the config, computed once and
    read-only.  ``==`` is identity, as an array has no truth value.
    """

    config: ScenarioConfig
    blocks: dict[str, np.ndarray] = field(repr=False)
    record: dict[str, np.ndarray] = field(init=False, repr=False)
    refs: np.ndarray = field(init=False, repr=False)
    v_dc: np.ndarray = field(init=False, repr=False)
    _phases: tuple[PhaseTrace, ...] = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False)
    _budgets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        layout = _block_layout(self.config)
        if list(self.blocks) != list(layout):
            raise ValueError(f"trace blocks {list(self.blocks)}, expected {list(layout)}")
        for name, block in self.blocks.items():
            shape, dtype = layout[name]
            if block.shape != shape or block.dtype != dtype:
                raise ValueError(f"trace block {name}: expected {dtype} {shape}, got {block.dtype} {block.shape}")
        self.record = {name: block[1:] for name, block in self.blocks.items()}
        self.refs = self.record.pop("refs")
        currents, v_c, _, self.v_dc = self.record.values()
        self._phases = tuple(PhaseTrace(
            i_ac=currents[:, 0, p], i_ref=self.refs[:, 0, p], i_circ=currents[:, 1, p],
            v_grid=self.refs[:, 1, p], v_c=v_c[:, p], _u=self.blocks["u"][:, p],
        ) for p in range(len(PHASES)))
        self.t = np.arange(1, self.steps + 1) * self.config.params.t_s
        self._budgets = self.config.nsw_schedule.per_step(self.config.params.t_s, self.steps)
        self.t.flags.writeable = self._budgets.flags.writeable = False

    def phase(self, label: str) -> PhaseTrace:
        return self._phases[_phase_index(label)]

    def leg_state(self, phase: str, k: int) -> PhaseLegState:
        """The state of leg ``phase`` that record row ``k`` holds, as
        ``step_phase`` builds it; row -1 is the start row, and a row outside
        -1..steps-1 raises ``IndexError``."""
        p, n = _phase_index(phase), self.config.params.n
        if not -1 <= k < self.steps:
            raise IndexError(f"trace row {k} outside -1..{self.steps - 1}")
        row = {name: block[k + 1] for name, block in self.blocks.items()}
        v_c, u = row["v_c"][p].tolist(), row["u"][p].tolist()
        return PhaseLegState(ArmState(v_c[:n], u[:n]), ArmState(v_c[n:], u[n:]),
                             *row["currents"][:, p].tolist(), row["refs"][1, p].item())

    @property
    def steps(self) -> int:
        return self.config.steps

    @property
    def n_sw_max(self) -> np.ndarray:
        """Budget of each step, int16, from the config's schedule."""
        return self._budgets


def _record_layout(config: ScenarioConfig) -> dict[str, tuple[tuple[int, ...], np.dtype]]:
    """The shape and dtype of each block a trace records, by name, in the
    order they are stored: the currents, i_ac then i_circ, (steps, 2, 3); the
    capacitor voltages and the int8 statuses, each (steps, 3, 2n); the bus
    voltage, (steps,).  The blocks are step-major, so that a step's records
    are one contiguous row."""
    steps, n2 = config.steps, 2 * config.params.n
    f8 = np.dtype(np.float64)
    return {
        "currents": ((steps, 2, len(PHASES)), f8),
        "v_c": ((steps, len(PHASES), n2), f8),
        "u": ((steps, len(PHASES), n2), np.dtype(np.int8)),
        "v_dc": ((steps,), f8),
    }


def _block_layout(config: ScenarioConfig) -> dict[str, tuple[tuple[int, ...], np.dtype]]:
    """``_record_layout``'s blocks, then ``refs``, i_ref then v_grid, (steps,
    2, 3) float64, each with one row more, the start row, in front."""
    layout = {**_record_layout(config), "refs": ((config.steps, 2, len(PHASES)), np.dtype(np.float64))}
    return {name: ((config.steps + 1, *shape[1:]), dtype) for name, (shape, dtype) in layout.items()}


def _record_nbytes(config: ScenarioConfig) -> int:
    """The data bytes of the blocks ``_record_layout`` lays out, without
    making them."""
    return sum(math.prod(shape) * dtype.itemsize for shape, dtype in _record_layout(config).values())


def _start_states(config: ScenarioConfig) -> list[PhaseLegState]:
    """The three legs' state before step 0, which ``_blank_trace`` writes
    into the start row: ``nominal_phase_state`` at the grid voltage of t = 0."""
    return [nominal_phase_state(config.params, grid_voltage(config, 0.0, ph)) for ph in PHASES]


def _blank_trace(config: ScenarioConfig, lib: Any = None) -> SimTrace:
    """A trace of the config's steps, its references computed, ``v_dc``
    nominal and its other blocks not yet set but for the start row, which
    holds ``_start_states`` and the references at t = 0.  The sines are
    ``math.sin``'s, or, given the library of ``mmcsim.kernel``, those of its
    ``mmcsim_sin``: libm's ``sin``, which ``math.sin`` calls."""
    params, steps = config.params, config.steps
    blocks = {name: np.empty(shape, dtype) for name, (shape, dtype) in _block_layout(config).items()}
    currents, v_c, u, v_dc, refs = blocks.values()
    v_dc.fill(params.v_dc)
    states = _start_states(config)
    currents[0] = [[st.i_ac for st in states], [st.i_circ for st in states]]
    v_c[0] = [st.upper.v_c + st.lower.v_c for st in states]
    u[0] = [st.upper.u + st.lower.u for st in states]
    refs[0] = [[reference_current(config, 0.0, ph) for ph in PHASES], [st.v_grid for st in states]]
    trace = SimTrace(config, blocks)
    # the expressions of reference_current and grid_voltage; math.sin's
    # function, not np.sin, so every sample has the scalar functions' bits
    omega_t = 2.0 * math.pi * params.f_grid * trace.t
    for p, ph in enumerate(PHASES):
        arg = omega_t - _PHASE_OFFSET[ph]
        if lib is None:
            sines = np.fromiter(map(math.sin, arg.tolist()), float, steps)
        else:
            sines = arg  # in place
            lib.mmcsim_sin(arg.ctypes.data, sines.ctypes.data, steps)
        np.multiply(config.i_ref_peak, sines, out=trace.refs[:, 0, p])
        np.multiply(config.v_s_peak, sines, out=trace.refs[:, 1, p])
    return trace


def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Advance the three-phase system over the configured span.

    Each step does the work of ``modulate_phase`` and then ``step_phase``
    for the three legs.  The steps run in the compiled kernel of
    ``mmcsim.kernel``, one call per run, with the scalar functions'
    operations in their order, so its record is the same bits as theirs;
    when the kernel cannot be built, the scalar functions run themselves
    (``_run_scalar``).

    The DC side is either a stiff source (constant V_dc) or a single lumped
    pi section fed from a stiff source, integrated with a semi-implicit
    Euler step, which stays bounded where a plain forward step on the
    undamped LC would grow.
    """
    # imported on the first run, which builds the kernel: importing mmcsim
    # compiles and loads nothing
    from . import kernel

    lib = kernel.library()
    return _run_scalar(config) if lib is None else kernel.run(lib, config)


def _leg_diverged(p: int, k: int, ts: float, why: str) -> SimulationDiverged:
    """The error of phase ``p`` diverging on step ``k``, from both engines;
    ``why`` is ``step_phase``'s text."""
    return SimulationDiverged(f"phase {PHASES[p]} diverged at step {k + 1} (t = {(k + 1) * ts:.6f} s): {why}")


def _bus_diverged(k: int, ts: float, v_dc: float) -> SimulationDiverged:
    """The error of the pi-line bus voltage leaving (0, inf) after step
    ``k``, from both engines."""
    return SimulationDiverged(f"DC bus voltage {v_dc!r} at step {k + 1} (t = {(k + 1) * ts:.6f} s)")


def _run_scalar(config: ScenarioConfig) -> SimTrace:
    """``run_scenario`` as a loop of the scalar functions: per step and
    phase, ``modulate_phase`` then ``step_phase`` on the leg's state, the
    pi-line bus voltage passed in through a copy of ``params``.  It fills
    the blocks of ``_blank_trace`` from their start row as ``kernel.run``
    does; it is the kernel's fallback, and the kernel's reference."""
    params = config.params
    ts = params.t_s
    trace = _blank_trace(config)
    currents, v_c, u, v_dc = trace.record.values()
    states = [trace.leg_state(ph, -1) for ph in PHASES]
    piline = config.dc_model == "piline"
    params_now = params
    i_line = 0.0
    for k, budget in enumerate(trace.n_sw_max.tolist()):
        i_ref, v_grid = trace.refs[k].tolist()
        for p, state in enumerate(states):
            try:
                chosen = modulate_phase(
                    state, i_ref[p], budget, config.algorithm, params_now,
                    i_circ_nominal=config.i_circ_nominal,
                )
                state = step_phase(state, chosen.decision, v_grid[p], params_now)
            except SimulationDiverged as exc:
                raise _leg_diverged(p, k, ts, str(exc)) from None
            states[p] = state
            currents[k, :, p] = state.i_ac, state.i_circ
            v_c[k, p] = state.upper.v_c + state.lower.v_c
            u[k, p] = state.upper.u + state.lower.u
        if piline:
            v_dc_now = v_dc[k] = params_now.v_dc
            # semi-implicit: current from the old bus voltage, voltage from
            # the new current; the converter draws the summed leg currents
            i_line += ts / config.line_inductance * (params.v_dc - v_dc_now)
            i_legs = 0.0 + states[0].i_circ + states[1].i_circ + states[2].i_circ
            v_dc_now += ts / config.line_end_capacitance * (i_line - i_legs)
            if not (math.isfinite(v_dc_now) and v_dc_now > 0.0):
                raise _bus_diverged(k, ts, v_dc_now)
            params_now = _with_bus_voltage(params, v_dc_now)
    return trace


def _with_bus_voltage(params: SystemParams, v_dc: float) -> SystemParams:
    """``params`` with the bus voltage ``v_dc`` of a pi-line step, which the
    caller has checked finite and > 0.  ``dataclasses.replace`` would run
    every field's check again, where only ``v_dc`` changed: 9-14 us a
    step, against about 1.3 us for this copy (2-core x86-64)."""
    new = object.__new__(SystemParams)
    new.__dict__.update(vars(params), v_dc=v_dc)
    return new


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Plain-data snapshot of a config, as stored in run manifests."""
    data = asdict(config)
    data["nsw_schedule"] = [list(seg) for seg in config.nsw_schedule.segments]
    return data


def _check_fields(where: str, data: Any, cls: type) -> None:
    """Unknown or missing keys, and values of the wrong type, raise
    ``ValueError`` naming them; a field built by a factory is left to the
    code that builds it."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a mapping, got {data!r}")
    expected = {f.name for f in fields(cls)}
    problems = [
        f"{kind} keys {sorted(keys)}"
        for kind, keys in (("unknown", data.keys() - expected), ("missing", expected - data.keys()))
        if keys
    ]
    if problems:
        raise ValueError(f"{where}: " + ", ".join(problems))
    _check_field_types(cls, data, f"{where}.")


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Inverse of ``config_to_dict``; a key that is unknown, missing or of
    the wrong type raises ``ValueError`` naming it."""
    _check_fields("config", data, ScenarioConfig)
    _check_fields("config.params", data["params"], SystemParams)
    _check_type("config.nsw_schedule", data["nsw_schedule"], list)
    segments = []
    for k, seg in enumerate(data["nsw_schedule"]):
        where = f"config.nsw_schedule[{k}]"
        if not isinstance(seg, list) or len(seg) != 3:
            raise ValueError(f"{where}: expected [t_start, t_end, n_sw_max], got {seg!r}")
        for value, kind in zip(seg, (float, float, int)):
            _check_type(where, value, kind)
        segments.append((float(seg[0]), float(seg[1]), seg[2]))
    return ScenarioConfig(**{
        **data,
        "params": SystemParams(**data["params"]),
        "nsw_schedule": NswSchedule(segments=tuple(segments)),
    })
