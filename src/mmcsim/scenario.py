"""Back-to-back HVDC scenario: three phase legs against a stiff (or
pi-line) DC side, advanced at a fixed sampling period."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import numpy as np

from .core import SimulationDiverged, SystemParams
from .modulation import ALGORITHMS, select_grid

# not called here; perfbench/tracer.py wraps these two names on this module,
# so they must stay importable from it (their spans read 0)
from .core import step_phase  # noqa: F401
from .modulation import modulate_phase  # noqa: F401

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
    holds the steps that end inside it.
    """

    segments: tuple[tuple[float, float, int], ...]

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

    def at(self, t: float) -> int:
        for start, end, n_max in self.segments:
            if start < t <= end:
                return n_max
        raise ValueError(f"t={t} is outside the schedule span")

    def per_step(self, t_s: float, steps: int) -> np.ndarray:
        """Budget of each step, int16; the last segment runs to the last step."""
        budgets = [n_max for _, _, n_max in self.segments]
        ends = [steps_until(end, t_s) for _, end, _ in self.segments[:-1]] + [steps]
        return np.repeat(budgets, np.diff([0, *ends])).astype(np.int16)


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
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not 0 <= self.warmup <= self.duration:
            raise ValueError(
                f"warmup must lie in [0, duration], got {self.warmup}"
            )
        if self.v_s_peak <= 0:
            raise ValueError(f"v_s_peak must be > 0, got {self.v_s_peak}")
        if not math.isfinite(self.p_ref):
            raise ValueError("p_ref must be finite")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.dc_model not in DC_MODELS:
            raise ValueError(
                f"dc_model must be one of {DC_MODELS}, got {self.dc_model!r}"
            )
        steps = self.steps
        if steps < 1 or abs(steps * self.params.t_s - self.duration) > 1e-6 * self.params.t_s:
            raise ValueError(
                f"duration {self.duration} is not a multiple of t_s {self.params.t_s}"
            )
        if self.line_length_km <= 0 or self.line_c_per_km <= 0 or self.line_l_per_km <= 0:
            raise ValueError("line parameters must be > 0")
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


@dataclass
class PhaseTrace:
    """Per-step records of one phase leg."""

    i_ac: np.ndarray
    i_ref: np.ndarray
    i_circ: np.ndarray
    v_grid: np.ndarray
    v_c: np.ndarray            # (steps, 2n): upper arm columns first
    u: np.ndarray              # (steps, 2n) int8

    def _switches(self, arm: slice) -> np.ndarray:
        # the initial state has every submodule off
        flips = np.diff(self.u[:, arm], axis=0, prepend=0) != 0
        return flips.sum(axis=1, dtype=np.int16)

    @property
    def switches_upper(self) -> np.ndarray:
        """Realized transitions of the upper arm on each step, int16."""
        return self._switches(slice(None, self.u.shape[1] // 2))

    @property
    def switches_lower(self) -> np.ndarray:
        """Realized transitions of the lower arm on each step, int16."""
        return self._switches(slice(self.u.shape[1] // 2, None))


@dataclass
class SimTrace:
    """Complete record of a scenario run.

    Row k holds the state reached at t[k] = (k+1) * t_s together with the
    decision and budget that produced it.  The initial state (balanced
    capacitors, everything off) is implicit.
    """

    config: ScenarioConfig
    n_sw_max: np.ndarray
    v_dc: np.ndarray
    phases: dict[str, PhaseTrace]

    def phase(self, label: str) -> PhaseTrace:
        return self.phases[label]

    @property
    def steps(self) -> int:
        return len(self.n_sw_max)

    @property
    def t(self) -> np.ndarray:
        """End time of each step, (k+1) * t_s."""
        return np.arange(1, self.steps + 1) * self.config.params.t_s


def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Advance the three-phase system over the configured span.

    Each step does the work of ``modulate_phase`` and then ``step_phase``
    for the three legs at once: the per-leg quantities (targets, arm currents,
    the new AC and circulating currents) as floats, the six arms as numpy
    arrays of shape (phase, arm, submodule) through anticipation, the
    sort, the cumulative sums, the full-grid selection (``select_grid``)
    and the capacitor update.  Every expression keeps the scalar
    functions' operations and their order, so the trace is bit-identical
    to stepping them leg by leg.  The DC side is either a stiff source
    (constant V_dc) or a single lumped pi section fed from a stiff source,
    integrated with a semi-implicit Euler step, which stays bounded where
    a plain forward step on the undamped LC would grow.
    """
    params = config.params
    n = params.n
    ts = params.t_s
    steps = config.steps
    v1fc = config.algorithm == "v1fc"
    piline = config.dc_model == "piline"

    # trace storage, written step by step; phase p's fields are the
    # contiguous slices [p] of these blocks
    nsw_arr = config.nsw_schedule.per_step(ts, steps)
    v_dc_arr = np.full(steps, params.v_dc)
    i_ac_tr, i_ref_tr, i_circ_tr, v_grid_tr = np.empty((4, len(PHASES), steps))
    v_c_tr = np.empty((len(PHASES), steps, 2 * n))
    u_tr = np.empty((len(PHASES), steps, 2 * n), dtype=np.int8)

    # the expressions of reference_current and grid_voltage, once per run;
    # math.sin, not np.sin, so every sample has the scalar functions' bits
    t = np.arange(1, steps + 1) * ts
    for p, ph in enumerate(PHASES):
        arg = 2.0 * math.pi * params.f_grid * t - _PHASE_OFFSET[ph]
        sines = np.fromiter(map(math.sin, arg.tolist()), float, steps)
        np.multiply(config.i_ref_peak, sines, out=i_ref_tr[p])
        np.multiply(config.v_s_peak, sines, out=v_grid_tr[p])

    # the state, nominal_phase_state of each leg: per-leg floats, and the
    # arms' capacitor voltages and statuses (bool, viewed as int8 to record)
    i_ac = [0.0] * len(PHASES)
    i_circ = [0.0] * len(PHASES)
    v_grid = [grid_voltage(config, 0.0, ph) for ph in PHASES]
    v = np.full((len(PHASES), 2, n), params.v_sm_nominal)
    u = np.zeros((len(PHASES), 2, n), dtype=bool)
    u_flat = u.reshape(-1)
    v_row = v.reshape(len(PHASES), 2 * n)
    u_row = u.view(np.int8).reshape(len(PHASES), 2 * n)

    # step buffers; column 0 of the running sums stays 0.0, their start
    v_next = np.empty_like(v)
    off = np.empty(v.shape, dtype=np.intp)
    sums = np.zeros((len(PHASES), 2, n + 1))
    volts = np.zeros((len(PHASES), 2, n + 1))
    # flat index of each arm's first submodule, to index v, u and off flat
    base = np.arange(0, v.size, n).reshape(len(PHASES), 2, 1)
    positions = np.arange(n)

    l_arm_ts = params.l_arm / params.t_s
    l_ac_ts = params.l_ac / params.t_s
    z_step = params.z_step
    c_sm = params.c_sm
    circ_gain = params.t_s / (2.0 * params.l_arm)
    i_circ_nom = config.i_circ_nominal
    v_dc_now = params.v_dc
    i_line = 0.0
    if piline:
        l_total = config.line_l_per_km * config.line_length_km
        c_end = config.line_c_per_km * config.line_length_km / 2.0

    # overflow in a deeply unbalanced state ends in the divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        for k, budget in enumerate(nsw_arr.tolist()):
            i_ref = i_ref_tr[:, k].tolist()
            v_grid_next = v_grid_tr[:, k].tolist()

            # 1. per leg: targets (compute_targets), the arm currents
            # (arm_currents), their one-step capacitor increments and the sort
            # direction, descending while an arm discharges
            per_leg = []
            for p in range(len(PHASES)):
                common = v_dc_now / 2.0 + l_arm_ts * (i_circ[p] - i_circ_nom)
                drive = z_step * i_ref[p] + v_grid[p] - l_ac_ts * i_ac[p]
                half = 0.5 * i_ac[p]
                i_up = i_circ[p] + half
                i_low = i_circ[p] - half
                per_leg += (
                    common - drive, common + drive,
                    ts * i_up / c_sm, ts * i_low / c_sm,
                    -1.0 if i_up < 0 else 1.0, -1.0 if i_low < 0 else 1.0,
                )
            per_leg = np.array(per_leg).reshape(len(PHASES), 6)
            targets = per_leg[:, 0:2]

            # 2. anticipation: every submodule inserted
            np.add(v, per_leg[:, 2:4, None], out=v_next)

            # 3. the sorts; a stable ascending sort of the negated key is the
            # stable reverse sort of sort_v1f2 and sort_v1fc
            key = v_next * per_leg[:, 4:6, None]
            if v1fc:
                np.subtract(1, u, out=off)
                order = np.lexsort((off, key))  # voltage key, then ON first
                order += base
                if budget < n:  # a budget of n defers nothing
                    off_sorted = off.take(order)
                    penalty = np.add.accumulate(off_sorted, axis=-1)
                    penalty -= budget
                    np.maximum(penalty, 0, out=penalty)
                    penalty *= off_sorted
                    by_penalty = penalty.argsort(axis=-1, kind="stable")
                    by_penalty += base
                    order = order.take(by_penalty)
            else:
                order = key.argsort(axis=-1, kind="stable")
                order += base

            # 4. running sums of the anticipated voltages in sorted order
            sums[..., 1:] = v_next.take(order)
            np.add.accumulate(sums, axis=-1, out=sums)

            # 5. selection over the full (n+1) x (n+1) grid of each leg
            counts = select_grid(sums, targets, params)

            # 6. insert the chosen prefixes, then step_phase: inserted
            # capacitors integrate, bypassed ones keep their bits, arm voltages
            # sum in submodule order (v is finite: a bypassed SM adds +-0.0)
            u_flat[order] = positions < counts[..., None]
            np.copyto(v, v_next, where=u)
            np.multiply(v, u, out=volts[..., 1:])
            np.add.accumulate(volts, axis=-1, out=volts)
            for p, (v_up, v_low) in enumerate(volts[..., -1].tolist()):
                i_ac_p = ((v_low - v_up) / 2.0 - v_grid_next[p] + l_ac_ts * i_ac[p]) / z_step
                i_circ_p = circ_gain * (v_dc_now - v_low - v_up) + i_circ[p]
                # only an inserted capacitor can turn non-finite, and it
                # spoils the currents: checking them is step_phase's check
                if not (math.isfinite(i_ac_p) and math.isfinite(i_circ_p)):
                    raise SimulationDiverged(
                        f"phase {PHASES[p]} diverged at step {k + 1} (t = {(k + 1) * ts:.6f} s): "
                        f"non-finite state after the step: i_ac={i_ac_p!r}, "
                        f"i_circ={i_circ_p!r}, v_c={v_row[p].tolist()!r}"
                    )
                i_ac[p] = i_ac_tr[p, k] = i_ac_p
                i_circ[p] = i_circ_tr[p, k] = i_circ_p
            v_grid = v_grid_next
            v_c_tr[:, k] = v_row
            u_tr[:, k] = u_row

            if piline:
                v_dc_arr[k] = v_dc_now
                # semi-implicit: current from the old bus voltage, voltage from
                # the new current; the converter draws the summed leg currents
                i_line += ts / l_total * (params.v_dc - v_dc_now)
                v_dc_now += ts / c_end * (i_line - (0.0 + i_circ[0] + i_circ[1] + i_circ[2]))
                if not (math.isfinite(v_dc_now) and v_dc_now > 0.0):
                    raise SimulationDiverged(
                        f"DC bus voltage {v_dc_now!r} at step {k + 1} (t = {(k + 1) * ts:.6f} s)"
                    )

    return SimTrace(
        config=config,
        n_sw_max=nsw_arr,
        v_dc=v_dc_arr,
        phases={
            ph: PhaseTrace(
                i_ac=i_ac_tr[p], i_ref=i_ref_tr[p], i_circ=i_circ_tr[p],
                v_grid=v_grid_tr[p], v_c=v_c_tr[p], u=u_tr[p],
            )
            for p, ph in enumerate(PHASES)
        },
    )


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Plain-data snapshot of a config, as stored in run manifests."""
    data = asdict(config)
    data["nsw_schedule"] = [list(seg) for seg in config.nsw_schedule.segments]
    return data


def _check_keys(where: str, data: dict[str, Any], cls: type) -> None:
    expected = {f.name for f in fields(cls)}
    problems = [
        f"{kind} keys {sorted(keys)}"
        for kind, keys in (("unknown", data.keys() - expected), ("missing", expected - data.keys()))
        if keys
    ]
    if problems:
        raise ValueError(f"{where}: " + ", ".join(problems))


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Inverse of ``config_to_dict``."""
    _check_keys("config", data, ScenarioConfig)
    _check_keys("config.params", data["params"], SystemParams)
    segments = tuple(
        (float(s), float(e), int(nm)) for s, e, nm in data["nsw_schedule"]
    )
    return ScenarioConfig(**{
        **data,
        "params": SystemParams(**data["params"]),
        "nsw_schedule": NswSchedule(segments=segments),
    })
