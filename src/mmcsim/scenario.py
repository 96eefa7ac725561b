"""Back-to-back HVDC scenario: three phase legs against a stiff (or
pi-line) DC side, advanced at a fixed sampling period."""
from __future__ import annotations

import functools
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any

import numpy as np

from .core import SimulationDiverged, SystemParams
from .modulation import ALGORITHMS

# not called here; perfbench/tracer.py wraps these two names on this module,
# so they must stay importable from it (their spans read 0)
from .core import step_phase  # noqa: F401
from .modulation import modulate_phase  # noqa: F401

PHASES = ("a", "b", "c")
_PHASE_OFFSET = {"a": 0.0, "b": 2.0 * math.pi / 3.0, "c": 4.0 * math.pi / 3.0}

DC_MODELS = ("stiff", "piline")

# steps whose budgets, references and new currents run_scenario holds as
# Python numbers at once: a block costs a few numpy calls, a step's rows a few
# hundred bytes
_ROW_BLOCK = 64


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
            _check_type(f"nsw_schedule: segment {k} n_sw_max", n_max, int)
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError(f"nsw_schedule: segment {k} has a non-finite bound ({start}, {end}]")
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


@dataclass
class PhaseTrace:
    """Per-step records of one phase leg."""

    i_ac: np.ndarray
    i_ref: np.ndarray
    i_circ: np.ndarray
    v_grid: np.ndarray
    v_c: np.ndarray            # (steps, 2n): upper arm columns first
    u: np.ndarray              # (steps, 2n) int8

    def edges(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Status changes on steps ``start..stop-1``, (rows, 2n) int8: +1 for
        a turn-on, -1 for a turn-off.  Every submodule is off before step 0."""
        # int8 whatever u's dtype: a diff of bools reads "changed", not the sign
        rows = self.u[max(start - 1, 0) : stop].astype(np.int8, copy=False)
        if start > 0:
            return np.diff(rows, axis=0)
        return np.diff(rows, axis=0, prepend=np.zeros((1, rows.shape[1]), np.int8))

    @property
    def switches_upper(self) -> np.ndarray:
        """Realized transitions of the upper arm on each step, int16."""
        return np.count_nonzero(self.edges()[:, : self.u.shape[1] // 2], axis=1).astype(np.int16)

    @property
    def switches_lower(self) -> np.ndarray:
        """Realized transitions of the lower arm on each step, int16."""
        return np.count_nonzero(self.edges()[:, self.u.shape[1] // 2 :], axis=1).astype(np.int16)


@dataclass
class SimTrace:
    """Complete record of a scenario run.

    Row k holds the state reached at t[k] = (k+1) * t_s together with the
    decision that produced it.  The trace stores the statuses, capacitor
    voltages and currents; the step count, the times and the budgets come
    from the config.  The initial state (balanced capacitors, everything
    off) is implicit.  ``record`` holds the blocks behind a trace built by
    ``run_scenario`` or ``load_run``, by name in ``_record_layout``'s order;
    a trace built by hand has none.
    """

    config: ScenarioConfig
    v_dc: np.ndarray
    phases: dict[str, PhaseTrace]
    record: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def phase(self, label: str) -> PhaseTrace:
        try:
            return self.phases[label]
        except KeyError:
            raise ValueError(f"phase must be one of {tuple(self.phases)}, got {label!r}") from None

    @property
    def steps(self) -> int:
        return self.config.steps

    @property
    def n_sw_max(self) -> np.ndarray:
        """Budget of each step, int16, from the config's schedule."""
        return self.config.nsw_schedule.per_step(self.config.params.t_s, self.steps)

    @property
    def t(self) -> np.ndarray:
        """End time of each step, (k+1) * t_s."""
        return np.arange(1, self.steps + 1) * self.config.params.t_s


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


def _record_nbytes(config: ScenarioConfig) -> int:
    """The data bytes of the blocks ``_record_layout`` lays out, without
    making them."""
    return sum(math.prod(shape) * dtype.itemsize for shape, dtype in _record_layout(config).values())


def _blank_trace(config: ScenarioConfig, lib: Any = None) -> tuple[SimTrace, np.ndarray]:
    """A trace of the config's steps, its references computed and its other
    records not yet set, with the references block behind it: i_ref then
    v_grid, (steps, 2, 3).  The recorded blocks, laid out by
    ``_record_layout``, are the trace's ``record``.  Phase p's fields are
    views [:, ..., p] of the blocks; ``v_dc`` is nominal.  The sines are
    ``math.sin``'s, or, given the library of ``mmcsim.kernel``, those of its
    ``mmcsim_sin``: libm's ``sin``, which ``math.sin`` calls."""
    params = config.params
    steps = config.steps
    refs = np.empty((steps, 2, len(PHASES)))
    record = {name: np.empty(shape, dtype) for name, (shape, dtype) in _record_layout(config).items()}
    currents, v_c, u, v_dc = record.values()
    v_dc.fill(params.v_dc)
    trace = SimTrace(config, v_dc, {
        ph: PhaseTrace(
            i_ac=currents[:, 0, p], i_ref=refs[:, 0, p], i_circ=currents[:, 1, p],
            v_grid=refs[:, 1, p], v_c=v_c[:, p], u=u[:, p],
        )
        for p, ph in enumerate(PHASES)
    }, record)
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
        np.multiply(config.i_ref_peak, sines, out=refs[:, 0, p])
        np.multiply(config.v_s_peak, sines, out=refs[:, 1, p])
    return trace, refs


class GridSelector:
    """The engine's full-grid selection for a fixed batch of legs, with its
    buffers.

    Built once for legs of leading shape ``lead`` with ``n`` submodules per
    arm.  A call takes ``sums`` of shape lead + (2, n+1), the upper then the
    lower cumulative sums, and ``targets``, the upper then the lower target,
    and returns, as a new array of shape ``lead``, the flat index
    ``m_up * (n+1) + m_low`` of the cell that minimizes the objective.
    ``targets`` may have the shape of ``sums``, each target repeated along
    the last axis, as the engine passes them, or lead + (2, 1); the first is
    faster, as a ufunc on operands of one shape skips broadcasting.  Each
    cell is computed with the operations of ``objective_f``, but for
    ``d_low + d_up`` taken as ``d_low - (sums - targets)``, which differs
    only in the sign of a zero before the abs; so it is the same float, and
    ``argmin`` over the row-major grid takes the first
    minimum: the tie-break of ``brute_force_select``, smaller objective,
    then smaller m_up, then smaller m_low.  A NaN cell counts as +inf, as a
    NaN never wins a comparison in the scan; the two differ only when cell
    (0, 0) is NaN, which the scan then keeps.
    """

    def __init__(self, lead: tuple[int, ...], n: int, params: SystemParams) -> None:
        size = n + 1
        self.n = n
        # d = targets - sums, then -d = sums - targets; one gather lays out
        # (d_low, d_low) and (d_up, -d_up) by cell, contiguously (a ufunc on
        # contiguous operands of one shape costs less than one that
        # broadcasts), and one subtract gives both d_low - d_up and
        # d_low + d_up: a - (-b) is a + b in IEEE arithmetic, and s - t is
        # -(t - s) but for the sign of a zero, which the abs removes
        d = np.empty((2,) + lead + (2, size))
        m_up, m_low = np.divmod(np.arange(size * size), size)
        first = np.arange(0, d.size // 2, 2 * size).reshape(lead + (1,))
        low, up = first + size + m_low, first + m_up
        gather = np.array(((low, low), (up, up + d.size // 2)))
        grids = np.empty((2, 2) + lead + (size * size,))
        terms = np.empty((2,) + lead + (size * size,))
        # the objective's two weights in full shape, so the multiply does not
        # broadcast: w_track / (2 z_step) over the tracking term, then
        # w_circ t_s / (2 l_arm) over the circulating one
        weights = np.empty_like(terms)
        weights[0] = params.w_track / (2.0 * params.z_step)
        weights[1] = params.w_circ * params.t_s / (2.0 * params.l_arm)
        f = terms[0]
        # what a call uses, unpacked in one step: the buffers, the constants
        # (+inf in full shape, as fmin against a 0-d array costs more) and
        # the ufuncs, looked up once here rather than on np per call
        self._bound = (
            d, *d, gather, grids, *grids, terms, *terms, weights,
            np.full_like(f, np.inf), np.subtract, np.add, np.multiply, np.abs, np.fmin,
        )

    def __call__(self, sums: np.ndarray, targets: np.ndarray) -> np.ndarray:
        (d, d_pos, d_neg, gather, grids, lows, ups, terms, f, g, weights, inf,
         subtract, add, multiply, absolute, fmin) = self._bound
        subtract(targets, sums, d_pos)
        subtract(sums, targets, d_neg)
        # mode="clip" only spares numpy a buffered copy of `out`
        d.take(gather, None, grids, "clip")
        subtract(lows, ups, terms)
        absolute(terms, terms)
        multiply(weights, terms, terms)
        add(f, g, f)
        fmin(f, inf, f)
        return f.argmin(-1)

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Insertion masks by cell, (cell, arm, position) bool: ``masks[c]``
        inserts the first m_up upper and m_low lower submodules in sorted
        order."""
        m_up, m_low = np.divmod(np.arange((self.n + 1) ** 2), self.n + 1)
        return np.arange(self.n) < np.stack((m_up, m_low), axis=-1)[..., None]


class ArmSorter:
    """The engine's sorts for a fixed batch of legs, with their buffers and
    the budget table.

    Built once for legs of leading shape ``lead`` with ``n`` submodules per
    arm.  ``v1f2`` and ``v1fc`` take, each of shape lead + (2, n), the
    anticipated voltages ``v_next``, the sort directions ``signs`` (1.0 while
    an arm charges, -1.0 while it discharges) and the statuses ``u`` as 0/1
    int8, then the budget, and return as a new array the order of every arm
    as flat indices into arrays of that shape.  They give the orders of
    ``sort_v1f2`` and ``sort_v1fc``: a stable ascending sort of the key
    ``v_next * sign`` is the stable reverse sort of the scalar functions.

    ``v1fc`` breaks key ties ON first, then runs the budget stage as a
    stable partition: a submodule is deferred if it is OFF and more than
    ``budget`` OFF submodules lie at or before it in the voltage order, and a
    stable sort on that flag is the stable sort on the penalty, which is 0
    exactly where the flag is clear and rises strictly along the order where
    it is set.  The flags are 0/1 in intp, not bool: numpy sorts 1-byte keys
    by radix, which costs more at this size.
    """

    def __init__(self, lead: tuple[int, ...], n: int) -> None:
        shape = lead + (2, n)
        size = math.prod(shape)
        # flat index of the first submodule of each element's arm;
        # full-shape, as adding a broadcast operand costs more
        base = np.repeat(np.arange(0, size, n), n).reshape(shape)
        # row b maps a running count of OFF submodules to the deferred flag,
        # count > b; the OFF flag of a status u is entry u of (1, 0)
        deferred_if = list((np.arange(n + 1) > np.arange(n + 1)[:, None]).astype(np.intp))
        off, off_sorted, turn_ons, deferred = np.empty((4,) + shape, dtype=np.intp)
        key = np.empty(shape)
        # what each sort uses, unpacked in one step: the buffers, the tables
        # and the numpy functions, looked up once here rather than on np per call
        self._v1f2 = (key, base, np.multiply, np.add)
        self._v1fc = (
            n, key, base, off, off_sorted, turn_ons, deferred, deferred_if,
            np.array((1, 0), dtype=np.intp),
            np.multiply, np.add, np.add.accumulate, np.bitwise_and, np.lexsort,
        )

    def v1f2(self, v_next: np.ndarray, signs: np.ndarray, u: np.ndarray, budget: int) -> np.ndarray:
        key, base, multiply, add = self._v1f2
        multiply(v_next, signs, key)
        order = key.argsort(-1, "stable")
        add(order, base, order)
        return order

    def v1fc(self, v_next: np.ndarray, signs: np.ndarray, u: np.ndarray, budget: int) -> np.ndarray:
        (n, key, base, off, off_sorted, turn_ons, deferred, deferred_if, off_if,
         multiply, add, accumulate, bitwise_and, lexsort) = self._v1fc
        multiply(v_next, signs, key)
        # mode="clip" only spares numpy a buffered copy of `out`
        off_if.take(u, None, off, "clip")
        order = lexsort((off, key))  # voltage key, then ON first
        add(order, base, order)
        if budget < n:  # a budget of n defers nothing
            # order is a permutation, so the clip never acts
            off.take(order, None, off_sorted, "clip")
            accumulate(off_sorted, -1, None, turn_ons)
            deferred_if[budget].take(turn_ons, None, deferred, "clip")
            bitwise_and(deferred, off_sorted, deferred)
            by_penalty = deferred.argsort(-1, "stable")
            add(by_penalty, base, by_penalty)
            order = order.take(by_penalty)
        return order


def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Advance the three-phase system over the configured span.

    Each step does the work of ``modulate_phase`` and then ``step_phase``
    for the three legs, every expression with the scalar functions'
    operations in their order, so the trace is bit-identical to stepping
    them leg by leg.  The steps run in the compiled kernel of
    ``mmcsim.kernel``, one call per run, or, when it cannot be built, in the
    numpy engine (``_run_numpy``); the two records are the same bits.

    The DC side is either a stiff source (constant V_dc) or a single lumped
    pi section fed from a stiff source, integrated with a semi-implicit
    Euler step, which stays bounded where a plain forward step on the
    undamped LC would grow.
    """
    # imported on the first run, which builds the kernel: importing mmcsim
    # compiles and loads nothing
    from . import kernel

    lib = kernel.library()
    if lib is None:
        return _run_numpy(config)
    trace, refs = _blank_trace(config, lib)
    kernel.fill(lib, config, trace, refs)
    return trace


def _leg_diverged(
    p: int, k: int, ts: float, i_ac: float, i_circ: float, v_c: list[float]
) -> SimulationDiverged:
    """The error of phase ``p`` turning non-finite on step ``k``, from both
    engines."""
    return SimulationDiverged(
        f"phase {PHASES[p]} diverged at step {k + 1} (t = {(k + 1) * ts:.6f} s): "
        f"non-finite state after the step: i_ac={i_ac!r}, i_circ={i_circ!r}, v_c={v_c!r}"
    )


def _bus_diverged(k: int, ts: float, v_dc: float) -> SimulationDiverged:
    """The error of the pi-line bus voltage leaving (0, inf) after step
    ``k``, from both engines."""
    return SimulationDiverged(f"DC bus voltage {v_dc!r} at step {k + 1} (t = {(k + 1) * ts:.6f} s)")


def _run_numpy(config: ScenarioConfig) -> SimTrace:
    """``run_scenario`` in the numpy engine: the kernel's fallback, and the
    second oracle it is tested against.

    The per-leg quantities (targets, arm currents, the new AC and
    circulating currents) are floats, and the six arms numpy arrays of
    shape (phase, arm, submodule) through anticipation, the sort, the
    cumulative sums, the full-grid selection and the capacitor update.  One
    ``ArmSorter`` and one ``GridSelector`` are built per run with their
    buffers, and the step's numpy calls write fixed contiguous buffers of
    one shape.  Where the step departs from a scalar operation (a sum
    without its 0.0 start, a +0.0 added for a bypassed submodule), a comment
    at the step shows that the result has the same bits.
    """
    params = config.params
    n = params.n
    ts = params.t_s
    steps = config.steps
    v1fc = config.algorithm == "v1fc"
    piline = config.dc_model == "piline"

    trace, ref_grid = _blank_trace(config)
    currents_tr, v_c_tr, u_tr = (trace.record[name] for name in ("currents", "v_c", "u"))
    budgets, v_dc_arr = trace.n_sw_max, trace.v_dc

    # the state, nominal_phase_state of each leg: per-leg floats, and the
    # arms' capacitor voltages and statuses (bool, viewed as int8 for the
    # sort and the record)
    i_ac = [0.0] * len(PHASES)
    i_circ = [0.0] * len(PHASES)
    v_grid = [grid_voltage(config, 0.0, ph) for ph in PHASES]
    v = np.full((len(PHASES), 2, n), params.v_sm_nominal)
    u = np.zeros((len(PHASES), 2, n), dtype=bool)
    u_flat = u.reshape(-1)
    u_bytes = u.view(np.int8)
    v_row = v.reshape(len(PHASES), 2 * n)
    u_row = u_bytes.reshape(len(PHASES), 2 * n)

    # step buffers and their views, made once; column 0 of the running sums
    # stays 0.0, their start, and volts holds the arms' running voltage sums
    v_next = np.empty_like(v)
    v_sorted = np.empty_like(v)
    sums = np.zeros((len(PHASES), 2, n + 1))
    sums_tail = sums[..., 1:]
    volts = np.empty_like(v)
    arm_volts = volts[..., -1]
    # the 18 per-leg floats land in legs, and one take repeats each over its
    # arm into blocks, which holds the full-shape targets, then increments,
    # then signs: a ufunc on operands of one shape costs less than one that
    # broadcasts
    legs = np.empty(len(PHASES) * 6)  # per leg: 2 targets, 2 increments, 2 signs
    arm_first = np.arange(0, legs.size, 6).reshape(-1, 1, 1) + np.arange(2).reshape(2, 1)
    spread = np.concatenate([
        np.broadcast_to(arm_first + column, v.shape[:-1] + (width,)).ravel()
        for column, width in ((0, n + 1), (2, n), (4, n))
    ])
    blocks = np.empty(spread.size)
    targets = blocks[: sums.size].reshape(sums.shape)
    increments, signs = blocks[sums.size :].reshape((2,) + v.shape)
    sorter = ArmSorter((len(PHASES),), n)
    sort = sorter.v1fc if v1fc else sorter.v1f2
    select = GridSelector((len(PHASES),), n, params)
    masks = select.masks
    # numpy's functions, looked up once per run; every call passes its
    # arguments by position, which numpy parses faster than keywords
    add, putmask, accumulate, clear = np.add, np.putmask, np.add.accumulate, volts.fill

    l_arm_ts = params.l_arm / params.t_s
    l_ac_ts = params.l_ac / params.t_s
    z_step = params.z_step
    c_sm = params.c_sm
    circ_gain = params.t_s / (2.0 * params.l_arm)
    i_circ_nom = config.i_circ_nominal
    v_dc_now = params.v_dc
    i_line = 0.0
    if piline:
        l_total = config.line_inductance
        c_end = config.line_end_capacitance

    # overflow in a deeply unbalanced state ends in the divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, steps)
            # each step's budget and references (i_ref, then v_grid, each per
            # phase) come as Python numbers, and its new currents (i_ac, then
            # i_circ) go to the trace, one block of steps at a time
            rows = zip(
                range(start, stop),
                budgets[start:stop].tolist(),
                ref_grid[start:stop].tolist(),
            )
            currents = []
            for k, budget, (i_ref, v_grid_next) in rows:
                # 1. per leg: targets (compute_targets), the arm currents
                # (arm_currents), their one-step capacitor increments and the
                # sort direction, descending while an arm discharges
                half_dc = v_dc_now / 2.0
                per_leg = []
                for i_ac_p, i_circ_p, v_grid_p, i_ref_p in zip(i_ac, i_circ, v_grid, i_ref):
                    common = half_dc + l_arm_ts * (i_circ_p - i_circ_nom)
                    drive = z_step * i_ref_p + v_grid_p - l_ac_ts * i_ac_p
                    half = 0.5 * i_ac_p
                    i_up = i_circ_p + half
                    i_low = i_circ_p - half
                    per_leg += (
                        common - drive, common + drive,
                        ts * i_up / c_sm, ts * i_low / c_sm,
                        -1.0 if i_up < 0 else 1.0, -1.0 if i_low < 0 else 1.0,
                    )
                legs[:] = per_leg
                # mode="clip" only spares numpy a buffered copy of `out`
                legs.take(spread, None, blocks, "clip")

                # 2. anticipation: every submodule inserted
                add(v, increments, v_next)

                # 3. the sorts: sort_v1f2, or sort_v1fc with its budget stage
                order = sort(v_next, signs, u_bytes, budget)

                # 4. running sums of the anticipated voltages in sorted order,
                # behind the 0.0 of column 0: gathered into a contiguous
                # buffer, as a take into the strided sums[..., 1:] goes
                # through a temporary.  The first sum is x, not 0.0 + x; the
                # two differ only for x = -0.0, and a sum reaches the
                # selection only through t - s and an abs, which give the
                # same result for either zero
                v_next.take(order, None, v_sorted, "clip")
                accumulate(v_sorted, -1, None, sums_tail)

                # 5. selection over the full (n+1) x (n+1) grid of each leg
                cells = select(sums, targets)

                # 6. insert the chosen prefixes, then step_phase: inserted
                # capacitors integrate and bypassed ones keep their bits
                # (putmask is copyto with where=, without copyto's
                # Python-level dispatch).  Each arm voltage sums, in
                # submodule order, a contiguous copy of v with +0.0 at the
                # bypassed SMs, where arm_voltage adds the inserted ones to
                # 0.0.  The sums are equal: neither the missing 0.0 start nor
                # a +0.0 term changes a sum that is not -0.0, and none is, as
                # no capacitor voltage is -0.0 (they start at v_dc / n with
                # v_dc > 0, and v + inc is -0.0 only when v is).  A bypassed
                # capacitor is finite, as a non-finite inserted one ends the
                # run in the step that made it
                u_flat[order] = masks.take(cells, 0)
                putmask(v, u, v_next)
                clear(0.0)
                putmask(volts, u, v)
                accumulate(volts, -1, None, volts)
                i_ac_next, i_circ_next = [], []
                for p, (v_up, v_low), v_grid_p, i_ac_p, i_circ_p in zip(
                    range(len(PHASES)), arm_volts.tolist(), v_grid_next, i_ac, i_circ
                ):
                    i_ac_p = ((v_low - v_up) / 2.0 - v_grid_p + l_ac_ts * i_ac_p) / z_step
                    i_circ_p = circ_gain * (v_dc_now - v_low - v_up) + i_circ_p
                    # only an inserted capacitor can turn non-finite, and it
                    # spoils the currents: checking them is step_phase's check
                    if not (math.isfinite(i_ac_p) and math.isfinite(i_circ_p)):
                        raise _leg_diverged(p, k, ts, i_ac_p, i_circ_p, v_row[p].tolist())
                    i_ac_next.append(i_ac_p)
                    i_circ_next.append(i_circ_p)
                i_ac, i_circ, v_grid = i_ac_next, i_circ_next, v_grid_next
                currents += i_ac
                currents += i_circ
                v_c_tr[k] = v_row
                u_tr[k] = u_row

                if piline:
                    v_dc_arr[k] = v_dc_now
                    # semi-implicit: current from the old bus voltage, voltage
                    # from the new current; the converter draws the summed leg
                    # currents
                    i_line += ts / l_total * (params.v_dc - v_dc_now)
                    v_dc_now += ts / c_end * (i_line - (0.0 + i_circ[0] + i_circ[1] + i_circ[2]))
                    if not (math.isfinite(v_dc_now) and v_dc_now > 0.0):
                        raise _bus_diverged(k, ts, v_dc_now)
            currents_tr[start:stop] = np.reshape(currents, (-1, 2, len(PHASES)))

    return trace


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Plain-data snapshot of a config, as stored in run manifests."""
    data = asdict(config)
    data["nsw_schedule"] = [list(seg) for seg in config.nsw_schedule.segments]
    return data


def _check_type(where: str, value: Any, kind: type) -> None:
    """An int field takes an int, a float field an int or a float, a str
    field a str; a bool is not a number (and no field is a bool)."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")


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
    for f in fields(cls):
        if f.default is not MISSING:
            _check_type(f"{where}.{f.name}", data[f.name], type(f.default))


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
