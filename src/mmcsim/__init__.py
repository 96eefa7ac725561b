"""Fixed-step simulator of an MMC-based HVDC terminal comparing the
conventional voltage-balancing modulation with a switching-constrained
variant."""

from .core import (
    ArmState,
    PhaseLegState,
    SimulationDiverged,
    SwitchDecision,
    SystemParams,
    anticipate_capacitor_voltages,
    arm_currents,
    arm_voltage,
    nominal_phase_state,
    predict_ac_current,
    predict_circulating_current,
    step_phase,
)
from .modulation import (
    ALGORITHMS,
    ArmTargets,
    SelectionResult,
    SortedArm,
    brute_force_select,
    compute_targets,
    cumulative_sums,
    modulate_phase,
    objective_f,
    select_grid,
    select_optimal,
    sort_v1f2,
    sort_v1fc,
)
from .scenario import (
    DC_MODELS,
    PHASES,
    NswSchedule,
    PhaseTrace,
    ScenarioConfig,
    SimTrace,
    constant_schedule,
    fast_config,
    fast_schedule,
    grid_voltage,
    paper_config,
    paper_schedule,
    reference_current,
    run_scenario,
)
from .metrics import (
    SegmentMetrics,
    circulating_ratio,
    effective_switching_frequency,
    reduction_percent,
    ripple_percent,
    segment_report,
    tracking_rmse,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
