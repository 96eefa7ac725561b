"""The benchmark's workloads: configs built from a seed, one repetition each,
and output checks that hold for any correct version of mmcsim.

The seed sets the operating point only: it scales ``p_ref`` within +-2 % of
the 13.18 MW case study and shuffles the run order of ``budget_sweep``.
mmcsim sees nothing but the resulting configs.

Runs use the fast profile's staircase shape (budget 6 through warm-up, then
0..5 and 6 again) compressed to 15 ms segments, so that one repetition takes
one to two seconds of host time and a run of the benchmark gathers 14 to 24
samples.  The fast profile's 10 ms settle margin still leaves 5 ms (200
steps) in every reported segment.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mmcsim.cli
import mmcsim.metrics
import mmcsim.scenario
from mmcsim.core import SystemParams
from mmcsim.scenario import PHASES, NswSchedule, constant_schedule, fast_config

P_REF_NOMINAL = 13.18e6
P_REF_BAND = 0.02

STAIRCASE = NswSchedule(
    segments=(
        (0.0, 0.02, 6),
        (0.02, 0.035, 0),
        (0.035, 0.05, 1),
        (0.05, 0.065, 2),
        (0.065, 0.08, 3),
        (0.08, 0.095, 4),
        (0.095, 0.11, 5),
        (0.11, 0.125, 6),
    )
)
STAIRCASE_DURATION = 0.125
STAIRCASE_WARMUP = 0.02
STAIRCASE_SETTLE = 0.01  # the CLI's settle margin for the fast profile

SWEEP_DURATION = 0.02
SWEEP_WARMUP = 0.005
SWEEP_SETTLE = 0.005


@dataclass
class Run:
    """Outcome of one scenario run inside a repetition."""

    label: str
    trace: mmcsim.scenario.SimTrace | None
    problems: list[str] = field(default_factory=list)


@dataclass
class RepResult:
    runs: list[Run]
    csv_bytes: int = 0  # bytes of phase CSVs written (CLI workload only)


def _p_ref(rng: random.Random) -> float:
    return P_REF_NOMINAL * (1.0 + P_REF_BAND * (2.0 * rng.random() - 1.0))


def check_trace(trace: mmcsim.scenario.SimTrace) -> list[str]:
    """Shape, finiteness and status-domain checks on a finished trace."""
    cfg = trace.config
    n2 = 2 * cfg.params.n
    problems = []
    if trace.steps != cfg.steps:
        problems.append(f"{trace.steps} rows, config expects {cfg.steps}")
    arrays = {"t": trace.t, "v_dc": trace.v_dc}
    for ph in PHASES:
        tr = trace.phase(ph)
        arrays.update(
            {f"{ph}.i_ac": tr.i_ac, f"{ph}.i_ref": tr.i_ref, f"{ph}.i_circ": tr.i_circ,
             f"{ph}.v_grid": tr.v_grid, f"{ph}.v_c": tr.v_c}
        )
        if tr.u.shape != (cfg.steps, n2) or not np.isin(tr.u, (0, 1)).all():
            problems.append(f"phase {ph}: statuses are not a (steps, 2n) 0/1 array")
    problems += [f"{name} is not finite" for name, a in arrays.items() if not np.isfinite(a).all()]
    if not (trace.v_dc > 0).all():
        problems.append("DC bus voltage is not positive")
    return problems


def check_report(report: list) -> list[str]:
    if not report:
        return ["segment_report returned no segments"]
    for seg in report:
        for arr in (seg.f_s_per_sm, seg.ripple_pct, seg.izm_ratio_pct, seg.tracking_rmse_pct):
            if not np.isfinite(arr).all():
                return [f"segment {seg.index}: non-finite metric"]
    return []


def same_decisions(a: mmcsim.scenario.SimTrace, b: mmcsim.scenario.SimTrace) -> bool:
    return all(np.array_equal(a.phase(ph).u, b.phase(ph).u) for ph in PHASES)


def decision_digest(runs: list[Run]) -> str:
    """sha256 over the int8 status arrays of phases a, b, c of every run."""
    h = hashlib.sha256()
    for run in runs:
        h.update(run.label.encode())
        if run.trace is not None:
            for ph in PHASES:
                h.update(np.ascontiguousarray(run.trace.phase(ph).u, dtype=np.int8).tobytes())
    return h.hexdigest()


def budget_overrun_steps(runs: list[Run]) -> int:
    """Arm-steps of v1fc runs on which an arm turned on more submodules than
    the step's budget (turn-on = 0 -> 1 edge; the initial state is all off)."""
    total = 0
    for run in runs:
        trace = run.trace
        if trace is None or trace.config.algorithm != "v1fc":
            continue
        n = trace.config.params.n
        budget = trace.n_sw_max.astype(np.int64)
        for ph in PHASES:
            u = trace.phase(ph).u
            prev = np.vstack([np.zeros((1, u.shape[1]), dtype=u.dtype), u[:-1]])
            on = (u == 1) & (prev == 0)
            total += int((on[:, :n].sum(axis=1) > budget).sum())
            total += int((on[:, n:].sum(axis=1) > budget).sum())
    return total


def _guarded(label: str, body) -> Run:
    # a repetition must survive a failing scenario run so it can be counted
    try:
        return body()
    except Exception as exc:  # noqa: BLE001 - recorded as a failed run
        return Run(label, None, [f"raised {type(exc).__name__}: {exc}"])


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.p_ref = _p_ref(self.rng)

    @property
    def phase_steps_per_rep(self) -> int:
        return sum(cfg.steps for cfg in self.configs()) * len(PHASES)

    @property
    def sim_seconds_per_rep(self) -> float:
        return sum(cfg.duration for cfg in self.configs())

    def configs(self) -> list[mmcsim.scenario.ScenarioConfig]:
        raise NotImplementedError

    def run_once(self) -> RepResult:
        raise NotImplementedError


class FastCliV1fc(Workload):
    """``mmcsim run --profile fast`` in-process into a fresh directory, then
    ``load_run`` on it: simulation plus every output file and the reload."""

    name = "fast_cli_v1fc"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        segments = ", ".join(f"{s}:{e}:{b}" for s, e, b in STAIRCASE.segments)
        self.config_text = (
            f"scenario.p_ref = {self.p_ref!r}\n"
            f"scenario.duration = {STAIRCASE_DURATION}\n"
            f"scenario.warmup = {STAIRCASE_WARMUP}\n"
            f"schedule.segments = {segments}\n"
        )
        self.config = fast_config(
            "v1fc", p_ref=self.p_ref, duration=STAIRCASE_DURATION,
            warmup=STAIRCASE_WARMUP, nsw_schedule=STAIRCASE,
        )

    def configs(self):
        return [self.config]

    def run_once(self) -> RepResult:
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        try:
            run = _guarded(self.name, lambda: self._journey(out))
            csv_bytes = sum(p.stat().st_size for p in out.glob("run/phase_*.csv"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return RepResult([run], csv_bytes)

    def _journey(self, out: Path) -> Run:
        cfg_path = out / "bench.cfg"
        cfg_path.write_text(self.config_text)
        captured = []
        inner = mmcsim.cli.run_scenario

        def capture(config):
            trace = inner(config)
            captured.append(trace)
            return trace

        mmcsim.cli.run_scenario = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = mmcsim.cli.main(
                    ["run", "--profile", "fast", "--algorithm", "v1fc",
                     "--config", str(cfg_path), "--out-dir", str(out / "run")]
                )
        finally:
            mmcsim.cli.run_scenario = inner
        if rc != 0 or len(captured) != 1:
            return Run(self.name, None, [f"mmcsim run exited {rc}"])
        trace = captured[0]
        loaded = mmcsim.cli.load_run(out / "run")
        problems = check_trace(trace)
        if trace.config != self.config:
            problems.append("the CLI built another config than the benchmark's")
        if not same_decisions(trace, loaded):
            problems.append("load_run did not round-trip the statuses u exactly")
        return Run(self.name, trace, problems)


class BudgetSweep(Workload):
    """One constant-budget v1fc run per budget 0..n and one v1f2 run, in
    memory, each followed by ``segment_report``; the order is shuffled."""

    name = "budget_sweep"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        n = SystemParams().n
        self.labelled = [
            (f"v1fc-b{b}", fast_config(
                "v1fc", p_ref=self.p_ref, duration=SWEEP_DURATION, warmup=SWEEP_WARMUP,
                nsw_schedule=constant_schedule(SWEEP_DURATION, b),
            ))
            for b in range(n + 1)
        ]
        self.labelled.append(
            ("v1f2", fast_config(
                "v1f2", p_ref=self.p_ref, duration=SWEEP_DURATION, warmup=SWEEP_WARMUP,
                nsw_schedule=constant_schedule(SWEEP_DURATION, n),
            ))
        )
        self.unconstrained = f"v1fc-b{n}"
        self.order = list(range(len(self.labelled)))
        self.rng.shuffle(self.order)

    def configs(self):
        return [cfg for _, cfg in self.labelled]

    def run_once(self) -> RepResult:
        runs: dict[str, Run] = {}
        for i in self.order:
            label, cfg = self.labelled[i]

            def body(label=label, cfg=cfg) -> Run:
                trace = mmcsim.scenario.run_scenario(cfg)
                report = mmcsim.metrics.segment_report(trace, settle=SWEEP_SETTLE)
                return Run(label, trace, check_trace(trace) + check_report(report))

            runs[label] = _guarded(label, body)
        # criterion C2: with the budget at n, v1fc must reproduce v1f2 exactly
        full, f2 = runs[self.unconstrained], runs["v1f2"]
        if full.trace is not None and f2.trace is not None and not same_decisions(full.trace, f2.trace):
            full.problems.append("v1fc at budget n differs from v1f2 (criterion C2)")
        return RepResult([runs[label] for label, _ in self.labelled])


class PilineV1f2(Workload):
    """The compressed fast staircase in memory under v1f2 with the pi-line DC
    model, whose phases couple through the summed circulating current."""

    name = "piline_v1f2"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.config = fast_config(
            "v1f2", dc_model="piline", p_ref=self.p_ref, duration=STAIRCASE_DURATION,
            warmup=STAIRCASE_WARMUP, nsw_schedule=STAIRCASE,
        )

    def configs(self):
        return [self.config]

    def run_once(self) -> RepResult:
        def body() -> Run:
            trace = mmcsim.scenario.run_scenario(self.config)
            report = mmcsim.metrics.segment_report(trace, settle=STAIRCASE_SETTLE)
            return Run(self.name, trace, check_trace(trace) + check_report(report))

        return RepResult([_guarded(self.name, body)])


WORKLOADS = {w.name: w for w in (FastCliV1fc, BudgetSweep, PilineV1f2)}
