"""Command-line front end: parse a scenario config, run it, write
time-series CSVs, per-figure data files, a metrics summary, the trace
record that ``load_run`` reads back, and a run manifest."""
from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .core import SimulationDiverged, SystemParams
from .metrics import SegmentMetrics, reduction_percent, segment_report, segment_windows
from .scenario import (
    DC_MODELS,
    PHASES,
    NswSchedule,
    ScenarioConfig,
    SimTrace,
    _blank_trace,
    _fit_schedule,
    _record_nbytes,
    config_from_dict,
    config_to_dict,
    fast_config,
    paper_config,
    run_scenario,
)
from .modulation import ALGORITHMS

_PROFILES = {"paper": paper_config, "fast": fast_config}
_SETTLE = {"paper": 0.02, "fast": 0.01}
# the timed stages of `mmcsim run`, in order, as the manifest names them
_STAGES = ("build", "simulate", "report", "write")
# the trace's recorded blocks, which load_run reads back; the CSVs are written
# for people and plotting tools, and never read
_RECORD = "trace.bin"


class ConfigError(ValueError):
    """Invalid or malformed scenario configuration."""


def _parse(kind: type, key: str, raw: str) -> Any:
    """``raw`` converted to ``kind`` (int, float or str)."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def _parse_schedule(key: str, raw: str) -> NswSchedule:
    segments = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"{key}: segment {chunk!r} must be start:end:n_sw_max"
            )
        segments.append(
            (_parse(float, key, parts[0]), _parse(float, key, parts[1]),
             _parse(int, key, parts[2]))
        )
    if not segments:
        raise ConfigError(f"{key}: no segments given")
    try:
        return NswSchedule(segments=tuple(segments))
    except ValueError as exc:  # a non-finite bound
        raise ConfigError(str(exc)) from None


def _file_key(name: str) -> str:
    return f"line.{name[5:]}" if name.startswith("line_") else f"scenario.{name}"


# config-file key -> (is a SystemParams field, dataclass field); the
# ScenarioConfig fields built by a factory (params, nsw_schedule) have
# their own keys
_KEYS = {
    **{f"params.{f.name}": (True, f) for f in fields(SystemParams)},
    **{_file_key(f.name): (False, f) for f in fields(ScenarioConfig) if f.default is not MISSING},
}


def _override(base: ScenarioConfig, overrides: dict[str, Any]) -> ScenarioConfig:
    """``base`` with the given ScenarioConfig fields replaced.

    A new ``duration`` fits the schedule in force and clips the warm-up to
    it, unless the same overrides set ``nsw_schedule`` or ``warmup``.
    """
    if "duration" in overrides:
        duration = overrides["duration"]
        overrides = {
            "nsw_schedule": _fit_schedule(base.nsw_schedule, duration),
            "warmup": min(base.warmup, duration),
            **overrides,
        }
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | Path, profile: str = "paper") -> ScenarioConfig:
    """Read a flat key-value config file into a validated ScenarioConfig.

    Unset keys fall back to the chosen profile's defaults (the ``paper``
    profile is the full case-study setup).  Lines are ``key = value``,
    ``#`` starts a comment; the schedule is written as comma-separated
    ``start:end:n_sw_max`` triples.  A key may be set once: a second line
    setting it raises ``ConfigError`` naming the key and both lines.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    if profile not in _PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, expected one of {tuple(_PROFILES)}")

    base = _PROFILES[profile]()
    params_kw: dict[str, Any] = {}
    overrides: dict[str, Any] = {}
    first_line: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        if key == "schedule.segments":
            overrides["nsw_schedule"] = _parse_schedule(key, value)
        elif key in _KEYS:
            is_param, f = _KEYS[key]
            target = params_kw if is_param else overrides
            # under postponed annotations f.type is a string: use the default's type
            target[f.name] = _parse(type(f.default), key, value)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if params_kw:
        try:
            overrides["params"] = replace(base.params, **params_kw)
        except ValueError as exc:
            raise ConfigError(f"params: {exc}") from None
    return _override(base, overrides)


def write_phase_csv(path: Path, trace: SimTrace, phase: str) -> int:
    """One row per step: t, phase, i_ref, i, i_z, v_s, nsw_max, then the
    2n capacitor voltages and 2n statuses.  Returns the row count.

    Written by ``csvtext.write_columns``: floats as ``%.9g``, the budget and
    statuses as ``%d``.  Statuses outside {0, 1} raise ``ValueError`` before
    the file is opened.
    """
    # imported on first use: code that imports this module but writes no CSV
    # does not load the formatter
    from .csvtext import write_columns

    tr = trace.phase(phase)
    u = tr.u
    n2 = u.shape[1]
    # the file holds statuses 0 and 1, and %d would write any other value;
    # rows is the config's steps, >= 1
    if u.dtype.kind not in "biu" or u.min() < 0 or u.max() > 1:
        raise ValueError(f"{path.name}: statuses must be integers 0 or 1")
    return write_columns(
        path,
        ["t", "phase", "i_ref", "i", "i_z", "v_s", "nsw_max"]
        + [f"vC_{k + 1}" for k in range(n2)]
        + [f"u_{k + 1}" for k in range(n2)],
        [trace.t, phase, tr.i_ref, tr.i_ac, tr.i_circ, tr.v_grid, trace.n_sw_max, tr.v_c, u],
    )


def _write_record(path: Path, trace: SimTrace) -> int:
    """Write the trace's ``record`` blocks to ``path`` as ``.npy`` records
    back to back, as ``np.save`` calls on one open file write them, each
    straight from its block.  Returns the step count."""
    with path.open("wb") as fh:
        for block in trace.record.values():
            np.save(fh, block, allow_pickle=False)
    return trace.steps


def _check_record(trace: SimTrace) -> None:
    """Values a finished run cannot record raise ``ConfigError`` naming the
    block and the index of the first: a non-finite float (a non-finite state
    raises ``SimulationDiverged`` first), a status outside {0, 1} or a bus
    voltage <= 0."""
    checks = [
        *((name, np.isfinite, "is not finite") for name in ("currents", "v_c", "v_dc")),
        ("u", lambda u: (u == 0) | (u == 1), "is not a status 0 or 1"),
        ("v_dc", lambda v: v > 0.0, "is not > 0"),
    ]
    for name, good, what in checks:
        block = trace.record[name]
        # each test holds for the whole block when it holds for the block's
        # min and max (a NaN is both), so no block-sized mask is made unless
        # a value fails
        if good(block.min()) and good(block.max()):
            continue
        at = tuple(np.argwhere(~good(block))[0].tolist())
        raise ConfigError(f"{_RECORD}: {name}{list(at)} {what}, got {block[at]:g}")


def _read_record(path: Path, config: ScenarioConfig) -> SimTrace:
    """A trace of ``config`` whose ``record`` blocks are read from ``path``,
    each ``readinto`` its block of a fresh ``_blank_trace(config)``.

    The file size is checked against the config before any block is made.
    A record whose header differs from its block's dtype (byte order
    included), shape or C order, a short read, bytes after the last record
    and the values ``_check_record`` refuses raise ``ConfigError`` naming the
    file and the block.
    """
    with path.open("rb") as fh:
        size, need = path.stat().st_size, _record_nbytes(config)
        if size < need:
            raise ConfigError(
                f"{_RECORD} is too small to hold the {config.steps} steps the config expects: "
                f"{size} bytes, the blocks alone need {need}"
            )
        from . import kernel  # as run_scenario does, on first use

        trace = _blank_trace(config, kernel.library())[0]
        for name, block in trace.record.items():
            try:
                version = np.lib.format.read_magic(fh)
                if version != (1, 0):  # np.save writes 1.0 for these headers
                    raise ValueError(f".npy format version {version}, expected (1, 0)")
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            except ValueError as exc:
                raise ConfigError(f"{_RECORD}: {name} record: bad header: {exc}") from None
            if (dtype, shape, fortran_order) != (block.dtype, block.shape, False):
                order = "Fortran" if fortran_order else "C"
                raise ConfigError(
                    f"{_RECORD}: {name} record holds {dtype.str} {shape} in {order} order, "
                    f"the config expects {block.dtype.str} {block.shape} in C order"
                )
            got = fh.readinto(block)
            if got != block.nbytes:
                raise ConfigError(f"{_RECORD}: {name} record is short: {got} of {block.nbytes} bytes")
        if fh.read(1):
            raise ConfigError(f"{_RECORD}: trailing bytes after the {name} record")
    _check_record(trace)
    return trace


def load_run(out_dir: str | Path) -> SimTrace:
    """Rebuild a SimTrace from an output directory's manifest and
    ``trace.bin``.

    The trace is built from the manifest's config as a fresh run's is, so
    ``t``, ``i_ref``, ``v_s`` (``v_grid``) and ``nsw_max`` are the config's,
    and its recorded blocks (currents, capacitor voltages, statuses and the
    bus voltage, a pi-line run's included) are read from ``trace.bin``
    exactly, bit for bit.  The CSVs are not read.  Only the manifest's
    config is read; its file inventory and timings are not.

    ``ConfigError`` names the file when the manifest or ``trace.bin`` is
    missing or cannot be read, which is how a directory written before
    ``trace.bin`` existed fails.  It also ends a manifest that is not a JSON
    object with a ``config`` key, a failed run's manifest (quoting its
    error), a config it cannot be rebuilt from (naming the key) and a
    ``trace.bin`` that does not hold the config's blocks (see
    ``_read_record``).
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "run_manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {manifest_path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"run_manifest.json: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or "config" not in manifest:
        got = "no 'config' key" if isinstance(manifest, dict) else type(manifest).__name__
        raise ConfigError(f"run_manifest.json: expected an object with a 'config' key, got {got}")
    if "error" in manifest:  # written by a run that diverged, beside no trace
        raise ConfigError(f"run_manifest.json: the run failed and wrote no trace: {manifest['error']}")
    try:
        config = config_from_dict(manifest["config"])
    except ValueError as exc:
        raise ConfigError(f"run_manifest.json: {exc}") from None
    try:
        return _read_record(out_dir / _RECORD, config)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {exc.filename}: {exc.strerror}") from None


def _write_fig_files(out_dir: Path, trace: SimTrace, report: list[SegmentMetrics]) -> dict[str, int]:
    """The figure files and ``dc_bus.csv``, each written from the trace or
    the report.  Returns the row count of each."""
    from .csvtext import write_columns  # on first use, as write_phase_csv

    n2 = 2 * trace.config.params.n
    tr, t = trace.phase("a"), trace.t
    fig4, fig5, fig6, fig7, dc_bus = _FIG_FILES
    tables = {
        fig4: (
            ["segment", "t_start", "t_end", "nsw_max", "f_s_mean_hz", "reduction_pct"]
            + [f"f_s_sm_{k + 1}_hz" for k in range(n2)],
            [
                np.array([seg.index for seg in report], np.int64),
                [seg.t_start for seg in report],
                [seg.t_end for seg in report],
                np.array([seg.n_sw_max for seg in report], np.int64),
                [seg.f_s_per_sm[0].mean() for seg in report],
                reduction_percent(report),
                np.array([seg.f_s_per_sm[0] for seg in report]).reshape(len(report), n2),
            ],
        ),
        fig5: (["t"] + [f"vC_{k + 1}" for k in range(n2)], [t, tr.v_c]),
        fig6: (["t", "i_ref", "i"], [t, tr.i_ref, tr.i_ac]),
        fig7: (["t", "i_z"], [t, tr.i_circ]),
        dc_bus: (["t", "v_dc"], [t, trace.v_dc]),
    }
    return {name: write_columns(out_dir / name, header, columns) for name, (header, columns) in tables.items()}


_FIG_FILES = (
    "fig4_switching_frequency.csv", "fig5_capacitor_voltages.csv", "fig6_ac_tracking.csv",
    "fig7_circulating_current.csv", "dc_bus.csv",
)
# every file `mmcsim run` writes; a run removes them from its output
# directory first, so no earlier run's file outlives it
_OUTPUT_FILES = (
    *(f"phase_{ph}.csv" for ph in PHASES), *_FIG_FILES, "summary.txt", _RECORD, "run_manifest.json",
)


def format_summary(report: list[SegmentMetrics]) -> str:
    """Human-readable per-segment table (phase A values)."""
    reductions = reduction_percent(report)
    lines = [
        f"{'seg':>3} {'span [s]':>16} {'nsw':>4} {'f_s mean [Hz]':>14} "
        f"{'reduction %':>12} {'ripple %':>9} {'i_z dev %':>10} {'rmse %':>7}"
    ]
    for seg, red in zip(report, reductions):
        lines.append(
            f"{seg.index:>3} {seg.t_start:>7.3f}-{seg.t_end:<8.3f} {seg.n_sw_max:>4} "
            f"{seg.f_s_per_sm[0].mean():>14.1f} {red:>12.1f} {seg.ripple_pct[0].mean():>9.2f} "
            f"{seg.izm_ratio_pct[0]:>10.1f} {seg.tracking_rmse_pct[0]:>7.2f}"
        )
    return "\n".join(lines)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_manifest(out_dir: Path, manifest: dict[str, Any]) -> None:
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _engine() -> dict[str, str]:
    """The manifest's ``engine``, ``"c"`` or ``"python"``, and its
    ``engine_note`` when there is one: why the Python code ran, or where
    the kernel was built."""
    from .kernel import engine  # loaded by the run already

    name, note = engine()
    return {"engine": name, **({"engine_note": note} if note else {})}


def _write_outputs(out_dir: Path, trace: SimTrace, report: list[SegmentMetrics], summary: str) -> dict[str, int]:
    """Write every output file but the manifest on two threads, and return
    the row count of each in ``_OUTPUT_FILES`` order.

    This thread writes the phase files, one after another, and then
    ``summary.txt``; a second thread writes the figure files with
    ``dc_bus.csv`` and then ``trace.bin``.  The library formats without the
    GIL, so the two use both cores; Python's ``%``, the fallback, holds it,
    and there the threads take turns.  The phase files share one thread
    so that their ``write_phase_csv`` calls never overlap, and a span
    tracer wrapping that name nests their spans as it would in sequence.  A
    writer that raises ends its thread's writing; once both threads are
    done, the failure of the first file in ``_OUTPUT_FILES`` order is
    raised.
    """
    def phase_file(ph: str) -> dict[str, int]:
        return {f"phase_{ph}.csv": write_phase_csv(out_dir / f"phase_{ph}.csv", trace, ph)}

    def summary_file() -> dict[str, int]:
        (out_dir / "summary.txt").write_text(summary + "\n")
        return {"summary.txt": len(report)}

    # (thread, writer) in the order of _OUTPUT_FILES: thread 0 is this one
    jobs: list[tuple[int, Callable[[], dict[str, int]]]] = [
        *((0, partial(phase_file, ph)) for ph in PHASES),
        (1, partial(_write_fig_files, out_dir, trace, report)),
        (0, summary_file),
        (1, lambda: {_RECORD: _write_record(out_dir / _RECORD, trace)}),
    ]
    done: list[Any] = [{}] * len(jobs)  # each writer's files, or what it raised

    def write(thread: int) -> None:
        for k, (on, job) in enumerate(jobs):
            if on == thread:
                try:
                    done[k] = job()
                except BaseException as exc:  # raised below, once both threads are done
                    done[k] = exc
                    return

    worker = threading.Thread(target=write, args=(1,), name="mmcsim-writer")
    worker.start()
    write(0)
    worker.join()
    files: dict[str, int] = {}
    for result in done:
        if isinstance(result, BaseException):
            raise result
        files.update(result)
    return files


def run_command(args: argparse.Namespace) -> int:
    # perf_counter marks between the stages of the manifest's stage_seconds
    marks = [time.perf_counter()]
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file by that name, or a parent that is one
        print(f"error: cannot create output directory {out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        for name in _OUTPUT_FILES:
            (out_dir / name).unlink(missing_ok=True)
    except OSError as exc:  # a directory by an output file's name
        print(f"error: cannot remove earlier output {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    manifest = {
        "package_version": __version__,
        "started_utc": _utc_now(),
        "finished_utc": None,  # set when the run ends
        "profile": args.profile,
        "settle": _SETTLE[args.profile],
        "config": config_to_dict(config),
    }
    marks.append(time.perf_counter())

    try:
        trace = run_scenario(config)
    except SimulationDiverged as exc:
        # a failed run explains itself: the error, and the stages that ran
        marks.append(time.perf_counter())
        manifest.update(
            finished_utc=_utc_now(),
            error=str(exc),
            stage_seconds=dict(zip(_STAGES, np.diff(marks).tolist())),
            **_engine(),
        )
        _write_manifest(out_dir, manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    marks.append(time.perf_counter())

    report = segment_report(trace, settle=_SETTLE[args.profile])
    summary = format_summary(report)
    marks.append(time.perf_counter())

    files = _write_outputs(out_dir, trace, report, summary)
    marks.append(time.perf_counter())

    stage_seconds = dict(zip(_STAGES, np.diff(marks).tolist()))
    manifest.update(
        finished_utc=_utc_now(),
        files={name: {"rows": rows} for name, rows in files.items()},
        stage_seconds=stage_seconds,
        phase_steps_per_s=len(PHASES) * trace.steps / stage_seconds["simulate"],
        **_engine(),
    )
    _write_manifest(out_dir, manifest)

    print(summary)
    print(f"\noutputs written to {out_dir}")
    return 0


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    """Profile defaults, overridden by the config file, then by flags.  A
    config whose report would measure nothing, because the warm-up covers
    the run or the profile's settle margin leaves a segment without samples,
    raises ``ConfigError``, so it fails before it is simulated."""
    if args.config:
        base = parse_config(args.config, profile=args.profile)
    else:
        base = _PROFILES[args.profile]()
    flags = {"algorithm": args.algorithm, "dc_model": args.dc_model, "duration": args.duration}
    config = _override(base, {k: v for k, v in flags.items() if v is not None})
    try:
        windows = segment_windows(config, settle=_SETTLE[args.profile])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not windows:
        raise ConfigError(
            f"warm-up {config.warmup} s covers the whole {config.duration} s run: no measured segment"
        )
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmcsim",
        description="Fixed-step MMC-HVDC simulator with sorted modulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write outputs")
    run_p.add_argument("--config", default=None, help="scenario config file")
    run_p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    run_p.add_argument("--out-dir", default="mmcsim-out")
    run_p.add_argument("--duration", type=float, default=None, help="override run length [s]")
    run_p.add_argument("--profile", choices=tuple(_PROFILES), default="paper")
    run_p.add_argument("--dc-model", choices=DC_MODELS, default=None)
    # "run" is the only subcommand, and one is required
    return run_command(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
