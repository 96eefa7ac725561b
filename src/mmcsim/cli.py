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
from pathlib import Path
from typing import Any, Sequence

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
    """Write ``_csv_table``'s ``phase_<phase>.csv`` to ``path``.  Returns
    the row count.

    Written by ``csvtext.write_columns``: floats as ``%.9g``, the budget and
    statuses as ``%d``.  Statuses outside {0, 1} raise ``ValueError`` before
    the file is opened.
    """
    # imported on first use: code that imports this module but writes no CSV
    # does not load the formatter
    from .csvtext import write_columns

    u = trace.phase(phase).u
    # the file holds statuses 0 and 1, and %d would write any other value;
    # rows is the config's steps, >= 1
    if u.dtype.kind not in "biu" or u.min() < 0 or u.max() > 1:
        raise ValueError(f"{path.name}: statuses must be integers 0 or 1")
    return write_columns(path, *_csv_table(f"phase_{phase}.csv", trace))


def _csv_table(name: str, trace: SimTrace, report: Sequence[SegmentMetrics] = ()) -> tuple[list[str], list[Any]]:
    """The header and columns of the CSV ``name`` of a run, as
    ``csvtext.write_columns`` takes them: one row per segment of ``report``
    in ``fig4``, one per step in the others."""
    n2 = 2 * trace.config.params.n
    t, v_c = trace.t, [f"vC_{k + 1}" for k in range(n2)]
    if name.startswith("phase_"):
        ph = name[6:-4]  # phase_<ph>.csv
        tr = trace.phase(ph)
        return (
            ["t", "phase", "i_ref", "i", "i_z", "v_s", "nsw_max"] + v_c + [f"u_{k + 1}" for k in range(n2)],
            [t, ph, tr.i_ref, tr.i_ac, tr.i_circ, tr.v_grid, trace.n_sw_max, tr.v_c, tr.u],
        )
    tr = trace.phase("a")
    return {
        "fig4_switching_frequency.csv": (
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
        "fig5_capacitor_voltages.csv": (["t"] + v_c, [t, tr.v_c]),
        "fig6_ac_tracking.csv": (["t", "i_ref", "i"], [t, tr.i_ref, tr.i_ac]),
        "fig7_circulating_current.csv": (["t", "i_z"], [t, tr.i_circ]),
        "dc_bus.csv": (["t", "v_dc"], [t, trace.v_dc]),
    }[name]


def _write_record(path: Path, trace: SimTrace) -> int:
    """Write the trace's ``record`` blocks to ``path`` as ``.npy`` records
    back to back, as ``np.save`` calls on one open file write them, each
    straight from its block.  Returns the step count; a failed write
    raises ``OSError`` naming the file."""
    from .csvtext import _naming

    with _naming(path), path.open("wb") as fh:
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


# every file `mmcsim run` writes, in the manifest's order, and the thread that
# writes it when there is a library (0 the calling one; None, the manifest, is
# written last); a run removes them all first, so no earlier run's outlives it
_OUTPUT_FILES: dict[str, int | None] = {
    **{f"phase_{ph}.csv": 0 for ph in PHASES},
    "fig4_switching_frequency.csv": 1, "fig5_capacitor_voltages.csv": 1, "fig6_ac_tracking.csv": 1,
    "fig7_circulating_current.csv": 1, "dc_bus.csv": 1,
    "summary.txt": 0, _RECORD: 1, "run_manifest.json": None,
}


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


def _write_manifest(out_dir: Path, manifest: dict[str, Any]) -> bool:
    """Write ``run_manifest.json``; False, the error printed, when it
    cannot be written."""
    path = out_dir / "run_manifest.json"
    try:
        path.write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _engine() -> dict[str, str]:
    """The manifest's ``engine``, ``"c"`` or ``"python"``, and its
    ``engine_note`` when there is one: why the Python code ran, or where
    the kernel was built."""
    from .kernel import engine  # loaded by the run already

    name, note = engine()
    return {"engine": name, **({"engine_note": note} if note else {})}


def _write_file(path: Path, trace: SimTrace, report: list[SegmentMetrics], summary: str) -> int:
    """Write ``path``, an output file but the manifest, by its name; returns its rows."""
    from .csvtext import _naming, write_columns  # on first use, as write_phase_csv

    name = path.name
    if name.startswith("phase_"):
        return write_phase_csv(path, trace, name[6:-4])
    if name == _RECORD:
        return _write_record(path, trace)
    if name == "summary.txt":
        with _naming(path):
            path.write_text(summary + "\n")
        return len(report)
    return write_columns(path, *_csv_table(name, trace, report))


def _write_outputs(out_dir: Path, trace: SimTrace, report: list[SegmentMetrics], summary: str) -> dict[str, int]:
    """Write every output file but the manifest, each on its thread of
    ``_OUTPUT_FILES``, and return the row count of each in that order.

    The library writes a file without the GIL, so the two threads use both
    cores, once the second is placed off this thread's CPU by the
    library's ``mmcsim_place_thread`` right after it starts.  On Linux a
    new thread otherwise waits behind its starter on one CPU, and on the
    benchmark's fast trace the stage took about as long as its files one
    after the other (medians of 11.6-19.0 ms over eleven processes); once
    placed, 7.7-12.9 ms, the main thread's share.  Python's ``%``, the
    fallback, holds the GIL: without the library, this thread writes every
    file in ``_OUTPUT_FILES`` order.  When the second thread cannot be
    started, this one writes that thread's files after its own, as
    ``mmcsim_run`` steps a worker's legs; when it cannot be placed, it
    runs where the system puts it.  The phase files share a thread so that
    ``write_phase_csv`` calls never overlap, and a span tracer wrapping
    that name nests their spans as in sequence.  A writer that raises ends
    its thread's writing; once every thread is done, the failure of the
    first file in ``_OUTPUT_FILES`` order is raised, a failed write being
    an ``OSError`` naming its file.
    """
    from . import kernel  # loaded by the run already

    lib = kernel.library()
    threads = {name: thread for name, thread in _OUTPUT_FILES.items() if thread is not None}
    if lib is None:
        threads = dict.fromkeys(threads, 0)
    done: dict[str, Any] = {}  # each file's rows, or what its writer raised

    def write(thread: int) -> None:
        for name, on in threads.items():
            if on == thread:
                try:
                    done[name] = _write_file(out_dir / name, trace, report, summary)
                except BaseException as exc:  # raised below, once every thread is done
                    done[name] = exc
                    return

    second = threading.Thread(target=write, args=(1,), name="mmcsim-writer")
    try:
        if 1 in threads.values():
            second.start()
            lib.mmcsim_place_thread(second.native_id)
    except RuntimeError:  # "can't start new thread"
        pass
    write(0)
    if second.ident is None:  # not started
        write(1)
    else:
        second.join()
    for name in threads:
        if isinstance(done.get(name), BaseException):
            raise done[name]
    return {name: done[name] for name in threads}


def _failed(out_dir: Path, manifest: dict[str, Any], marks: list[float], error: str) -> int:
    """End a run that failed with ``error``: print it, then write the
    manifest with it and the seconds of the stages that ran, the failed one
    last, so that the run explains itself.  A manifest that cannot be
    written is reported after the error.  Returns 1, the exit code."""
    marks.append(time.perf_counter())
    print(f"error: {error}", file=sys.stderr)
    manifest.update(
        finished_utc=_utc_now(),
        error=error,
        stage_seconds=dict(zip(_STAGES, np.diff(marks).tolist())),
        **_engine(),
    )
    _write_manifest(out_dir, manifest)
    return 1


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
        return _failed(out_dir, manifest, marks, str(exc))
    marks.append(time.perf_counter())

    report = segment_report(trace, settle=_SETTLE[args.profile])
    summary = format_summary(report)
    marks.append(time.perf_counter())

    try:
        files = _write_outputs(out_dir, trace, report, summary)
    except OSError as exc:  # every writer names its file
        return _failed(out_dir, manifest, marks, f"cannot write {exc.filename}: {exc.strerror or exc}")
    marks.append(time.perf_counter())

    stage_seconds = dict(zip(_STAGES, np.diff(marks).tolist()))
    manifest.update(
        finished_utc=_utc_now(),
        files={name: {"rows": rows} for name, rows in files.items()},
        stage_seconds=stage_seconds,
        phase_steps_per_s=len(PHASES) * trace.steps / stage_seconds["simulate"],
        **_engine(),
    )
    if not _write_manifest(out_dir, manifest):
        return 1

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
