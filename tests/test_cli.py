"""Config parsing, output files, and the end-to-end command."""
import argparse
import csv
import errno
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mmcsim as m
from mmcsim import cli, kernel
from mmcsim.cli import (
    _OUTPUT_FILES, ConfigError, _csv_table, _override, _write_record, build_config, format_summary,
    load_run, main, parse_config, write_phase_csv,
)
from mmcsim.csvtext import BLOCK_ROWS, write_columns
from mmcsim.scenario import PHASES, PhaseTrace, SimTrace, config_from_dict


def test_empty_config_gives_case_study_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but a comment\n\n")
    cfg = parse_config(path)
    assert cfg == m.paper_config()
    p = cfg.params
    assert (p.n, p.v_dc, p.c_sm, p.r_grid, p.l_grid, p.l_arm, p.t_s) == (
        6, 60e3, 2.5e-3, 0.03, 5e-3, 3e-3, 25e-6
    )
    assert cfg.p_ref == 13.18e6
    assert (cfg.line_length_km, cfg.line_c_per_km, cfg.line_l_per_km) == (
        5.0, 16e-6, 50e-6
    )


def test_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        params.n = 4
        params.v_dc = 40e3
        scenario.algorithm = v1f2
        scenario.duration = 0.5
        scenario.warmup = 0.1
        scenario.p_ref = 1e6   # watts
        schedule.segments = 0:0.25:4, 0.25:0.5:2
        """
    )
    cfg = parse_config(path)
    assert cfg.params.n == 4
    assert cfg.params.v_dc == 40e3
    assert cfg.algorithm == "v1f2"
    assert cfg.nsw_schedule.segments == ((0.0, 0.25, 4), (0.25, 0.5, 2))


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("params.resistance = 5\n")
    with pytest.raises(ConfigError, match="params.resistance"):
        parse_config(path)


def test_config_bad_number_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("params.v_dc = sixty\n")
    with pytest.raises(ConfigError, match="params.v_dc"):
        parse_config(path)


def test_config_budget_out_of_range_names_schedule(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schedule.segments = 0:2.6:7\n")
    with pytest.raises(ConfigError, match="nsw_schedule"):
        parse_config(path)


def test_config_duration_not_multiple(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario.duration = 0.100001234\n")
    with pytest.raises(ConfigError, match="duration"):
        parse_config(path)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda path: path.mkdir(), "cannot read config file .*: Is a directory"),
        (lambda path: path.write_bytes(b"# r\xe9glage\n"), "is not UTF-8 text"),
    ],
    ids=["directory", "not-utf-8"],
)
def test_config_unreadable_file(tmp_path, make, match):
    path = tmp_path / "run.cfg"
    make(path)
    with pytest.raises(ConfigError, match=match):
        parse_config(path)
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def test_config_key_set_twice(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("scenario.duration = 0.5\n# comment\nparams.n = 4\nscenario.duration = 0.02\n")
    with pytest.raises(ConfigError, match=re.escape(
        f"{path}:4: key 'scenario.duration' is set twice, on lines 1 and 4"
    )):
        parse_config(path)
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "is set twice" in capsys.readouterr().err


def test_config_unknown_profile(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    with pytest.raises(ConfigError, match="profile 'quick'"):
        parse_config(path, profile="quick")


def test_config_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("params.n 6\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("schedule.segments = 0:2.6", "schedule.segments: segment '0:2.6' must be start:end:n_sw_max"),
        ("schedule.segments = ,", "schedule.segments: no segments given"),
        ("params.n = 0", "params: n must be >= 1, got 0"),
    ],
    ids=["schedule-pair", "schedule-none", "n-zero"],
)
def test_config_bad_value_message(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(path)


def test_config_schedule_trailing_comma(tmp_path):
    path = tmp_path / "comma.cfg"
    path.write_text("schedule.segments = 0:1.3:2, 1.3:2.6:5,\n")
    assert parse_config(path).nsw_schedule.segments == ((0.0, 1.3, 2), (1.3, 2.6, 5))


def test_default_schedule_fits_overridden_duration(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text("scenario.duration = 1.4\nscenario.warmup = 1.0\n")
    cfg = parse_config(path)
    assert cfg.nsw_schedule.segments[-1][1] == 1.4
    cfg2 = parse_config(tmp_path / "short.cfg", profile="fast")
    assert cfg2.nsw_schedule.segments[-1][1] == 1.4


def test_config_every_key_changes_every_field(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text(
        """
        params.n = 4
        params.v_dc = 40e3
        params.c_sm = 3e-3
        params.l_arm = 4e-3
        params.r_grid = 0.05
        params.l_grid = 6e-3
        params.t_s = 50e-6
        params.f_grid = 50
        params.w_track = 2
        params.w_circ = 0.5
        scenario.duration = 0.5
        scenario.warmup = 0.2
        scenario.p_ref = 1e6
        scenario.v_s_peak = 20e3
        scenario.algorithm = v1f2
        scenario.dc_model = piline
        line.length_km = 2
        line.c_per_km = 1e-5
        line.l_per_km = 1e-4
        schedule.segments = 0:0.25:4, 0.25:0.5:2
        """
    )
    cfg = parse_config(path)
    base = m.paper_config()
    for obj, ref in ((cfg, base), (cfg.params, base.params)):
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(ref, f.name), f.name
    assert isinstance(cfg.params.n, int)


def _flags(**kw):
    args = dict(config=None, profile="paper", algorithm=None, dc_model=None, duration=None)
    return argparse.Namespace(**{**args, **kw})


def test_duration_override_same_from_file_and_flag(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text("scenario.duration = 0.5\n")
    from_file = parse_config(path)
    # the override of the flag layer, which build_config applies before it
    # checks the report's windows
    from_flag = _override(m.paper_config(), {"duration": 0.5})
    assert from_file == from_flag
    assert from_file.warmup == 0.5
    assert from_file.nsw_schedule.segments == ((0.0, 0.5, 6),)
    # the clipped warm-up covers the whole run, which build_config refuses
    with pytest.raises(ConfigError, match="no measured segment$"):
        build_config(_flags(duration=0.5))

    # --duration on top of a schedule written in the file fits that schedule
    path.write_text("schedule.segments = 0:1.3:2, 1.3:2.6:5\n")
    cfg = build_config(_flags(config=str(path), duration=1.1))
    assert cfg.nsw_schedule.segments == ((0.0, 1.1, 2),)
    assert cfg.warmup == 1.0


def test_run_command_fast_profile(tmp_path, fast_v1fc_trace):
    out = tmp_path / "out"
    rc = main(["run", "--profile", "fast", "--out-dir", str(out)])
    assert rc == 0

    manifest = json.loads((out / "run_manifest.json").read_text())
    for name, meta in manifest["files"].items():
        assert (out / name).exists(), name
    steps = fast_v1fc_trace.steps
    assert manifest["files"]["trace.bin"] == {"rows": steps}
    for ph in "abc":
        name = f"phase_{ph}.csv"
        assert manifest["files"][name]["rows"] == steps
        with (out / name).open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == steps + 1

    # csv.writer line ends, part of the byte format the outputs are pinned to
    assert (out / "phase_a.csv").read_bytes().split(b"\n", 1)[0].endswith(b",u_12\r")
    header = rows[0]
    assert header[:7] == ["t", "phase", "i_ref", "i", "i_z", "v_s", "nsw_max"]
    assert header[7:19] == [f"vC_{k}" for k in range(1, 13)]
    assert header[19:] == [f"u_{k}" for k in range(1, 13)]

    summary = (out / "summary.txt").read_text().strip().splitlines()
    assert len(summary) == 9  # header + 8 segments

    # the CLI run is deterministic, so it must reproduce the fixture trace,
    # and load_run reads it back bit for bit
    loaded = load_run(out)
    fixt = fast_v1fc_trace
    _assert_same_trace(loaded, fixt)
    rep_fixture = m.segment_report(fixt, settle=0.01)
    rep_loaded = m.segment_report(loaded, settle=0.01)
    for a, b in zip(rep_fixture, rep_loaded):
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    assert format_summary(rep_loaded) == format_summary(rep_fixture)

    # fig4 against one `%` per row of the report: eight segments, negative
    # reductions among them, and int columns passed as lists
    reductions = m.reduction_percent(rep_fixture)
    assert len(rep_fixture) == 8 and min(reductions) < 0
    columns = [
        [seg.index for seg in rep_fixture], [seg.t_start for seg in rep_fixture],
        [seg.t_end for seg in rep_fixture], [seg.n_sw_max for seg in rep_fixture],
        [seg.f_s_per_sm[0].mean() for seg in rep_fixture], reductions,
        np.array([seg.f_s_per_sm[0] for seg in rep_fixture]),
    ]
    header = (["segment", "t_start", "t_end", "nsw_max", "f_s_mean_hz", "reduction_pct"]
              + [f"f_s_sm_{k}_hz" for k in range(1, 13)])
    _write_columns_single_pass(tmp_path / "fig4.csv", header, columns, "%d,%.9g,%.9g,%d" + ",%.9g" * 14)
    assert (out / "fig4_switching_frequency.csv").read_bytes() == (tmp_path / "fig4.csv").read_bytes()


def _assert_same_trace(got, want):
    """Every array of ``got`` equals ``want``'s bit for bit, dtype included."""
    assert got.config == want.config
    for name in ("v_dc", "t", "n_sw_max"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for ph in PHASES:
        for f in fields(PhaseTrace):
            a, b = getattr(got.phase(ph), f.name), getattr(want.phase(ph), f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (ph, f.name)
    assert list(got.record) == list(want.record)
    for name, block in got.record.items():
        assert block.tobytes() == want.record[name].tobytes(), name


def test_run_command_flag_overrides(tmp_path):
    out = tmp_path / "out2"
    rc = main([
        "run", "--profile", "fast", "--algorithm", "v1f2",
        "--duration", "0.2", "--out-dir", str(out),
    ])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["algorithm"] == "v1f2"
    assert manifest["config"]["duration"] == 0.2
    assert manifest["config"]["nsw_schedule"][-1][1] == 0.2


def test_run_command_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.algorithm = spwm\n")
    rc = main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("duration", ["0", "-1"])
def test_run_refuses_duration_not_above_zero(tmp_path, capsys, duration):
    # no segment of the schedule starts inside the run, so the fitted
    # schedule is the first segment's budget over it, and the config
    # refuses the duration
    out = tmp_path / "o"
    assert main(["run", "--duration", duration, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: duration must be finite and > 0, got {float(duration)}\n"
    assert not out.exists()


def test_run_command_non_finite_schedule_bound(tmp_path, capsys):
    # refused when the config is built, before a simulation whose report
    # could not slice a NaN window
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.duration = 0.01\nschedule.segments = 0:nan:6\n")
    out = tmp_path / "o"
    rc = main(["run", "--profile", "fast", "--config", str(bad), "--out-dir", str(out)])
    assert rc == 2
    assert "nsw_schedule: segment 0 has a non-finite bound" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--profile", "fast", "--duration", "0.16"],
         "settle 0.01 s leaves no samples in segment 1 (0.15, 0.16]"),
        (["--profile", "paper", "--duration", "1.21"],
         "settle 0.02 s leaves no samples in segment 1 (1.2, 1.21]"),
    ],
    ids=["fast", "paper"],
)
def test_run_refuses_settle_margin_before_simulating(tmp_path, capsys, argv, message):
    # the report's margin used to fail in segment_report, after the whole
    # run, with a traceback; the output directory is made after the check
    out = tmp_path / "o"
    assert main(["run", *argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--profile", "fast", "--duration", "0.01"],
         "warm-up 0.01 s covers the whole 0.01 s run: no measured segment"),
        (["--profile", "paper", "--duration", "1.0"],
         "warm-up 1.0 s covers the whole 1.0 s run: no measured segment"),
    ],
    ids=["fast", "paper"],
)
def test_run_refuses_run_with_no_measured_segment(tmp_path, capsys, argv, message):
    # --duration clips the warm-up to the run, which left a report of no
    # segment and a header-only summary.txt behind exit status 0
    out = tmp_path / "o"
    assert main(["run", *argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_command_divergence_exit_code(tmp_path):
    # long enough for the paper profile's 0.02 s settle margin, which is
    # checked before the run; the bus diverges at step 1
    cfg = tmp_path / "div.cfg"
    cfg.write_text(
        """
        scenario.dc_model = piline
        scenario.duration = 0.03
        scenario.warmup = 0.0
        line.length_km = 1.0
        line.c_per_km = 1e-12
        line.l_per_km = 1e-12
        schedule.segments = 0:0.03:6
        """
    )
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def _diverging_config(tmp_path):
    # the parameters of test_leg_divergence_names_phase_and_step: the
    # circulating current overflows within 15 steps; the run is long enough
    # for the fast profile's 0.01 s settle margin, checked before it starts
    cfg = tmp_path / "div.cfg"
    cfg.write_text(
        """
        params.l_arm = 1e-12
        params.v_dc = 1e300
        params.w_circ = 0
        scenario.duration = 0.02
        scenario.warmup = 0.0
        schedule.segments = 0:0.02:6
        """
    )
    return cfg


def test_diverged_run_writes_manifest_with_error(tmp_path, capsys):
    cfg = _diverging_config(tmp_path)
    out = tmp_path / "o"
    rc = main(["run", "--profile", "fast", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    manifest = json.loads((out / "run_manifest.json").read_text())
    with pytest.raises(m.SimulationDiverged) as want:
        m.run_scenario(parse_config(cfg, profile="fast"))
    assert manifest["error"] == str(want.value)
    assert manifest["error"].startswith("phase a diverged at step ")
    assert f"error: {manifest['error']}" in capsys.readouterr().err
    assert config_from_dict(manifest["config"]) == parse_config(cfg, profile="fast")
    assert list(manifest["stage_seconds"]) == ["build", "simulate"]
    assert all(s >= 0 for s in manifest["stage_seconds"].values())
    assert "files" not in manifest and "phase_steps_per_s" not in manifest

    with pytest.raises(ConfigError, match=re.escape(manifest["error"])):
        load_run(out)


def test_diverged_run_removes_earlier_run_files(tmp_path):
    # a failed run over a finished one leaves only its own manifest, not the
    # earlier run's CSVs and summary beside it
    out = tmp_path / "o"
    cfg = _diverging_config(tmp_path)
    diverge = ["run", "--profile", "fast", "--config", str(cfg), "--out-dir", str(out)]
    assert main(["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(out)]) == 0
    assert len(list(out.iterdir())) == 11 and (out / "dc_bus.csv").exists()
    assert main(diverge) == 1
    assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
    assert "error" in json.loads((out / "run_manifest.json").read_text())
    # only the names a run writes are removed
    (out / "notes.txt").write_text("kept\n")
    assert main(diverge) == 1
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "run_manifest.json"]


@pytest.mark.parametrize("sub", ["", "sub"], ids=["a-file", "under-a-file"])
def test_run_reports_uncreatable_out_dir(tmp_path, capsys, sub):
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / sub
    argv = ["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: "), err
    assert (tmp_path / "taken").read_text() == ""


def test_run_reports_directory_named_as_output(tmp_path, capsys):
    (tmp_path / "o" / "trace.bin").mkdir(parents=True)
    argv = ["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot remove earlier output {tmp_path / 'o' / 'trace.bin'}: "), err


def test_cli_rejects_unknown_algorithm_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--algorithm", "foo", "--out-dir", str(tmp_path / "o")])


# ------------------------------------------------------- blocked CSV I/O

def _write_columns_single_pass(path, header, columns, fmt):
    """The writer before blocking, kept as the oracle: the whole table is
    stacked and converted to Python floats at once."""
    rows = np.column_stack(columns).tolist()
    fmt += "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(fmt % tuple(row) for row in rows)
    return len(rows)


@pytest.mark.parametrize(
    "rows", [0, 1, BLOCK_ROWS, 3 * BLOCK_ROWS + 17],
    ids=["empty", "one-row", "one-block", "partial-last-block"],
)
def test_write_columns_matches_single_pass(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = [
        np.arange(1, rows + 1) * 25e-6,
        rng.normal(scale=1e3, size=rows),
        rng.integers(0, 7, size=rows).astype(np.int16),
        rng.normal(1e4, 1e2, size=(rows, 3)),
        rng.integers(0, 2, size=(rows, 3)).astype(np.int8),
        rng.normal(size=rows).tolist(),  # a list, as the fig4 table passes
        # values Python's own '%.9g' writes: fig4's reduction_pct can be NaN
        np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e22, 1e-5], rows),
        rng.integers(-300, 300, size=rows),
    ]
    header = ["t", "tag", "x", "n", "v1", "v2", "v3", "u1", "u2", "u3", "y", "z", "k"]
    fmt = ",".join(["%.9g", "a", "%.9g", "%d"] + ["%.9g"] * 3 + ["%d"] * 3 + ["%.9g"] * 2 + ["%d"])
    new, old = tmp_path / "blocked.csv", tmp_path / "single.csv"
    # the tag as a str column: fixed text on every row
    assert write_columns(new, header, [columns[0], "a", *columns[1:]]) == rows
    assert _write_columns_single_pass(old, header, columns, fmt) == rows
    assert new.read_bytes() == old.read_bytes()


def test_write_columns_ragged_table_writes_nothing(tmp_path):
    # the short column still fills the first block
    path = tmp_path / "ragged.csv"
    columns = [np.zeros(2 * BLOCK_ROWS), np.zeros(2 * BLOCK_ROWS - 1)]
    with pytest.raises(ValueError, match="differ in length"):
        write_columns(path, ["a", "b"], columns)
    assert not path.exists()


@pytest.mark.parametrize(
    "header, b, match",
    [
        (["a", "b1"], np.zeros((3, 2), np.int8), "the header names 2 columns, the table has 3"),
        (["a", "b1", "b2", "c"], np.zeros((3, 2), np.int8), "the header names 4 columns, the table has 3"),
        (["a", "b"], np.array(["x", "y", "z"]), "column 'b' holds <U1, expected float64, int8, int16 or int64"),
        (["a", "b1", "b2"], np.zeros((3, 2), complex), "column 'b1' holds complex128, expected float64"),
        # numbers of a dtype no output file holds
        (["a", "b"], np.zeros(3, np.float32), "column 'b' holds float32, expected float64"),
        (["a", "b"], np.zeros(3, bool), "column 'b' holds bool, expected float64"),
        (["a", "b"], np.zeros(3, np.uint8), "column 'b' holds uint8, expected float64"),
        (["a", "b"], np.zeros(3, np.int32), "column 'b' holds int32, expected float64"),
        (["a", "b"], np.zeros(3, ">f8"), "column 'b' holds >f8, expected float64"),
        (["a", "b"], np.zeros((3, 2, 2)), "column 'b' has 3 dimensions, expected 1 or 2"),
    ],
    ids=["too-few-names", "too-many-names", "text-array", "complex-array",
         "float32", "bool", "uint8", "int32", "big-endian-float64", "3-d"],
)
def test_write_columns_rejects_before_opening(tmp_path, header, b, match):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=re.escape(f"bad.csv: {match}")):
        write_columns(path, header, [np.zeros(3), b])
    assert not path.exists()


@pytest.mark.parametrize("char", [",", "\n", "\r", "\0"], ids=["comma", "newline", "return", "nul"])
def test_write_columns_refuses_text_that_breaks_a_row(tmp_path, char):
    # 'x,y' would write three fields under a two-name header, and a NUL
    # would be dropped with the block's padding
    path = tmp_path / "bad.csv"
    text = f"x{char}y"
    with pytest.raises(ValueError, match=re.escape(f"bad.csv: column 'b' holds {text!r}: ")):
        write_columns(path, ["a", "b"], [np.zeros(2), text])
    assert not path.exists()


@pytest.mark.parametrize("char", [",", "\n", "\r", "\0"], ids=["comma", "newline", "return", "nul"])
def test_write_columns_refuses_header_name_that_breaks_the_header(tmp_path, char):
    # 'a,b' would name two fields over rows of one, and a line break would
    # split the header over two lines
    path = tmp_path / "bad.csv"
    name = f"x{char}y"
    with pytest.raises(ValueError, match=re.escape(f"bad.csv: header name {name!r} holds ")):
        write_columns(path, [name, "z"], [np.zeros(2), np.zeros(2)])
    assert not path.exists()



@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A CLI run two blocks and a part long, and its in-memory trace."""
    out = tmp_path_factory.mktemp("short") / "run"
    argv = ["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(out)]
    assert main(argv) == 0
    trace = m.run_scenario(load_run(out).config)
    assert trace.steps > 2 * BLOCK_ROWS and trace.steps % BLOCK_ROWS
    return out, trace


# the figure files and dc_bus.csv, written from _csv_table by write_columns
_FIGURES = tuple(name for name in _OUTPUT_FILES if name.startswith("fig") or name == "dc_bus.csv")


def test_run_writes_each_file_as_its_writer_alone(short_run, tmp_path):
    # with the library, the run writes its files on two threads: each holds
    # the bytes its writer makes on its own, and the manifest lists them in
    # the order of _OUTPUT_FILES
    out, trace = short_run
    report = m.segment_report(trace, settle=0.01)
    alone = tmp_path / "alone"
    alone.mkdir()
    for ph in PHASES:
        write_phase_csv(alone / f"phase_{ph}.csv", trace, ph)
    for name in _FIGURES:
        write_columns(alone / name, *_csv_table(name, trace, report))
    (alone / "summary.txt").write_text(format_summary(report) + "\n")
    _write_record(alone / "trace.bin", trace)
    files = json.loads((out / "run_manifest.json").read_text())["files"]
    assert list(files) == [name for name in _OUTPUT_FILES if name != "run_manifest.json"]
    for name in files:
        assert (out / name).read_bytes() == (alone / name).read_bytes(), name


def test_each_csv_holds_its_table(short_run):
    # every CSV of a run, and no other, has the header of its _csv_table
    # entry, and in each column that column's values as Python's % writes
    # them: fixed text, %.9g for float64 and %d for integers
    out, trace = short_run
    report = m.segment_report(trace, settle=0.01)
    names = [name for name in _OUTPUT_FILES if name.endswith(".csv")]
    assert sorted(path.name for path in out.glob("*.csv")) == sorted(names)
    for name in names:
        header, columns = _csv_table(name, trace, report)
        with (out / name).open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header, name
        want = []
        for col in columns:
            if isinstance(col, str):
                want.append([col] * (len(rows) - 1))
                continue
            col = np.asarray(col)
            fmt = "%.9g" if col.dtype.kind == "f" else "%d"
            want += [[fmt % v for v in field] for field in np.reshape(col, (len(col), -1)).T.tolist()]
        assert [list(field) for field in zip(*rows[1:])] == want, name


class _WriterFailed(Exception):
    pass


@pytest.mark.parametrize(
    "failing, raised",
    [
        (["phase_b.csv"], "phase_b.csv"),
        (["fig6_ac_tracking.csv"], "fig6_ac_tracking.csv"),
        (["trace.bin"], "trace.bin"),
        # one on each thread: the phase files come first
        (["trace.bin", "phase_c.csv"], "phase_c.csv"),
        # one on each thread: the figure files come before summary.txt
        (["summary.txt", "fig7_circulating_current.csv"], "fig7_circulating_current.csv"),
    ],
    ids=["phase", "figures", "record", "both-threads", "summary-after-figures"],
)
def test_writer_failure_ends_the_run_and_no_thread_outlives_it(tmp_path, monkeypatch, failing, raised):
    write_file = cli._write_file

    def fail_some(path, *args):
        if path.name in failing:
            raise _WriterFailed(path.name)
        return write_file(path, *args)

    monkeypatch.setattr(cli, "_write_file", fail_some)
    before = threading.active_count()
    out = tmp_path / "o"
    with pytest.raises(_WriterFailed, match=f"^{re.escape(raised)}$"):
        main(["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(out)])
    assert threading.active_count() == before
    # a failed write ends the run before its manifest is written
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("engine", ["c", "python"])
def test_writers_run_on_two_threads_only_with_the_library(short_run, tmp_path, monkeypatch, engine):
    # with the library, each file is written on its thread of _OUTPUT_FILES,
    # each thread's files in that order; Python's %, the fallback, holds the
    # GIL: without the library every file is written on the calling thread,
    # in the order of _OUTPUT_FILES
    _, trace = short_run
    if engine == "python":
        monkeypatch.setattr(kernel, "_loaded", (None, "no library"))
    elif kernel.library() is None:
        pytest.skip(f"no library: {kernel.engine()[1]}")
    calls = []
    write_file = cli._write_file

    def on_thread(path, *args):
        calls.append((path.name, threading.current_thread().name))
        return write_file(path, *args)

    monkeypatch.setattr(cli, "_write_file", on_thread)
    report = m.segment_report(trace, settle=0.01)
    files = cli._write_outputs(tmp_path, trace, report, format_summary(report))
    main_thread = threading.main_thread().name
    second = main_thread if engine == "python" else "mmcsim-writer"
    want = {**{f"phase_{ph}.csv": main_thread for ph in PHASES}, **dict.fromkeys(_FIGURES, second),
            "summary.txt": main_thread, "trace.bin": second}
    assert list(files) == [name for name in _OUTPUT_FILES if name != "run_manifest.json"]
    assert len(calls) == len(want) and dict(calls) == want
    for thread in set(want.values()):  # the two threads interleave, each in _OUTPUT_FILES order
        assert [name for name, on in calls if on == thread] == [name for name in files if want[name] == thread]


def test_a_writer_thread_that_cannot_start_leaves_the_run_whole(short_run, tmp_path, monkeypatch):
    # a second thread the system refuses is no error: the calling thread
    # writes that thread's files after its own, and every file holds the
    # bytes of a run that had both
    out, _ = short_run

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = tmp_path / "run"
    assert main(["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(got)]) == 0
    files = json.loads((got / "run_manifest.json").read_text())["files"]
    assert list(files.items()) == list(json.loads((out / "run_manifest.json").read_text())["files"].items())
    for name in files:
        assert (got / name).read_bytes() == (out / name).read_bytes(), name


def _cpu():
    """The CPU this thread runs on: field 39 of ``/proc/thread-self/stat``,
    counted after the command name, which may hold spaces."""
    return int(Path("/proc/thread-self/stat").read_text().rsplit(")", 1)[1].split()[39 - 3])


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2, reason="needs Linux and two allowed CPUs"
)
def test_placement_moves_the_writer_thread_off_the_main_threads_cpu(short_run, tmp_path, monkeypatch):
    # right after starting the second thread, the main thread has the library
    # place it off its own CPU.  Thread.start returns only once the new
    # thread runs, so that thread may begin its first file before the call;
    # here it waits for the call, and then writes that file on another CPU
    # than the one the main thread placed it from
    _, trace = short_run
    lib = kernel.library()
    if lib is None:
        pytest.skip(f"no library: {kernel.engine()[1]}")
    placed, excluded, cpus = threading.Event(), [], []
    place, write_file = lib.mmcsim_place_thread, cli._write_file

    def place_and_tell(tid):
        excluded.append(place(tid))
        placed.set()
        return excluded[-1]

    def on_cpu(path, *args):
        if threading.current_thread().name == "mmcsim-writer":
            assert placed.wait(timeout=60)
        cpus.append((path.name, threading.current_thread().name, _cpu()))
        return write_file(path, *args)

    monkeypatch.setattr(lib, "mmcsim_place_thread", place_and_tell)
    monkeypatch.setattr(cli, "_write_file", on_cpu)
    report = m.segment_report(trace, settle=0.01)
    cli._write_outputs(tmp_path, trace, report, format_summary(report))
    (cpu,) = excluded
    first = next(on for name, thread, on in cpus if thread == "mmcsim-writer")
    assert cpu >= 0 and first != cpu


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_run_on_one_cpu_writes_the_same_files(short_run, tmp_path):
    # a process that may use one CPU places no thread, and its run writes
    # the same bytes as one that may use them all
    out, _ = short_run
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from mmcsim.cli import main; sys.exit(main(sys.argv[1:]))")
    got = tmp_path / "run"
    argv = ["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(got)]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    manifest = json.loads((got / "run_manifest.json").read_text())
    assert manifest["engine"] == kernel.engine()[0]
    assert list(manifest["files"]) == list(json.loads((out / "run_manifest.json").read_text())["files"])
    for name in manifest["files"]:
        assert (got / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("engine", ["c", "python"])
def test_full_disk_ends_the_write_naming_the_file(short_run, tmp_path, monkeypatch, engine):
    # every write to /dev/full fails with ENOSPC; the phase file comes
    # first in _OUTPUT_FILES order, and no writer thread outlives the call
    _, trace = short_run
    if engine == "python":
        monkeypatch.setattr(kernel, "_loaded", (None, "no library"))
    elif kernel.library() is None:
        pytest.skip(f"no library: {kernel.engine()[1]}")
    for name in ("phase_b.csv", "fig5_capacitor_voltages.csv"):
        (tmp_path / name).symlink_to("/dev/full")
    report = m.segment_report(trace, settle=0.01)
    before = threading.active_count()
    with pytest.raises(OSError) as raised:
        cli._write_outputs(tmp_path, trace, report, format_summary(report))
    assert (raised.value.errno, raised.value.filename) == (errno.ENOSPC, str(tmp_path / "phase_b.csv"))
    assert threading.active_count() == before


def _run_onto_full_files(out, monkeypatch, names):
    """``mmcsim run --profile fast --duration 0.12`` into ``out`` with each
    of ``names`` a link to /dev/full: put in place after the run removes
    earlier outputs, while the report is summarised.  Its exit code."""
    summarise = cli.format_summary

    def link_then_summarise(report):
        for name in names:
            (out / name).symlink_to("/dev/full")
        return summarise(report)

    monkeypatch.setattr(cli, "format_summary", link_then_summarise)
    return main(["run", "--profile", "fast", "--duration", "0.12", "--out-dir", str(out)])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_run_onto_a_full_disk_fails_naming_the_file(tmp_path, monkeypatch, capsys):
    # the run ends as a diverged one does: the error printed and in the
    # manifest with the stages that ran, and no writer thread left behind
    out = tmp_path / "o"
    before = threading.active_count()
    assert _run_onto_full_files(out, monkeypatch, ["fig6_ac_tracking.csv"]) == 1
    assert threading.active_count() == before
    error = f"cannot write {out / 'fig6_ac_tracking.csv'}: {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"error: {error}\n"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["error"] == error
    assert list(manifest["stage_seconds"]) == ["build", "simulate", "report", "write"]
    assert "files" not in manifest and "phase_steps_per_s" not in manifest
    with pytest.raises(ConfigError, match=re.escape(error)):
        load_run(out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "names",
    [["summary.txt", "run_manifest.json"], ["trace.bin", "run_manifest.json"], ["run_manifest.json"]],
    ids=["summary", "record", "manifest-alone"],
)
def test_unwritable_manifest_does_not_hide_the_first_error(tmp_path, monkeypatch, capsys, names):
    # each file that could not be written is named, in order, the manifest
    # last; a write or close of an open file names its file too
    out = tmp_path / "o"
    assert _run_onto_full_files(out, monkeypatch, names) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {out / name}: {os.strerror(errno.ENOSPC)}" for name in names
    ]


def test_load_run_round_trips_across_blocks(short_run):
    out, trace = short_run
    _assert_same_trace(load_run(out), trace)


def test_trace_times_are_one_read_only_array(short_run):
    # a run's trace, a loaded one and one built by hand each hold t as
    # (k+1) * t_s, computed once when the trace is built; no writer can
    # change it
    out, trace = short_run
    for got in (trace, load_run(out), _synthetic_trace(BLOCK_ROWS + 3)):
        want = np.arange(1, got.steps + 1) * got.config.params.t_s
        assert got.t.dtype == np.float64 and got.t.tobytes() == want.tobytes()
        assert not got.t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.t[0] = 0.0


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-row-short", "one-row-long"])
def test_load_run_rejects_wrong_row_count(tmp_path, short_run, extra):
    # the manifest's config one step shorter or longer than the record
    out = tmp_path / "run"
    shutil.copytree(short_run[0], out)
    path = out / "run_manifest.json"
    manifest = json.loads(path.read_text())
    steps = short_run[1].steps
    duration = (steps + extra) * 25e-6
    manifest["config"].update(duration=duration, warmup=0.0, nsw_schedule=[[0.0, duration, 6]])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=re.escape(
        f"trace.bin: currents record holds <f8 ({steps}, 2, 3) in C order, "
        f"the config expects <f8 ({steps + extra}, 2, 3) in C order"
    )):
        load_run(out)


def test_load_run_takes_references_from_config(tmp_path, short_run):
    # the CSVs are not read: an edited i_ref or v_s field changes neither the
    # references nor the tracking error
    out, trace = tmp_path / "run", short_run[1]
    shutil.copytree(short_run[0], out)
    _edit_field(out / "phase_a.csv", 167, 2, "0")  # i_ref near its peak, t = 4.175 ms
    _edit_field(out / "phase_a.csv", 167, 5, "0")  # v_s
    loaded = load_run(out)
    for ph in PHASES:
        for name in ("i_ref", "v_grid"):
            assert np.array_equal(getattr(loaded.phase(ph), name), getattr(trace.phase(ph), name)), name
    tracking = [seg.tracking_rmse_pct for tr in (loaded, trace) for seg in m.segment_report(tr, settle=0.0)]
    assert len(tracking) == 2 and np.array_equal(*tracking)


@pytest.mark.parametrize("name", ["run_manifest.json", "trace.bin"])
def test_load_run_names_missing_file(tmp_path, short_run, name):
    # a directory written before trace.bin existed fails this way
    out = tmp_path / "run"
    shutil.copytree(short_run[0], out)
    (out / name).unlink()
    with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(out / name))}: No such file"):
        load_run(out)


def _synthetic_trace(steps, n=6, budgets=None):
    # budgets, one per step, become a schedule of one-step segments
    span = steps * 25e-6
    schedule = m.constant_schedule(span, n) if budgets is None else m.NswSchedule(tuple(
        (k * 25e-6, (k + 1) * 25e-6, budget) for k, budget in enumerate(budgets)
    ))
    cfg = m.fast_config(params=m.SystemParams(n=n), duration=span, warmup=0.0,
                        nsw_schedule=schedule)
    rng = np.random.default_rng(steps)
    n2 = 2 * n
    phase = PhaseTrace(
        i_ac=rng.normal(size=steps), i_ref=rng.normal(size=steps),
        i_circ=rng.normal(size=steps), v_grid=rng.normal(size=steps),
        v_c=rng.normal(1e4, 1e2, size=(steps, n2)),
        u=rng.integers(0, 2, size=(steps, n2), dtype=np.int8),
    )
    return SimTrace(config=cfg, v_dc=np.full(steps, 60e3), phases={"a": phase})


def test_write_phase_csv_memory_does_not_grow_with_rows(tmp_path, monkeypatch):
    # tracemalloc sees numpy's and Python's heap, not the library's malloc,
    # so this measures the fallback; the next test measures the library
    monkeypatch.setattr(kernel, "_loaded", (None, "no library"))
    peaks = {}
    for steps in (5_000, 50_000):
        trace = _synthetic_trace(steps)
        tracemalloc.start()
        try:
            write_phase_csv(tmp_path / f"phase_{steps}.csv", trace, "a")
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the single-pass writer's peak grew about tenfold
    assert peaks[50_000] < 1.5 * peaks[5_000], peaks


# a child process writes a million rows of 13 fields, stride-0 columns that
# take no memory, to os.devnull by the library, after a write of ten rows,
# and prints the growth of its peak resident set in KB, or exits 3 when it
# has no library
_LIBRARY_WRITE_GROWTH = """
import os, resource, sys
from pathlib import Path
import numpy as np
from mmcsim import kernel
from mmcsim.csvtext import write_columns

if kernel.library() is None:
    sys.exit(3)
def write(rows):
    columns = [np.broadcast_to(0.1, (rows,)), "a", np.broadcast_to(np.linspace(1e4, 2e4, 5), (rows, 5)),
               np.broadcast_to(np.int8(1), (rows, 6))]
    write_columns(Path(os.devnull), [f"c{k}" for k in range(13)], columns)
write(10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
write(1_000_000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KB is Linux's")
def test_library_writer_memory_does_not_grow_with_rows():
    # the library formats a block of rows at a time into one buffer it
    # allocates, and the peak does not move; a library called with the whole
    # file as one block, 49 MB of text, grew it by 25 MB
    if kernel.library() is None:
        pytest.skip(f"no library: {kernel.engine()[1]}")
    done = subprocess.run([sys.executable, "-c", _LIBRARY_WRITE_GROWTH], env=_child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "the child found no library"
    assert int(done.stdout) < 8_000, f"peak grew by {done.stdout.strip()} KB"


# ------------------------------------------- phase and figure text, oracle

def _write_phase_csv_as_floats(path, trace, phase):
    """The phase writer before statuses and budgets were written as ints,
    kept as the oracle: every column stacked as float64, ``%d`` applied to
    the floats, ``t`` taken from ``SimTrace.t``."""
    tr = trace.phase(phase)
    n2 = tr.v_c.shape[1]
    header = (
        ["t", "phase", "i_ref", "i", "i_z", "v_s", "nsw_max"]
        + [f"vC_{k + 1}" for k in range(n2)]
        + [f"u_{k + 1}" for k in range(n2)]
    )
    columns = [trace.t, tr.i_ref, tr.i_ac, tr.i_circ, tr.v_grid, trace.n_sw_max, tr.v_c, tr.u]
    fmt = ",".join(["%.9g", phase] + ["%.9g"] * 4 + ["%d"] + ["%.9g"] * n2 + ["%d"] * n2)
    return _write_columns_single_pass(path, header, columns, fmt)


def _phase_figs_as_floats(out, trace):
    """fig5 to fig7 and dc_bus.csv as one `%` per row writes them, from the
    trace."""
    tr = trace.phase("a")
    n2 = tr.v_c.shape[1]
    tables = {
        "fig5_capacitor_voltages.csv": (
            ["t"] + [f"vC_{k + 1}" for k in range(n2)], [trace.t, tr.v_c],
            ",".join(["%.9g"] * (1 + n2)),
        ),
        "fig6_ac_tracking.csv": (["t", "i_ref", "i"], [trace.t, tr.i_ref, tr.i_ac], "%.9g,%.9g,%.9g"),
        "fig7_circulating_current.csv": (["t", "i_z"], [trace.t, tr.i_circ], "%.9g,%.9g"),
        "dc_bus.csv": (["t", "v_dc"], [trace.t, trace.v_dc], "%.9g,%.9g"),
    }
    out.mkdir()
    for name, (header, columns, fmt) in tables.items():
        _write_columns_single_pass(out / name, header, columns, fmt)
    return sorted(tables)


# n = 10 and 12 write two-digit budgets; a config has at least one step
@pytest.mark.parametrize("n", [1, 4, 5, 9, 10, 12])
@pytest.mark.parametrize(
    "rows", [1, BLOCK_ROWS, 3 * BLOCK_ROWS + 17],
    ids=["one-row", "one-block", "partial-last-block"],
)
def test_phase_csv_and_figures_match_float_writer(tmp_path, n, rows):
    trace = _synthetic_trace(rows, n, np.random.default_rng(n).integers(0, n + 1, rows).tolist())
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    assert write_phase_csv(new / "phase_a.csv", trace, "a") == rows
    assert _write_phase_csv_as_floats(tmp_path / "phase_a.csv", trace, "a") == rows
    assert (new / "phase_a.csv").read_bytes() == (tmp_path / "phase_a.csv").read_bytes()

    names = _phase_figs_as_floats(old, trace)
    # an empty report: fig4 holds its header alone
    written = {name: write_columns(new / name, *_csv_table(name, trace, [])) for name in _FIGURES}
    assert written == {"fig4_switching_frequency.csv": 0, **dict.fromkeys(names, rows)}
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_piline_v1f2_run_matches_float_writer(tmp_path):
    out = tmp_path / "run"
    argv = ["run", "--profile", "fast", "--dc-model", "piline", "--algorithm", "v1f2",
            "--duration", "0.12", "--out-dir", str(out)]
    assert main(argv) == 0
    loaded = load_run(out)
    trace = m.run_scenario(loaded.config)
    assert trace.steps > 2 * BLOCK_ROWS and trace.steps % BLOCK_ROWS
    # the pi-line bus voltage varies, and comes back exactly
    assert np.ptp(trace.v_dc) > 0
    _assert_same_trace(loaded, trace)
    for ph in PHASES:
        _write_phase_csv_as_floats(tmp_path / f"phase_{ph}.csv", trace, ph)
        assert (out / f"phase_{ph}.csv").read_bytes() == (tmp_path / f"phase_{ph}.csv").read_bytes()
    # dc_bus.csv among them: the pi-line bus voltage, as plotted
    names = _phase_figs_as_floats(tmp_path / "figs", trace)
    assert "dc_bus.csv" in names
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "figs" / name).read_bytes(), name
    files = json.loads((out / "run_manifest.json").read_text())["files"]
    assert files["dc_bus.csv"] == {"rows": trace.steps}


@pytest.mark.parametrize("index, value", [((3, 1), 2), ((0, 0), -1)], ids=["status-2", "status-minus-1"])
def test_write_phase_csv_rejects_before_opening(tmp_path, index, value):
    trace = _synthetic_trace(10)
    trace.phase("a").u[index] = value
    path = tmp_path / "phase_a.csv"
    with pytest.raises(ValueError, match="phase_a.csv: statuses"):
        write_phase_csv(path, trace, "a")
    assert not path.exists()


def test_write_phase_csv_rejects_unknown_phase(tmp_path, short_run):
    path = tmp_path / "phase_d.csv"
    with pytest.raises(ValueError, match=re.escape("phase must be one of ('a', 'b', 'c'), got 'd'")):
        write_phase_csv(path, short_run[1], "d")
    assert not path.exists()


# ------------------------------------------------- load_run validation

def _with_field(line, column, value):
    fields_ = line.split(b",")
    fields_[column] = value
    return b",".join(fields_)


def _edit_field(path, row, column, value):
    """Set one field of a CSV data row (row 1 follows the header)."""
    lines = path.read_bytes().split(b"\r\n")
    lines[row] = _with_field(lines[row], column, value.encode())
    path.write_bytes(b"\r\n".join(lines))


def _rewrite_record(out, edit):
    """Read ``trace.bin``'s blocks, let ``edit`` change the dict of them and
    write them back with ``np.save``."""
    path = out / "trace.bin"
    with path.open("rb") as fh:
        blocks = {name: np.load(fh) for name in ("currents", "v_c", "u", "v_dc")}
        assert fh.read() == b""
    edit(blocks)
    with path.open("wb") as fh:
        for block in blocks.values():
            np.save(fh, block)


def _set_value(name, index, value):
    def edit(out):
        _rewrite_record(out, lambda blocks: blocks[name].__setitem__(index, value))
    return edit


def _set_budget(value):
    def edit(out):
        path = out / "run_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["nsw_schedule"][0][2] = value
        path.write_text(json.dumps(manifest))
    return edit


def _set_schedule(segments):
    def edit(out):
        path = out / "run_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["nsw_schedule"] = segments
        path.write_text(json.dumps(manifest))
    return edit


def _half_status(out):
    # int8 cannot hold 0.5: a record that does is a float one
    def edit(blocks):
        u = blocks["u"].astype(np.float64)
        u[5, 0, 7] = 0.5
        blocks["u"] = u
    _rewrite_record(out, edit)


@pytest.mark.parametrize(
    "edit, match",
    [
        (_set_value("u", (7, 1, 3), 2), "trace.bin: u[7, 1, 3] is not a status 0 or 1, got 2"),
        (_set_value("u", (2, 1, 11), -1), "trace.bin: u[2, 1, 11] is not a status 0 or 1, got -1"),
        # the short run has 4800 steps
        (_half_status, "trace.bin: u record holds <f8 (4800, 3, 12) in C order, "
                       "the config expects |i1 (4800, 3, 12) in C order"),
        # a completed run records no non-finite value: SimulationDiverged ends it first
        (_set_value("v_c", (700, 2, 1), np.nan), "trace.bin: v_c[700, 2, 1] is not finite, got nan"),
        (_set_value("currents", (700, 0, 2), np.inf), "trace.bin: currents[700, 0, 2] is not finite, got inf"),
        (_set_value("v_dc", 9, np.nan), "trace.bin: v_dc[9] is not finite, got nan"),
        (_set_value("v_dc", 2000, 0.0), "trace.bin: v_dc[2000] is not > 0, got 0"),
        # the budgets are the manifest schedule's; no file holds another copy
        (_set_budget(6.7), "run_manifest.json: config.nsw_schedule[0]: expected int, got 6.7"),
        (_set_budget(7), "run_manifest.json: nsw_schedule: segment 0 has n_sw_max=7, outside [0, 6]"),
        (_set_budget(-1), "run_manifest.json: nsw_schedule: segment 0 has n_sw_max=-1, outside [0, 6]"),
        # two segments that both claim the steps of (0.03, 0.04], with budgets 6 and 2
        (_set_schedule([[0.0, 0.04, 6], [0.03, 0.06, 2]]),
         "run_manifest.json: nsw_schedule: segment 1 starts at 0.03, expected 0.04"),
    ],
    ids=["status-2", "status-minus-1", "status-half", "nan-vC", "inf-i", "nan-v_dc", "zero-v_dc",
         "budget-6.7", "budget-above-n", "budget-negative", "budgets-disagree"],
)
def test_load_run_rejects_bad_statuses_and_budgets(tmp_path, short_run, edit, match):
    out = tmp_path / "run"
    shutil.copytree(short_run[0], out)
    edit(out)
    with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
        load_run(out)


def test_load_run_checks_file_size_before_allocating(tmp_path, short_run):
    # 4e10 steps: the blocks of that many steps would take terabytes
    out = tmp_path / "run"
    shutil.copytree(short_run[0], out)
    path = out / "run_manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"].update(duration=1e6, nsw_schedule=[[0.0, 1e6, 6]])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="^trace.bin is too small to hold the 40000000000 steps"):
        load_run(out)


def _truncate(out, nbytes):
    path = out / "trace.bin"
    path.write_bytes(path.read_bytes()[:-nbytes])


def _append(out, data):
    with (out / "trace.bin").open("ab") as fh:
        fh.write(data)


def _zero_fill(out):
    path = out / "trace.bin"
    path.write_bytes(bytes(path.stat().st_size))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda out: _truncate(out, 8), r"v_dc record is short: \d+ of \d+ bytes"),
        (lambda out: _append(out, b"\0"), "trailing bytes after the v_dc record"),
        (lambda out: _rewrite_record(out, lambda b: b.update(u=b["u"].view(np.uint8))),
         r"u record holds \|u1 \(\d+, 3, 12\) in C order, the config expects \|i1 \(\d+, 3, 12\) in C order"),
        (lambda out: _rewrite_record(out, lambda b: b.update(v_dc=b["v_dc"].astype(">f8"))),
         r"v_dc record holds >f8 \(\d+,\) in C order, the config expects <f8"),
        (lambda out: _rewrite_record(out, lambda b: b.update(v_c=b["v_c"].reshape(len(b["v_c"]), -1))),
         r"v_c record holds <f8 \(\d+, 36\) in C order, the config expects <f8 \(\d+, 3, 12\)"),
        (lambda out: _rewrite_record(out, lambda b: b.update(v_c=np.asfortranarray(b["v_c"]))),
         r"v_c record holds <f8 \(\d+, 3, 12\) in Fortran order"),
        (lambda out: _zero_fill(out), r"currents record: bad header: "),
    ],
    ids=["truncated", "trailing-bytes", "wrong-dtype", "big-endian", "wrong-shape", "fortran-order",
         "not-npy"],
)
def test_load_run_rejects_malformed_record(tmp_path, short_run, edit, match):
    out = tmp_path / "run"
    shutil.copytree(short_run[0], out)
    edit(out)
    with pytest.raises(ConfigError, match=f"^trace.bin: {match}"):
        load_run(out)


def _config_edit(edit):
    """A manifest edit that changes the config in place."""
    def apply(manifest):
        edit(manifest["config"])
        return json.dumps(manifest)
    return apply


@pytest.mark.parametrize(
    "edit, match",
    [
        (_config_edit(lambda c: c["params"].update(n="6")),
         "config.params.n: expected int, got '6'"),
        (_config_edit(lambda c: c.update(duration="0.06")),
         "config.duration: expected float, got '0.06'"),
        (_config_edit(lambda c: c["nsw_schedule"][0].pop()),
         r"config.nsw_schedule\[0\]: expected \[t_start, t_end, n_sw_max\], got \[0.0, 0.12\]"),
        (lambda mf: json.dumps({k: v for k, v in mf.items() if k != "config"}),
         "expected an object with a 'config' key, got no 'config' key"),
        (lambda mf: json.dumps([mf]), "expected an object with a 'config' key, got list"),
        (lambda mf: json.dumps(mf)[:-1], "not valid JSON: Expecting ',' delimiter: .*"),
    ],
    ids=["n-string", "duration-string", "segment-two-fields", "no-config", "list", "not-json"],
)
def test_load_run_names_bad_manifest_key(tmp_path, short_run, edit, match):
    out = tmp_path / "run"
    shutil.copytree(short_run[0], out)
    path = out / "run_manifest.json"
    path.write_text(edit(json.loads(path.read_text())))
    with pytest.raises(ConfigError, match=f"^run_manifest.json: {match}$"):
        load_run(out)


def test_manifest_stage_timings(short_run, tmp_path):
    out = short_run[0]
    manifest = json.loads((out / "run_manifest.json").read_text())
    stages = manifest["stage_seconds"]
    assert list(stages) == ["build", "simulate", "report", "write"]
    for value in (*stages.values(), manifest["phase_steps_per_s"]):
        assert np.isfinite(value) and value >= 0
    assert manifest["phase_steps_per_s"] > 0
    # the engine that ran, and a note only where there is something to say
    name, note = kernel.engine()
    assert manifest["engine"] == name and manifest.get("engine_note") == note

    # load_run reads only the config: dropping the timings changes nothing
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    del manifest["stage_seconds"], manifest["phase_steps_per_s"], manifest["engine"]
    (copy / "run_manifest.json").write_text(json.dumps(manifest))
    a, b = load_run(out), load_run(copy)
    assert np.array_equal(a.n_sw_max, b.n_sw_max)
    for ph in PHASES:
        assert np.array_equal(a.phase(ph).u, b.phase(ph).u)
        assert np.array_equal(a.phase(ph).v_c, b.phase(ph).v_c)


def _child_env():
    """The environment of a child process that imports this checkout's
    ``mmcsim``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_mmcsim(tmp_path):
    # the module entry point in a child process; under python -O the child
    # runs without assert statements too
    env = _child_env()
    run = [sys.executable, *(["-O"] if sys.flags.optimize else []), "-m", "mmcsim", "run"]
    out = tmp_path / "out"
    done = subprocess.run([*run, "--profile", "fast", "--duration", "0.12", "--out-dir", str(out)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "run_manifest.json").read_text())["config"]["duration"] == 0.12
    done = subprocess.run([*run, "--config", str(tmp_path), "--out-dir", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "cannot read config file" in done.stderr


def test_importing_cli_loads_no_formatter():
    # the writers import csvtext on first use, so code that imports the CLI
    # but writes no CSV does not pay for it, nor for a thread pool's
    # imports; the child's exit code carries the check, which holds under
    # python -O too
    code = ("import sys, mmcsim.cli; "
            "sys.exit(3 if {'mmcsim.csvtext', 'concurrent.futures'} & set(sys.modules) else 0)")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "importing mmcsim.cli loaded mmcsim.csvtext or concurrent.futures"
