"""Config parsing, output files, and the end-to-end command."""
import argparse
import csv
import json
from dataclasses import fields

import numpy as np
import pytest

import mmcsim as m
from mmcsim.cli import (
    ConfigError, build_config, format_summary, load_run, main, parse_config,
)


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
    from_flag = build_config(_flags(duration=0.5))
    assert from_file == from_flag
    assert from_file.warmup == 0.5
    assert from_file.nsw_schedule.segments == ((0.0, 0.5, 6),)

    # --duration on top of a schedule written in the file fits that schedule
    path.write_text("schedule.segments = 0:1.3:2, 1.3:2.6:5\n")
    cfg = build_config(_flags(config=str(path), duration=1.0))
    assert cfg.nsw_schedule.segments == ((0.0, 1.0, 2),)
    assert cfg.warmup == 1.0


def test_run_command_fast_profile(tmp_path, fast_v1fc_trace):
    out = tmp_path / "out"
    rc = main(["run", "--profile", "fast", "--out-dir", str(out)])
    assert rc == 0

    manifest = json.loads((out / "run_manifest.json").read_text())
    for name, meta in manifest["files"].items():
        assert (out / name).exists(), name
    steps = fast_v1fc_trace.steps
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

    # the CLI run is deterministic, so it must reproduce the fixture trace
    loaded = load_run(out)
    fixt = fast_v1fc_trace
    as_written = np.vectorize(lambda x: float(f"{x:.9g}"))
    for ph in "abc":
        assert np.array_equal(loaded.phase(ph).u, fixt.phase(ph).u)
        for name in ("i_ref", "i_ac", "i_circ", "v_grid", "v_c"):
            got = getattr(loaded.phase(ph), name)
            assert np.array_equal(got, as_written(getattr(fixt.phase(ph), name))), name
        assert np.array_equal(
            loaded.phase(ph).switches_upper, fixt.phase(ph).switches_upper
        )

    # round trip: metrics recomputed from the CSVs match the summary
    rep_fixture = m.segment_report(fixt, settle=0.01)
    rep_loaded = m.segment_report(loaded, settle=0.01)
    for a, b in zip(rep_fixture, rep_loaded):
        assert np.array_equal(a.f_s_per_sm, b.f_s_per_sm)  # counts are exact
        assert np.allclose(a.ripple_pct, b.ripple_pct, rtol=1e-6)
        assert np.allclose(a.izm_ratio_pct, b.izm_ratio_pct, rtol=1e-6)
        assert np.allclose(a.tracking_rmse_pct, b.tracking_rmse_pct, rtol=1e-6)
    assert format_summary(rep_loaded) == format_summary(rep_fixture)


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


def test_run_command_divergence_exit_code(tmp_path):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(
        """
        scenario.dc_model = piline
        scenario.duration = 0.01
        scenario.warmup = 0.0
        line.length_km = 1.0
        line.c_per_km = 1e-12
        line.l_per_km = 1e-12
        schedule.segments = 0:0.01:6
        """
    )
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_cli_rejects_unknown_algorithm_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--algorithm", "foo", "--out-dir", str(tmp_path / "o")])
