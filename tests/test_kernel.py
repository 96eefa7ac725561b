"""The compiled step kernel: where it comes from, and the Python code
taking over, with the manifest saying why, whenever it cannot be had; the
errors and records of its two threads.  Its records are checked against
the scalar loop's in test_scenario.py and test_fuzz.py."""
import ctypes
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import types
from importlib import resources

import numpy as np
import pytest

import mmcsim as m
from mmcsim import kernel
from mmcsim.cli import main
from mmcsim.scenario import _run_scalar
from test_cli import _child_env


def _compiler():
    """The compiler command the kernel would use, or None when it is not
    on PATH."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    return cc if cc and shutil.which(cc[0]) else None


needs_cc = pytest.mark.skipif(_compiler() is None, reason="no C compiler on PATH")
# the library places a second thread only on Linux, and only off a CPU when
# another is allowed
needs_two_cpus = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2, reason="needs Linux and two allowed CPUs"
)


def test_kernel_source_is_package_data():
    assert (resources.files("mmcsim") / "_step.c").is_file()


def test_kernel_builds_when_cc_present():
    # fails rather than skips: with a compiler present, a suite that passed
    # on the Python fallback alone would leave the kernel untested
    if _compiler() is None:
        pytest.skip(f"no C compiler: CC={os.environ.get('CC', 'cc')!r}")
    assert kernel.library() is not None, kernel.engine()[1]
    assert kernel.engine()[0] == "c"


def test_importing_mmcsim_loads_no_kernel():
    # the kernel is built and loaded by the first run, never by an import;
    # the child's exit code carries the check, which holds under python -O
    code = "import sys, mmcsim, mmcsim.cli; sys.exit(3 if 'mmcsim.kernel' in sys.modules else 0)"
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "importing mmcsim loaded mmcsim.kernel"


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A process in which the kernel has not been looked for yet, with a
    cache directory and a temporary directory under ``tmp_path``; the real
    kernel comes back after the test."""
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


def _run_manifest(out):
    """``mmcsim run`` on the fast profile for 0.02 s without warm-up into
    ``out``: 800 steps, so two blocks of CSV rows.  Its manifest."""
    config = out.with_suffix(".cfg")
    config.write_text("scenario.warmup = 0\n")
    argv = ["run", "--profile", "fast", "--config", str(config), "--duration", "0.02", "--out-dir", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["files"]["phase_a.csv"]["rows"] == 800
    return manifest


def test_missing_compiler_runs_python_engine(fresh, monkeypatch, capsys):
    cc = fresh / "nonexistent" / "cc"
    monkeypatch.setenv("CC", str(cc))
    manifest = _run_manifest(fresh / "out")
    assert manifest["engine"] == "python"
    assert manifest["engine_note"].startswith(f"no compiler: {cc} (")
    assert "\n" not in manifest["engine_note"]
    assert not (fresh / "cache").exists()


@needs_cc
@pytest.mark.parametrize("where", ["unwritable", "none"])
def test_unwritable_cache_dir_builds_in_a_temporary_directory(fresh, monkeypatch, capsys, where):
    if where == "unwritable":
        # a file where the cache directory's parent should be
        (fresh / "cache").write_text("")
        why = f"cache directory {fresh / 'cache' / 'mmcsim'} is not writable (Not a directory)"
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", "relative")
        why = "no cache directory, as neither $XDG_CACHE_HOME nor the home directory is an absolute path"
    manifest = _run_manifest(fresh / "out")
    assert manifest["engine"] == "c"
    assert manifest["engine_note"] == f"{why}; built in a temporary directory"
    # the private directory is gone once the library is loaded
    assert list((fresh / "tmp").iterdir()) == []


@needs_cc
def test_build_failure_runs_python_engine(fresh, monkeypatch, capsys):
    monkeypatch.setenv("CC", " ".join([*_compiler(), "-include", str(fresh / "missing.h")]))
    manifest = _run_manifest(fresh / "out")
    assert manifest["engine"] == "python"
    # the compiler's first error line
    assert re.match(r"^build failed: .* exited 1: .*error.*missing\.h", manifest["engine_note"])
    assert "\n" not in manifest["engine_note"]
    # no half-built file is left behind
    assert list((fresh / "cache" / "mmcsim").iterdir()) == []


@needs_cc
@pytest.mark.skipif(shutil.which("sed") is None, reason="no sed")
def test_self_check_mismatch_runs_python_engine(fresh, monkeypatch, capsys):
    # a compiler that changes one float operation: the selection's circulating
    # term is weighted twice, so the kernel picks other cells than the scan
    wrapper = fresh / "cc-wrapper"
    wrapper.write_text(
        "#!/bin/sh\n"
        "sed 's/w_circ \\* fabs/2.0 * w_circ * fabs/' | " + shlex.join(_compiler()) + ' "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    manifest = _run_manifest(fresh / "out")
    assert manifest["engine"] == "python"
    assert manifest["engine_note"].startswith("self-check mismatch")
    # a library that failed its check is not cached
    assert list((fresh / "cache" / "mmcsim").iterdir()) == []


@needs_cc
@pytest.mark.skipif(shutil.which("sed") is None, reason="no sed")
@pytest.mark.parametrize(
    "edit, what",
    [
        # the last bit of every reference sine
        ("s/out\\[i\\] = sin(x\\[i\\]);/out[i] = sin(x[i]) * (1.0 + 0x1p-52);/",
         "the library's reference sines differ from math.sin's"),
        # no tie margin: a scaled value at exactly .5 rounds to even, whichever
        # side of the decimal tie the float lies on
        ("s/< 0.5 - G9_TIE/<= 0.5/", "the library's CSV text differs from Python's %"),
        # each column read as if contiguous, 8 bytes a row
        ("s/(uint64_t)r \\* (uint64_t)col\\[2\\]/(uint64_t)r * 8u/",
         "the library's CSV text differs from Python's %"),
        # each column read from the row's index within its block, not
        # within the table
        ("s/(uint64_t)r \\*/(uint64_t)(r % block_rows) */", "the library's CSV text differs from Python's %"),
    ],
    ids=["sines", "tie-margin", "stride", "row-index"],
)
def test_self_check_mismatch_names_what_differs(fresh, monkeypatch, capsys, edit, what):
    want = _run_manifest(fresh / "want")
    assert want["engine"] == "c"
    # a compiler that changes one line of the source
    wrapper = fresh / "cc-wrapper"
    wrapper.write_text(
        "#!/bin/sh\n"
        f"sed {shlex.quote(edit)} | " + shlex.join(_compiler()) + ' "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    monkeypatch.setattr(kernel, "_loaded", None)
    manifest = _run_manifest(fresh / "out")
    assert manifest["engine"] == "python"
    assert manifest["engine_note"] == f"self-check mismatch: {what}"
    # the Python engine and writer give the same files
    for path in (fresh / "want").iterdir():
        if path.name != "run_manifest.json":
            assert (fresh / "out" / path.name).read_bytes() == path.read_bytes(), path.name


@needs_cc
def test_cache_holds_one_checked_library(fresh, monkeypatch):
    lib, note = kernel._load()
    assert lib is not None and note is None
    (cached,) = (fresh / "cache" / "mmcsim").iterdir()
    assert cached.name.startswith("_step-") and cached.suffix == ".so"
    # a second process loads it without building, or starting any child
    # process to name it
    monkeypatch.setattr(kernel, "_build", lambda *args: pytest.fail("built again"))
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail(f"ran {args[0]}"))
    lib, note = kernel._load()
    assert lib is not None and note is None
    monkeypatch.undo()
    # a damaged file is built again, and replaced; in another cache
    # directory, as the loader knows the first file's path
    damaged = fresh / "other" / "mmcsim" / cached.name
    damaged.parent.mkdir(parents=True)
    damaged.write_bytes(b"not a library")
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh / "other"))
    lib, note = kernel._load()
    assert lib is not None and note is None
    assert list(damaged.parent.iterdir()) == [damaged]
    assert damaged.read_bytes() == cached.read_bytes()


# ------------------------------------------------ the legs on two threads

def _overflowing_grid(degrees, v_s_peak):
    """Twelve steps against a grid voltage near the largest float, at a
    grid frequency that advances the sines ``degrees`` a step, so that the
    legs overflow on different early steps."""
    return m.ScenarioConfig(params=m.SystemParams(f_grid=degrees / 360.0 / 25e-6), v_s_peak=v_s_peak,
                            duration=0.0003, warmup=0.0, nsw_schedule=m.constant_schedule(0.0003, 6))


# each case's first diverging step of each leg, by the scalar functions
# stepping the legs one at a time: b-first (2, 1, 4), c-first (2, 4, 1),
# a-and-b (1, 1, 4), b-and-c-after-hand-over (none, 7, 7), counting from
# 0; leg c is handed over to the worker at step 6
_SPLIT_DIVERGENCES = pytest.mark.parametrize(
    "config, phase",
    [(_overflowing_grid(30, 1e308), "b"), (_overflowing_grid(330, 1e308), "c"),
     (_overflowing_grid(30, 1.5e308), "a"), (_overflowing_grid(1, 2.8e307), "b")],
    ids=["b-first", "c-first", "a-and-b", "b-and-c-after-hand-over"],
)


def _assert_scalar_error(lib, config, phase):
    """The library's run of ``config`` raises the scalar loop's error, which
    names ``phase``; its message."""
    with pytest.raises(m.SimulationDiverged, match=f"^phase {phase} diverged at step ") as want:
        _run_scalar(config)
    with pytest.raises(m.SimulationDiverged) as got:
        kernel.run(lib, config)
    assert str(got.value) == str(want.value)
    return str(got.value)


@_SPLIT_DIVERGENCES
def test_split_run_reports_the_scalar_loops_first_diverging_leg(config, phase):
    # the worker thread steps leg a and then leg c's second half, the
    # calling thread c's first half and then leg b; the first to diverge in
    # step-major order is reported, the lower phase on a tie
    if kernel.library() is None:
        pytest.skip(f"no step kernel: {kernel.engine()[1]}")
    _assert_scalar_error(kernel.library(), config, phase)


def test_leg_c_stopped_before_the_hand_over_is_not_restarted(monkeypatch):
    # forty steps: leg c diverges on step 18, before the hand-over at step
    # 20, leg a on step 33 and leg b never (the scalar functions stepping
    # each leg alone).  mmcsim_run is called on record blocks filled with
    # a sentinel; the worker, done with leg a, must leave leg c's rows from
    # the hand-over on as they were
    lib = kernel.library()
    if lib is None:
        pytest.skip(f"no step kernel: {kernel.engine()[1]}")
    config = m.ScenarioConfig(params=m.SystemParams(f_grid=358 / 360.0 / 25e-6), v_s_peak=1e307,
                              duration=0.001, warmup=0.0, nsw_schedule=m.constant_schedule(0.001, 6))
    assert config.steps == 40
    blank, traces = kernel._blank_trace, []

    def sentinel_trace(*args):
        trace, refs = blank(*args)
        for block in trace.record.values():
            block.fill(-7)
        traces.append(trace)
        return trace, refs

    monkeypatch.setattr(kernel, "_blank_trace", sentinel_trace)
    assert _assert_scalar_error(lib, config, "c").startswith("phase c diverged at step 19 ")
    record = traces[0].record
    for name in ("currents", "v_c", "u"):
        leg = np.moveaxis(record[name], 2 if name == "currents" else 1, 0)
        assert (leg[2, :19] != -7).all() and (leg[2, 19:] == -7).all(), name
        assert (leg[1] != -7).all(), name
        assert (leg[0, :34] != -7).all() and (leg[0, 34:] == -7).all(), name


def test_runs_from_four_threads_give_their_sequential_records():
    # four runs at once, each with its own worker thread, on two stiff
    # configs, a pi-line one and one that diverges
    lib = kernel.library()
    if lib is None:
        pytest.skip(f"no step kernel: {kernel.engine()[1]}")
    configs = [
        m.fast_config("v1fc", duration=0.05, warmup=0.0, nsw_schedule=m.constant_schedule(0.05, 0)),
        m.fast_config("v1f2", duration=0.05, warmup=0.0, nsw_schedule=m.constant_schedule(0.05, 6)),
        m.fast_config("v1fc", dc_model="piline", duration=0.05, warmup=0.0,
                      nsw_schedule=m.constant_schedule(0.05, 2)),
        _overflowing_grid(330, 1e308),
    ]

    def outcome(config):
        try:
            return kernel.run(lib, config).record
        except m.SimulationDiverged as exc:
            return str(exc)

    want = [outcome(config) for config in configs]
    got = [None] * len(configs)
    start = threading.Barrier(len(configs))

    def run(k):
        start.wait(timeout=60)
        got[k] = outcome(configs[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert isinstance(want[3], str) and want[3].startswith("phase c diverged")
    for k, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, str):
            assert a == b, k
        else:
            assert list(a) == list(b) and all(a[name].tobytes() == b[name].tobytes() for name in b), k


def _cpus(lib, config):
    """``kernel.run`` of ``config`` on ``lib``: the CPUs ``mmcsim_run``
    reports that the calling thread and the worker started stepping on,
    -1 for none."""
    cpus = []

    def run(*args):
        code = lib.mmcsim_run(*args)
        cpus.extend((ctypes.c_int64 * 4).from_address(args[-2])[2:])  # where, still alive in kernel.run
        return code

    kernel.run(types.SimpleNamespace(mmcsim_sin=lib.mmcsim_sin, mmcsim_run=run), config)
    return cpus


_STIFF = m.fast_config("v1fc", duration=0.02, warmup=0.0, nsw_schedule=m.constant_schedule(0.02, 2))


@needs_two_cpus
def test_placement_starts_the_worker_off_the_callers_cpu():
    # on Linux a new thread would wait behind its starter on the starter's
    # CPU: the worker of every stiff run starts on another CPU than the one
    # the calling thread steps on, and a pi-line run starts no worker
    lib = kernel.library()
    if lib is None:
        pytest.skip(f"no step kernel: {kernel.engine()[1]}")
    for _ in range(20):
        caller, worker = _cpus(lib, _STIFF)
        assert caller >= 0 and worker >= 0 and caller != worker
    piline = m.fast_config("v1f2", dc_model="piline", duration=0.02, warmup=0.0,
                           nsw_schedule=m.constant_schedule(0.02, 6))
    caller, worker = _cpus(lib, piline)
    assert caller >= 0 and worker == -1


@needs_cc
@pytest.mark.skipif(shutil.which("sed") is None, reason="no sed")
def test_failed_placement_changes_no_output(fresh, monkeypatch):
    # a library whose affinity calls all fail places neither the worker nor
    # the write stage's thread: it passes the self-check, reports nothing
    # placed, and the run writes the bytes of a run with a working library
    want = _run_manifest(fresh / "want")
    assert want["engine"] == "c"
    wrapper = fresh / "cc-wrapper"
    edited = fresh / "edited.c"
    wrapper.write_text(
        "#!/bin/sh\n"
        f"sed 's/sched_getaffinity(0,/sched_getaffinity(-1,/' | tee {shlex.quote(str(edited))} | "
        + shlex.join(_compiler()) + ' "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    monkeypatch.setattr(kernel, "_loaded", None)
    manifest = _run_manifest(fresh / "out")
    assert manifest["engine"] == "c" and "engine_note" not in manifest
    if sys.platform == "linux":
        assert "sched_getaffinity(-1," in edited.read_text()
    assert kernel.library().mmcsim_place_thread(threading.get_native_id()) == -1
    for path in (fresh / "want").iterdir():
        if path.name != "run_manifest.json":
            assert (fresh / "out" / path.name).read_bytes() == path.read_bytes(), path.name


# the call that starts the worker thread
_START_WORKER = "pthread_create(&worker, attr, step_worker, &sp) == 0"


@needs_cc
@pytest.mark.skipif(shutil.which("sed") is None, reason="no sed")
@_SPLIT_DIVERGENCES
def test_no_worker_thread_steps_every_leg_on_the_caller(fresh, monkeypatch, config, phase):
    # a library whose worker never starts, as when pthread_create fails:
    # the calling thread steps leg c's first half, leg b, and then the
    # worker's share; it passes the self-check, and reports the same leg
    wrapper = fresh / "cc-wrapper"
    edited = fresh / "edited.c"
    # the call as a sed regular expression: of its characters, only the
    # brackets need escaping
    call = _START_WORKER.replace("[", "\\[").replace("]", "\\]")
    wrapper.write_text(
        "#!/bin/sh\n"
        f"sed {shlex.quote(f's/{call}/0/')} | tee {shlex.quote(str(edited))} | "
        + shlex.join(_compiler()) + ' "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    lib, note = kernel._load()
    assert lib is not None, note
    assert "int threaded = 0;" in edited.read_text()
    _assert_scalar_error(lib, config, phase)
    assert _cpus(lib, _STIFF)[1] == -1
