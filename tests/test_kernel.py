"""The compiled step kernel: where it comes from, and the Python code
taking over, with the manifest saying why, whenever it cannot be had.
Its records are checked against the scalar loop's in test_scenario.py and
test_fuzz.py."""
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from importlib import resources

import pytest

from mmcsim import kernel
from mmcsim.cli import main
from test_cli import _child_env


def _compiler():
    """The compiler command the kernel would use, or None when it is not
    on PATH."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    return cc if cc and shutil.which(cc[0]) else None


needs_cc = pytest.mark.skipif(_compiler() is None, reason="no C compiler on PATH")


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
        # t from the row's index within its block, not within the table
        ("s/(double)(r + 1)/(double)(r - first + 1)/", "the library's CSV text differs from Python's %"),
    ],
    ids=["sines", "tie-margin", "stride", "time-row"],
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
