"""The compiled half of mmcsim: ``_step.c``, plain C built on first use and
called through ``ctypes``.  Its library runs ``run_scenario``'s step loop
(``run``), computes ``_blank_trace``'s reference sines with libm's ``sin``
and writes each file of ``csvtext.write_columns`` in one call, reading
each column in place through its strides.  A ``ctypes`` call releases the
GIL for its whole length, so the two threads that write ``mmcsim run``'s
files format and write on both cores.

The step loop makes the scalar functions' decisions with less work: each
arm's order is kept from step to step and insertion-sorted under one
total order, which takes fewer comparisons than a sort from index order,
and the selection skips the rows and columns of the grid that a lower
bound of the objective rules out.  The record is the one home of the
legs' state: a step reads each leg's state from the record row before it
and writes the leg's cells of its own row; step 0 reads the start row in
front of row 0, where ``_blank_trace`` puts ``scenario._start_states``.
On a stiff bus, inside the one call, two threads each step a leg and a
half: the calling thread steps the first half of leg c and then leg b,
and a second thread steps leg a and then leg c's second half, which
starts from the record row where the calling thread stopped.  So the split
can save up to half of the stepping time, if the second thread runs
beside the first: it starts off the caller's CPU (see ``other_cpus`` in
``_step.c``), as does the write stage's second thread through
``mmcsim_place_thread``.  ``mmcsim_run`` reports in ``where`` the CPU
each thread started stepping on, -1 for no worker.  The pi-line bus
couples the legs on every step, so a pi-line run stays on one thread.
``BENCH_kernel.json`` at the repository root holds the measured figures.

``library()`` finds or builds the shared library once per process.  The
compiler is ``$CC`` (default ``cc``), run with ``FLAGS``; nothing is built
when this module is imported.  The library goes into
``$XDG_CACHE_HOME/mmcsim`` (default ``~/.cache/mmcsim``) under a name that
hashes the source, the compiler's resolved path with its size and
modification time, the compiler command with its flags and the platform, so
finding a cached library starts no child process.  It is written under a
temporary name and renamed into place, so a process never loads a
half-written file.  A cache directory that cannot be written gets the
library built in a private temporary directory instead, removed once the
library is loaded.

Right after a build, the library is checked against the Python code it
stands in for: short fixed runs must give the record of the scalar
functions' loop (``scenario._run_scalar``) and ``math.sin``'s references
byte for byte, and a fixed table of values, a column of every kind read
through a row stride, must be formatted as Python's ``%`` formats them.  A
compiler that fuses or reorders float operations leaves the scalar loop,
``math.sin`` and Python's ``%`` in charge instead of drifting from them.
The verdict covers all three uses: ``engine()`` is ``"c"`` or ``"python"``
for the step loop and the writer alike, and when no library can be had it
says why, in one line.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from .core import SimulationDiverged, SystemParams, _non_finite_state
from .modulation import _objective_weights
from .scenario import (
    NswSchedule,
    ScenarioConfig,
    SimTrace,
    _blank_trace,
    _bus_diverged,
    _leg_diverged,
    _run_scalar,
    constant_schedule,
)

FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
# after the source, so that a linker that drops unused libraries keeps it
LIBS = ("-lm",)

# (library or None, note or None), once library() has run
_loaded: tuple[ctypes.CDLL | None, str | None] | None = None


def library() -> ctypes.CDLL | None:
    """The kernel's library, found or built on the first call; None when
    there is none, and ``engine()`` says why."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded[0]


def engine() -> tuple[str, str | None]:
    """Which engine ``run_scenario`` and ``write_columns`` use, ``"c"`` or
    ``"python"``, and a one-line note: why the Python code runs, or where
    an uncached library was built; None when there is nothing to say."""
    lib = library()
    return ("c" if lib is not None else "python"), _loaded[1]


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/mmcsim``, else ``~/.cache/mmcsim``; a relative path
    is ignored, as the XDG spec asks, and None means no cache directory."""
    for base in (os.environ.get("XDG_CACHE_HOME", ""), os.path.join(os.path.expanduser("~"), ".cache")):
        if os.path.isabs(base):
            return Path(base) / "mmcsim"
    return None


def _load() -> tuple[ctypes.CDLL | None, str | None]:
    cc = shlex.split(os.environ.get("CC") or "cc")
    try:
        source = resources.files(__package__).joinpath("_step.c").read_bytes()
    except OSError as exc:
        return None, f"no kernel source: {exc}"
    # the compiler's file, not its --version output, keys the cache: no
    # child process runs when the library is cached
    found = shutil.which(cc[0]) if cc else None
    if found is None:
        return None, f"no compiler: {' '.join(cc)} (not found, or not executable)"
    found = os.path.realpath(found)
    stat = os.stat(found)
    compiler = f"{found} {stat.st_size} {stat.st_mtime_ns}"
    machine = f"{sys.platform} {platform.machine()} {8 * ctypes.sizeof(ctypes.c_void_p)}-bit"
    command = " ".join([*cc, *FLAGS, *LIBS])
    digest = hashlib.sha256(b"\0".join([source, *(x.encode() for x in (compiler, command, machine))]))
    name = f"_step-{digest.hexdigest()[:16]}.so"
    cache = _cache_dir()
    if cache is not None and (cache / name).is_file():  # built and checked by an earlier process
        try:
            return _bind(ctypes.CDLL(str(cache / name))), None
        except (OSError, AttributeError):
            pass  # unreadable or damaged: build it again
    built = private = note = None
    if cache is None:
        note = "no cache directory, as neither $XDG_CACHE_HOME nor the home directory is an absolute path"
    else:
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, built = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=cache)
            os.close(fd)
        except OSError as exc:
            note = f"cache directory {cache} is not writable ({exc.strerror or exc})"
    if built is None:
        private = tempfile.mkdtemp(prefix="mmcsim-")
        built = os.path.join(private, name)
        note += "; built in a temporary directory"
    try:
        lib, why = _build(cc, source, built)
        if lib is None:
            return None, why
        if private is None:
            try:
                os.replace(built, cache / name)
            except OSError as exc:
                note = f"could not store the library in {cache} ({exc.strerror or exc})"
        return lib, note
    finally:
        # a loaded library stays mapped once its file is gone
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
        elif os.path.exists(built):
            os.unlink(built)


def _build(cc: list[str], source: bytes, path: str) -> tuple[ctypes.CDLL | None, str | None]:
    """Compile ``source`` to ``path``, load it and check it against the
    Python code it stands in for: (library, None), or (None, why not)."""
    try:
        done = subprocess.run(
            [*cc, *FLAGS, "-x", "c", "-", *LIBS, "-o", path], input=source, capture_output=True
        )
    except OSError as exc:
        return None, f"build failed: {exc}"
    if done.returncode:
        lines = done.stderr.decode(errors="replace").strip().splitlines() or [""]
        first_error = next((line for line in lines if "error" in line), lines[-1])
        return None, f"build failed: {' '.join(cc)} exited {done.returncode}: {first_error[:200]}"
    try:
        lib = _bind(ctypes.CDLL(path))
    except (OSError, AttributeError) as exc:
        return None, f"build failed: cannot load the library: {exc}"
    mismatch = _self_check(lib)
    if mismatch:
        return None, f"self-check mismatch: {mismatch}"
    return lib, None


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """``lib`` with the signature of each of its functions declared:
    ``mmcsim_run`` for ``run``, ``mmcsim_sin`` for ``_blank_trace``,
    ``mmcsim_write_columns`` for ``csvtext._library_write``,
    ``mmcsim_place_thread`` for ``cli._write_outputs``, the sort and the
    selection for tests."""
    i32, i64, ptr, f8 = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    for name, restype, argtypes in (
        ("mmcsim_run", ctypes.c_int, [ptr, i64, i32, i32, i32] + [ptr] * 8),
        ("mmcsim_sin", None, [ptr, ptr, i64]),
        ("mmcsim_write_columns", ctypes.c_int, [i32, ctypes.c_char_p, i64, i64, i64, ptr, i32]),
        ("mmcsim_place_thread", i32, [i64]),
        ("mmcsim_sort_arm", None, [i32, ptr, ptr, i32, i32, ptr, ptr]),
        ("mmcsim_select_cell", i32, [i32, ptr, ptr, f8, f8, f8, f8, ptr]),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _self_check_configs() -> list[ScenarioConfig]:
    """Short runs through every branch of the step: the v1fc budget stage
    at every budget on a pi-line bus, stepped on one thread, and on a stiff
    bus, where the second thread steps leg a and then leg c from step 140,
    inside the budget-0 segment (both from the balanced start row, where
    every key ties), and v1f2 with no weight on the circulating current,
    where cells tie on the objective."""
    t_s = SystemParams().t_s
    segment = 40 * t_s
    budgets = (1, 2, 3, 0, 4, 5, 6)
    stairs = NswSchedule(tuple((k * segment, (k + 1) * segment, b) for k, b in enumerate(budgets)))
    return [
        *(ScenarioConfig(algorithm="v1fc", dc_model=dc_model, duration=7 * segment, warmup=0.0,
                         nsw_schedule=stairs) for dc_model in ("piline", "stiff")),
        ScenarioConfig(algorithm="v1f2", params=SystemParams(w_circ=0.0), duration=segment,
                       warmup=0.0, nsw_schedule=constant_schedule(segment, 6)),
    ]


def _self_check(lib: ctypes.CDLL) -> str | None:
    """What of the library differs from the Python code it stands in for,
    or None: each self-check run's record against the scalar loop's, its
    references against ``math.sin``'s, and ``csvtext.check_text``."""
    from .csvtext import check_text

    for config in _self_check_configs():
        want = _run_scalar(config)
        try:
            got = run(lib, config)
        except SimulationDiverged:  # a miscompiled step can overflow
            return "the library's run diverged"
        if got.refs.tobytes() != want.refs.tobytes():
            return "the library's reference sines differ from math.sin's"
        if any(got.record[name].tobytes() != block.tobytes() for name, block in want.record.items()):
            return "the library's record differs from the scalar loop's"
    return check_text(lib)


def run(lib: ctypes.CDLL, config: ScenarioConfig) -> SimTrace:
    """``run_scenario``'s trace of ``config``, stepped by the library into
    the blocks ``_blank_trace`` lays out.  A state that turns non-finite
    raises the scalar loop's ``SimulationDiverged``."""
    params = config.params
    trace = _blank_trace(config, lib)
    # in the order of the K_ constants of _step.c
    consts = np.array([
        params.t_s, params.c_sm, params.l_arm / params.t_s, params.l_ac / params.t_s,
        params.z_step, params.t_s / (2.0 * params.l_arm), config.i_circ_nominal, params.v_dc,
        *_objective_weights(params), config.line_inductance, config.line_end_capacitance,
    ])
    record = trace.record
    budgets = trace.n_sw_max
    # the stop's step and phase, then the CPU each thread started stepping on
    where = np.zeros(4, np.int64)
    bus = np.zeros(1)
    code = lib.mmcsim_run(
        consts.ctypes.data, config.steps, params.n, config.algorithm == "v1fc",
        config.dc_model == "piline", budgets.ctypes.data, trace.refs.ctypes.data,
        *(record[name].ctypes.data for name in ("currents", "v_c", "u", "v_dc")),
        where.ctypes.data, bus.ctypes.data,
    )
    if code == 1:
        k, p = where[:2].tolist()
        i_ac, i_circ = record["currents"][k, :, p].tolist()
        raise _leg_diverged(p, k, params.t_s, _non_finite_state(i_ac, i_circ, record["v_c"][k, p].tolist()))
    if code == 2:
        raise _bus_diverged(int(where[0]), params.t_s, float(bus[0]))
    if code:
        raise MemoryError("the step kernel could not allocate its work buffers")
    return trace
