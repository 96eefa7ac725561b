"""A/B timing in one process: a subject's code at a git revision against
the working tree's.

    python tools/bench_ab.py {kernel,report,write} --base <revision> > BENCH_<subject>.json

Three copies of the subject run side by side: ``base`` and ``base_copy``,
the base revision's code loaded or built twice, and ``change``, the
working tree's.  The spread between the two base copies, timed in the
same rounds, shows what a difference of nothing reads as on this host.
Before any timing, each copy's output on each case is checked, and a
copy whose output differs ends the run, naming the case and the copy.
Each round then times one call of every copy, the copies in a rotating
order.  A row gives each copy's minimum and median over the rounds, and
from both the change against the base and the A/A spread, in per cent.

- ``kernel``: ns per phase-step (one leg, one step) of one ``mmcsim_run``
  call on the fast v1fc, fast v1f2, pi-line v1f2 and paper v1fc configs,
  the trace laid out once, outside the timing.  Each ``_step.c`` is built
  with its own revision's ``kernel.FLAGS`` and must pass its own
  revision's self-check, which runs that revision's ``kernel.py``,
  ``scenario.py`` and ``csvtext.py``.  Each copy is called with the
  arguments its own revision's ``kernel.run`` passes, into a trace of its
  own; its run must return 0 and write the working tree's record, block
  by block.  It is wall time, so a library that steps legs on two threads
  counts once: its minimum needs both cores free in one round, its median
  is what most rounds read.
- ``report``: us per ``segment_report`` call of ``metrics.py``, with its
  own revision's ``scenario.py``, on the fast v1fc, pi-line v1f2 and
  paper v1fc traces, with their profile's settle margin in ``mmcsim run``.
  Each report must equal the working tree's in every field, an array in
  its dtype, shape and bytes.  Without a compiler, the Python engine runs
  the traces and ``host`` says so.
- ``write``: us per ``write_columns`` call of ``csvtext.py`` with the
  same revision's library, built as for ``kernel``, writing the tables
  ``mmcsim run`` passes it for ``phase_a.csv`` and
  ``fig5_capacitor_voltages.csv`` of the fast and paper v1fc traces to
  ``os.devnull``: formatting and ``write`` calls, not the file system.
  Each copy must write each file byte for byte as the working tree does.
"""
from __future__ import annotations

import argparse
import dataclasses
import filecmp
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mmcsim as m  # noqa: E402
from mmcsim import cli, csvtext, kernel, metrics, scenario  # noqa: E402

COPIES = ("base", "base_copy", "change")
KERNEL_ROUNDS, REPORT_ROUNDS, WRITE_ROUNDS = 15, 15, 30
CONFIGS = {
    "fast_v1fc": lambda: m.fast_config("v1fc"),
    "fast_v1f2": lambda: m.fast_config("v1f2"),
    "piline_v1f2": lambda: m.fast_config("v1f2", dc_model="piline"),
    "paper_v1fc": lambda: m.paper_config("v1fc"),
}
# the report's traces, each with its profile's settle margin in mmcsim run
TRACES = {name: (CONFIGS[name], cli._SETTLE["paper" if name == "paper_v1fc" else "fast"])
          for name in ("fast_v1fc", "piline_v1f2", "paper_v1fc")}
FILES = ("phase_a.csv", "fig5_capacitor_voltages.csv")


def ab(base: str, rounds: int, load, cases, call, check) -> dict:
    """One subject's rows.  ``load(revision, name)`` gives the copy
    ``name`` from the git ``revision``, or from the working tree for None;
    ``cases(copies)`` yields per case its keys in the JSON, the argument,
    the ns in one unit of the figures and the row's own fields;
    ``call(copy, argument)`` is timed; ``check(copy, argument)`` says what
    of the copy's output differs, or None."""
    copies = {name: load(None if name == "change" else base, name) for name in COPIES}
    rows: dict = {}
    for keys, arg, unit, fields in cases(copies):
        for name, copy in copies.items():
            why = check(copy, arg)
            if why:
                raise SystemExit(f"{' '.join(keys)}: the {name} {why}")
        times: dict[str, list[float]] = {name: [] for name in COPIES}
        for r in range(rounds):
            for name in COPIES[r % len(COPIES):] + COPIES[: r % len(COPIES)]:
                t0 = time.perf_counter_ns()
                call(copies[name], arg)
                times[name].append((time.perf_counter_ns() - t0) / unit)
        node = rows
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = row(times, fields)
    return rows


def row(times: dict[str, list[float]], fields: dict) -> dict:
    """Each copy's minimum and median of ``times``, ``fields``, and the
    change against the base and the A/A spread from both, in per cent."""
    out: dict = {name: {"min": round(min(times[name]), 1), "median": round(statistics.median(times[name]), 1)}
                 for name in COPIES}
    out.update(fields)
    for stat in ("min", "median"):
        base, copy, change = (out[name][stat] for name in COPIES)
        out[f"change_vs_base_{stat}_pct"] = round(100.0 * (change / base - 1.0), 1)
        out[f"a_a_spread_{stat}_pct"] = round(100.0 * abs(copy / base - 1.0), 1)
    return out


def host(cc: list[str]) -> dict[str, object]:
    """The machine, the interpreter, numpy and the kernel's compiler."""
    try:
        version = subprocess.run([*cc, "--version"], capture_output=True, text=True).stdout.split("\n")[0]
    except OSError:
        version = f"not found: {' '.join(cc)}"
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": version,
        "flags": " ".join(kernel.FLAGS),
    }


def git(*args: str) -> bytes:
    """The output of ``git args`` in the repository."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def load_module(source: bytes, name: str) -> types.ModuleType:
    """``source`` as the module ``mmcsim.<name>``, whose relative imports
    are the working tree's."""
    module = types.ModuleType(f"mmcsim.{name}")
    module.__package__ = "mmcsim"
    sys.modules[module.__name__] = module
    exec(compile(source, f"{name}.py", "exec"), module.__dict__)
    return module


def build(cc: list[str], revision: str | None, path: str) -> tuple:
    """``_step.c`` at the git ``revision``, or the working tree's for
    None, built at ``path``, bound and self-checked by that revision's own
    ``kernel.py`` with its ``scenario.py`` and ``csvtext.py``, as its
    ``library()`` builds it: the library and that ``kernel`` module."""
    if revision is None:
        module = kernel
        lib, why = kernel._build(cc, (ROOT / "src" / "mmcsim" / "_step.c").read_bytes(), path)
    else:
        source = {name: git("show", f"{revision}:src/mmcsim/{name}")
                  for name in ("_step.c", "kernel.py", "scenario.py", "csvtext.py")}
        # the base kernel imports its trace and scalar loop from .scenario,
        # and its self-check imports check_text from .csvtext
        sys.modules["mmcsim.scenario"] = load_module(source["scenario.py"], "_bench_base_scenario")
        sys.modules["mmcsim.csvtext"] = load_module(source["csvtext.py"], "_bench_base_check_csvtext")
        try:
            module = load_module(source["kernel.py"], "_bench_base_kernel")
            lib, why = module._build(cc, source["_step.c"], path)
        finally:
            sys.modules["mmcsim.scenario"], sys.modules["mmcsim.csvtext"] = scenario, csvtext
    if lib is None:
        raise SystemExit(f"{path}: {why}")
    return lib, module


def kernel_subject(base: str, cc: list[str], tmp: str) -> tuple:
    # a copy is its name, library and kernel module; an argument holds, by copy, the mmcsim_run
    # arguments of the copy's own kernel.run, the trace they point into and kernel.run's frame,
    # which keeps alive the other arrays they point into while the case is timed; and the
    # working tree's record
    def capture(copy, config):
        captured = []
        stub = types.SimpleNamespace(mmcsim_sin=copy.lib.mmcsim_sin, mmcsim_run=lambda *args:
                                     captured.append((args, sys._getframe(1))) or 0)
        trace = copy.kernel.run(stub, config)
        return captured[0][0], trace, captured[0][1]

    def cases(copies):
        for name, make in CONFIGS.items():
            config = make()
            want = kernel.run(copies["change"].lib, config).record
            runs = {copy.name: capture(copy, config) for copy in copies.values()}
            phase_steps = config.steps * len(scenario.PHASES)
            yield (name,), (runs, want), phase_steps, {"phase_steps": phase_steps}

    def call(copy, arg):
        runs, _ = arg
        return copy.lib.mmcsim_run(*runs[copy.name][0])

    def check(copy, arg):
        if code := call(copy, arg):
            return f"mmcsim_run returned {code}"
        runs, want = arg
        record = runs[copy.name][1].record
        for name, block in want.items():
            if record[name].tobytes() != block.tobytes():
                return f"record's {name} block differs from the working tree's"
        return None

    def load(revision, copy):
        lib, module = build(cc, revision, os.path.join(tmp, f"{copy}.so"))
        return types.SimpleNamespace(name=copy, lib=lib, kernel=module)

    rows = ab(base, KERNEL_ROUNDS, load, cases, call, check)
    return ("ns per phase-step of one mmcsim_run call (the trace's set-up excluded), base and "
            "base_copy the same source at the base revision, change the working tree", KERNEL_ROUNDS,
            {"base_flags": " ".join(sys.modules["mmcsim._bench_base_kernel"].FLAGS)},
            {"ns_per_phase_step": rows})


def _report_bytes(report: list) -> list:
    """Every field of every segment, each array as its dtype, shape and bytes."""
    segments = ([getattr(seg, f.name) for f in dataclasses.fields(seg)] for seg in report)
    return [[(v.dtype.str, v.shape, v.tobytes()) if hasattr(v, "tobytes") else v for v in seg] for seg in segments]


def report_subject(base: str, cc: list[str], tmp: str) -> tuple:
    def cases(copies):
        for name, (make, settle) in TRACES.items():
            trace = m.run_scenario(make())
            want = _report_bytes(metrics.segment_report(trace, settle=settle))
            yield (name,), (trace, settle, want), 1e3, {"steps": trace.steps, "windows": len(want)}

    def call(module, arg):
        return module.segment_report(arg[0], settle=arg[1])

    def check(module, arg):
        return None if _report_bytes(call(module, arg)) == arg[2] else "report differs from the working tree's"

    def load(revision, copy):
        if revision is None:
            return metrics
        # the base metrics imports _edges and the rest from its own revision's .scenario
        sys.modules["mmcsim.scenario"] = load_module(git("show", f"{revision}:src/mmcsim/scenario.py"),
                                                     f"_bench_{copy}_scenario")
        try:
            return load_module(git("show", f"{revision}:src/mmcsim/metrics.py"), f"_bench_{copy}_metrics")
        finally:
            sys.modules["mmcsim.scenario"] = scenario

    rows = ab(base, REPORT_ROUNDS, load, cases, call, check)
    return ("us per segment_report call on one trace, base and base_copy the same metrics.py "
            "at the base revision, change the working tree", REPORT_ROUNDS,
            {"engine": kernel.engine()[0]}, {"us_per_report": rows})


def _tables(trace, settle: float) -> dict[str, tuple]:
    """The (header, columns) ``mmcsim run`` passes ``write_columns`` for
    each of FILES."""
    report = m.segment_report(trace, settle=settle)
    return {name: cli._csv_table(name, trace, report) for name in FILES}


def write_subject(base: str, cc: list[str], tmp: str) -> tuple:
    # a copy is (csvtext module, library), an argument (header, columns, the working tree's file)
    def cases(copies):
        for trace_name in ("fast_v1fc", "paper_v1fc"):
            make, settle = TRACES[trace_name]
            for name, (header, columns) in _tables(m.run_scenario(make()), settle).items():
                want = Path(tmp) / f"want-{name}"
                write(copies["change"], want, header, columns)
                yield (trace_name, name), (header, columns, want), 1e3, {"bytes": want.stat().st_size}

    def write(copy, path, header, columns):
        module, lib = copy
        with mock.patch.object(kernel, "_loaded", (lib, None)):  # what kernel.library() returns
            module.write_columns(path, header, columns)

    def check(copy, arg):
        write(copy, Path(tmp) / "got.csv", *arg[:2])
        same = filecmp.cmp(arg[2], Path(tmp) / "got.csv", shallow=False)
        return None if same else "file differs from the working tree's"

    def load(revision, copy):
        module = csvtext if revision is None else load_module(git("show", f"{revision}:src/mmcsim/csvtext.py"),
                                                              f"_bench_{copy}_csvtext")
        return module, build(cc, revision, os.path.join(tmp, f"{copy}.so"))[0]

    rows = ab(base, WRITE_ROUNDS, load, cases, lambda copy, arg: write(copy, Path(os.devnull), *arg[:2]), check)
    return ("us per write_columns call writing one file of mmcsim run to os.devnull, base and base_copy "
            "the same csvtext.py and _step.c at the base revision, change the working tree", WRITE_ROUNDS,
            {"engine": kernel.engine()[0]}, {"us_per_file": rows})


SUBJECTS = {"kernel": kernel_subject, "report": report_subject, "write": write_subject}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("subject", choices=SUBJECTS)
    parser.add_argument("--base", required=True, help="git revision of the base code")
    args = parser.parse_args(argv)

    cc = shlex.split(os.environ.get("CC") or "cc")
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        what, rounds, host_fields, rows = SUBJECTS[args.subject](args.base, cc, tmp)
    revision = git("rev-parse", "--short", args.base).decode().strip()
    result = {"what": what, "base_revision": revision, "rounds": rounds, "host": {**host(cc), **host_fields}}
    print(json.dumps({**result, **rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
