"""A/B timing of the compiled step kernel: ``_step.c`` at a git revision
against the working tree's, in one process.

Each source is built with its own revision's ``kernel.FLAGS`` and must
pass the kernel's self-check of that revision (the scalar loop's record,
byte for byte, and the CSV text).  The base source is built twice, so the spread
between its two copies, timed in the same rounds, shows what a
difference of nothing reads as on this host.  For
each config, ``kernel.run`` lays out one trace, and each round times one
``mmcsim_run`` call of every library on its blocks, the libraries in a
rotating order; the trace's set-up (``_blank_trace``) is outside the
timing.  The figures are the minimum and the median over ROUNDS rounds,
in ns per phase-step (one leg, one step), of wall time: a library that
steps legs on two threads counts once.  The change against the base and
the A/A spread are given from both: a two-thread library's minimum needs
both cores free at once in one round, its median is what most rounds
read.

    python tools/bench_kernel.py --base <revision> > BENCH_kernel.json
"""
from __future__ import annotations

import argparse
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mmcsim as m  # noqa: E402
from mmcsim import kernel, scenario  # noqa: E402

CONFIGS = {
    "fast_v1fc": lambda: m.fast_config("v1fc"),
    "fast_v1f2": lambda: m.fast_config("v1f2"),
    "piline_v1f2": lambda: m.fast_config("v1f2", dc_model="piline"),
    "paper_v1fc": lambda: m.paper_config("v1fc"),
}
ROUNDS = 15


class _Rounds:
    """A library whose ``mmcsim_run``, called by ``kernel.run`` with the
    blocks of one trace, times ROUNDS calls of each library's on them,
    the libraries in a rotating order; ``times[name]`` gets the ns per
    phase-step of each of its calls."""

    def __init__(self, libs, phase_steps):
        self._libs, self.phase_steps = libs, phase_steps
        self.times = {name: [] for name in libs}

    def __getattr__(self, name):
        return getattr(self._libs["change"], name)

    def mmcsim_run(self, *args):
        order = list(self._libs)
        for r in range(ROUNDS):
            for name in order[r % len(order):] + order[: r % len(order)]:
                fn = self._libs[name].mmcsim_run
                t0 = time.perf_counter_ns()
                code = fn(*args)
                elapsed = time.perf_counter_ns() - t0
                if code:
                    raise SystemExit(f"{name}: mmcsim_run returned {code}")
                self.times[name].append(elapsed / self.phase_steps)
        return 0


def summary(samples: list[float]) -> dict[str, float]:
    return {"min": round(min(samples), 1), "median": round(statistics.median(samples), 1)}


def host(cc: list[str]) -> dict[str, object]:
    """The machine, the interpreter, numpy and the kernel's compiler."""
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": subprocess.run([*cc, "--version"], capture_output=True, text=True).stdout.split("\n")[0],
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


def build(cc: list[str], revision: str | None, path: str):
    """``_step.c`` at the git ``revision``, or the working tree's for
    None, built at ``path``, bound and self-checked by that revision's own
    ``kernel.py`` with its ``csvtext.py``, as its ``library()`` builds it."""
    if revision is None:
        lib, why = kernel._build(cc, (ROOT / "src" / "mmcsim" / "_step.c").read_bytes(), path)
    else:
        source = {name: git("show", f"{revision}:src/mmcsim/{name}")
                  for name in ("_step.c", "kernel.py", "csvtext.py")}
        base_kernel = load_module(source["kernel.py"], "_bench_base_kernel")
        # the base kernel's self-check imports check_text from .csvtext
        csvtext = sys.modules.get("mmcsim.csvtext")
        sys.modules["mmcsim.csvtext"] = load_module(source["csvtext.py"], "_bench_base_check_csvtext")
        try:
            lib, why = base_kernel._build(cc, source["_step.c"], path)
        finally:
            if csvtext is None:
                del sys.modules["mmcsim.csvtext"]
            else:
                sys.modules["mmcsim.csvtext"] = csvtext
    if lib is None:
        raise SystemExit(f"{path}: {why}")
    return lib


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base _step.c")
    args = parser.parse_args(argv)

    cc = shlex.split(os.environ.get("CC") or "cc")
    base_commit = git("rev-parse", "--short", args.base).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench-kernel-") as tmp:
        libs = {
            name: build(cc, revision, os.path.join(tmp, f"{name}.so"))
            for name, revision in (("base", args.base), ("base_copy", args.base), ("change", None))
        }
    timed = {}
    for name, make in CONFIGS.items():
        config = make()
        timed[name] = rounds = _Rounds(libs, config.steps * len(scenario.PHASES))
        kernel.run(rounds, config)

    result = {
        "what": "ns per phase-step of one mmcsim_run call (the trace's set-up excluded), "
                "base and base_copy the same source at the base revision, change the working tree",
        "base_revision": base_commit,
        "rounds": ROUNDS,
        "host": {**host(cc), "base_flags": " ".join(sys.modules["mmcsim._bench_base_kernel"].FLAGS)},
        "ns_per_phase_step": {},
    }
    for name, rounds in timed.items():
        row = {lib_name: summary(rounds.times[lib_name]) for lib_name in libs}
        row["phase_steps"] = rounds.phase_steps
        for stat in ("min", "median"):
            base, copy, change = (row[k][stat] for k in ("base", "base_copy", "change"))
            row[f"change_vs_base_{stat}_pct"] = round(100.0 * (change / base - 1.0), 1)
            row[f"a_a_spread_{stat}_pct"] = round(100.0 * abs(copy / base - 1.0), 1)
        result["ns_per_phase_step"][name] = row
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
