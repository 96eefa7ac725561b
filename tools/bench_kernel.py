"""A/B timing of the compiled step kernel: ``_step.c`` at a git revision
against the working tree's, in one process.

Both sources are built with ``kernel.FLAGS`` and must pass the kernel's
self-check (the scalar loop's record, byte for byte).  The base source is
built twice, so the spread between its two copies, timed in the same
rounds, shows what a difference of nothing reads as on this host.  For
each config, ``kernel.run`` lays out one trace, and each round times one
``mmcsim_run`` call of every library on its blocks, the libraries in a
rotating order; the trace's set-up (``_blank_trace``) is outside the
timing.  The figures are the minimum and the median over ROUNDS rounds,
in ns per phase-step (one leg, one step).

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


def _build(cc: list[str], source: bytes, path: str):
    lib, why = kernel._build(cc, source, path)
    if lib is None:
        raise SystemExit(f"{path}: {why}")
    return lib


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base _step.c")
    args = parser.parse_args(argv)

    cc = shlex.split(os.environ.get("CC") or "cc")
    base_source = subprocess.run(["git", "show", f"{args.base}:src/mmcsim/_step.c"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
    base_commit = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                                 capture_output=True, text=True, check=True).stdout.strip()
    change_source = (ROOT / "src" / "mmcsim" / "_step.c").read_bytes()
    with tempfile.TemporaryDirectory(prefix="bench-kernel-") as tmp:
        libs = {
            "base": _build(cc, base_source, os.path.join(tmp, "base.so")),
            "base_copy": _build(cc, base_source, os.path.join(tmp, "base_copy.so")),
            "change": _build(cc, change_source, os.path.join(tmp, "change.so")),
        }
    timed = {}
    for name, make in CONFIGS.items():
        config = make()
        timed[name] = rounds = _Rounds(libs, config.steps * len(scenario.PHASES))
        kernel.run(rounds, config)

    def summary(samples):
        return {"min": round(min(samples), 1), "median": round(statistics.median(samples), 1)}

    result = {
        "what": "ns per phase-step of one mmcsim_run call (the trace's set-up excluded), "
                "base and base_copy the same source at the base revision, change the working tree",
        "base_revision": base_commit,
        "rounds": ROUNDS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cc": subprocess.run([*cc, "--version"], capture_output=True, text=True).stdout.split("\n")[0],
            "flags": " ".join(kernel.FLAGS),
        },
        "ns_per_phase_step": {},
    }
    for name, rounds in timed.items():
        row = {lib_name: summary(rounds.times[lib_name]) for lib_name in libs}
        base, copy, change = (row[k]["min"] for k in ("base", "base_copy", "change"))
        row["phase_steps"] = rounds.phase_steps
        row["change_vs_base_min_pct"] = round(100.0 * (change / base - 1.0), 1)
        row["a_a_spread_min_pct"] = round(100.0 * abs(copy / base - 1.0), 1)
        result["ns_per_phase_step"][name] = row
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
