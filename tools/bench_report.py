"""A/B timing of ``segment_report``: ``metrics.py`` at a git revision
against the working tree's, in one process.

The base ``metrics.py`` is loaded twice, as siblings of the working tree's
``mmcsim.metrics``, so the spread between its two copies, timed in the
same rounds, shows what a difference of nothing reads as on this host.
Each trace is run once by the working tree's ``run_scenario`` and then
measured with the settle margin of its profile in ``mmcsim run``.  Every
copy's report must equal the working tree's in the index, span, budget
and window of each segment and in the dtype, shape and bytes of every
metric array.  Each round times one ``segment_report`` call of every
copy, the copies in a rotating order.  The figures are the minimum and
the median over ROUNDS rounds, in us per report.

    python tools/bench_report.py --base <revision> > BENCH_report.json
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import sys
import time

# first: it puts the working tree's src at the front of sys.path
from bench_kernel import git, host, load_module, summary

import mmcsim as m
from mmcsim import cli, kernel, metrics

TRACES = {
    "fast_v1fc": (lambda: m.fast_config("v1fc"), cli._SETTLE["fast"]),
    "piline_v1f2": (lambda: m.fast_config("v1f2", dc_model="piline"), cli._SETTLE["fast"]),
    "paper_v1fc": (lambda: m.paper_config("v1fc"), cli._SETTLE["paper"]),
}
ROUNDS = 15


def _bytes(report: list) -> list:
    """Every field of every segment, each array as its dtype, shape and bytes."""
    return [
        [(v.dtype.str, v.shape, v.tobytes()) if hasattr(v, "tobytes") else v
         for v in (getattr(seg, f.name) for f in dataclasses.fields(metrics.SegmentMetrics))]
        for seg in report
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base metrics.py")
    args = parser.parse_args(argv)

    base_source = git("show", f"{args.base}:src/mmcsim/metrics.py")
    copies = {
        "base": load_module(base_source, "_bench_base_metrics"),
        "base_copy": load_module(base_source, "_bench_base_copy_metrics"),
        "change": metrics,
    }
    result = {
        "what": "us per segment_report call on one trace, base and base_copy the same metrics.py "
                "at the base revision, change the working tree",
        "base_revision": git("rev-parse", "--short", args.base).decode().strip(),
        "rounds": ROUNDS,
        "host": {**host(shlex.split(os.environ.get("CC") or "cc")), "engine": kernel.engine()[0]},
        "us_per_report": {},
    }
    for name, (make, settle) in TRACES.items():
        trace = m.run_scenario(make())
        want = _bytes(metrics.segment_report(trace, settle=settle))
        times = {copy: [] for copy in copies}
        order = list(copies)
        for r in range(ROUNDS):
            for copy in order[r % len(order):] + order[: r % len(order)]:
                t0 = time.perf_counter_ns()
                report = copies[copy].segment_report(trace, settle=settle)
                times[copy].append((time.perf_counter_ns() - t0) / 1e3)
                if _bytes(report) != want:
                    raise SystemExit(f"{name}: the {copy} report differs from the working tree's")
        row = {copy: summary(samples) for copy, samples in times.items()}
        base, base_copy, change = (row[k]["min"] for k in copies)
        row["steps"], row["windows"] = trace.steps, len(want)
        row["change_vs_base_min_pct"] = round(100.0 * (change / base - 1.0), 1)
        row["a_a_spread_min_pct"] = round(100.0 * abs(base_copy / base - 1.0), 1)
        result["us_per_report"][name] = row
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
