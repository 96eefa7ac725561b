"""A/B timing of the CSV writer: ``csvtext.py`` with the library built from
``_step.c``, both at a git revision, against the working tree's, in one
process.

The base source is built twice and its ``csvtext.py`` loaded twice, as
siblings of the working tree's modules, so the spread between the two
copies, timed in the same rounds, shows what a difference of nothing
reads as on this host.  Each library must pass the kernel self-check of
its own revision.  Each
trace is run once by the working tree's ``run_scenario``; the tables are
the header and columns ``mmcsim run`` passes ``write_columns`` for
``phase_a.csv`` and ``fig5_capacitor_voltages.csv``.  Every copy must
write each file byte for byte as the working tree does.  Each round then
has every copy write each file once to ``os.devnull``, the copies in a
rotating order, so the figures are formatting and ``write`` calls, not
the file system.  The figures are the minimum and the median over ROUNDS
rounds, in us per file.

    python tools/bench_write.py --base <revision> > BENCH_write.json
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import shlex
import sys
import tempfile
import time
from pathlib import Path

# first: it puts the working tree's src at the front of sys.path
from bench_kernel import build, git, host, load_module, summary
from bench_report import TRACES as REPORT_TRACES

import mmcsim as m
from mmcsim import cli, csvtext, kernel

TRACES = {name: REPORT_TRACES[name] for name in ("fast_v1fc", "paper_v1fc")}
FILES = ("phase_a.csv", "fig5_capacitor_voltages.csv")
ROUNDS = 30


def _tables(trace, settle: float) -> dict[str, tuple]:
    """The (header, columns) ``mmcsim run`` passes ``write_columns`` for
    each of FILES, taken from its own writers."""
    tables: dict[str, tuple] = {}

    def record(path: Path, header, columns) -> int:
        tables[path.name] = (header, columns)
        return 0

    write_columns = csvtext.write_columns
    csvtext.write_columns = record
    try:
        cli.write_phase_csv(Path(FILES[0]), trace, "a")
        cli._write_fig_files(Path("."), trace, m.segment_report(trace, settle=settle))
    finally:
        csvtext.write_columns = write_columns
    return {name: tables[name] for name in FILES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base csvtext.py and _step.c")
    args = parser.parse_args(argv)

    cc = shlex.split(os.environ.get("CC") or "cc")
    base_py = git("show", f"{args.base}:src/mmcsim/csvtext.py")
    engine = kernel.engine()[0]
    loaded = kernel._loaded  # the working tree's library, put back at the end
    with tempfile.TemporaryDirectory(prefix="bench-write-") as tmp:
        # (csvtext module, library) per copy
        copies = {
            name: (module, build(cc, revision, os.path.join(tmp, f"{name}.so")))
            for name, module, revision in (
                ("base", load_module(base_py, "_bench_base_csvtext"), args.base),
                ("base_copy", load_module(base_py, "_bench_base_copy_csvtext"), args.base),
                ("change", csvtext, None),
            )
        }
        change_lib = copies["change"][1]

        result = {
            "what": "us per write_columns call writing one file of mmcsim run to os.devnull, base and "
                    "base_copy the same csvtext.py and _step.c at the base revision, change the working tree",
            "base_revision": git("rev-parse", "--short", args.base).decode().strip(),
            "rounds": ROUNDS,
            "host": {**host(cc), "engine": engine},
            "us_per_file": {},
        }
        order = list(copies)
        try:
            for trace_name, (make, settle) in TRACES.items():
                kernel._loaded = loaded
                trace = m.run_scenario(make())
                tables = _tables(trace, settle)
                times = {(name, copy): [] for name in FILES for copy in copies}
                for name, (header, columns) in tables.items():
                    want = Path(tmp) / f"want-{name}"
                    kernel._loaded = (change_lib, None)
                    csvtext.write_columns(want, header, columns)
                    for copy, (module, lib) in copies.items():
                        kernel._loaded = (lib, None)
                        module.write_columns(Path(tmp) / name, header, columns)
                        if not filecmp.cmp(want, Path(tmp) / name, shallow=False):
                            raise SystemExit(f"{trace_name} {name}: the {copy} file differs from the working tree's")
                    result["us_per_file"].setdefault(trace_name, {})[name] = {"bytes": want.stat().st_size}
                for r in range(ROUNDS):
                    for name, (header, columns) in tables.items():
                        for copy in order[r % len(order):] + order[: r % len(order)]:
                            module, lib = copies[copy]
                            kernel._loaded = (lib, None)
                            t0 = time.perf_counter_ns()
                            module.write_columns(Path(os.devnull), header, columns)
                            times[name, copy].append((time.perf_counter_ns() - t0) / 1e3)
                for name in FILES:
                    row = result["us_per_file"][trace_name][name]
                    row.update({copy: summary(times[name, copy]) for copy in copies})
                    for stat in ("min", "median"):
                        base, base_copy, change = (row[k][stat] for k in copies)
                        row[f"change_vs_base_{stat}_pct"] = round(100.0 * (change / base - 1.0), 1)
                        row[f"a_a_spread_{stat}_pct"] = round(100.0 * abs(base_copy / base - 1.0), 1)
        finally:
            kernel._loaded = loaded
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
