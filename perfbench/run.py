#!/usr/bin/env python3
"""mmcsim benchmark: one workload, host time, from the repository root.

    python3 perfbench/run.py --workload budget_sweep --seed 1 --seconds 20 --trace 0

Runs the workload's repetitions in this process, on one thread, for about
``--seconds`` seconds after one untimed warm-up repetition, checks every
scenario run's outputs, and prints human-readable lines followed by one JSON
line: ``correct``, ``attempted`` and ``failed`` (scenario runs) and the
metrics.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates plain and traced repetitions and reports the
per-layer metrics.  The full record (machine, samples, decision digest) and
the spans go to ``.perfbench_out/``.

The model is unvalidated: the repository holds no hardware reference data,
so no accuracy error figure is reported.  Every time here is host time.
"""
from __future__ import annotations

import os

# one thread for numpy and any BLAS it loads, here and in the probe children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 4          # so a traced run has at least two of each kind
# setup_s is normalised by a probe that only starts python and imports numpy,
# the floor under mmcsim's own set-up.  SETUP_REF_S is that probe's time on
# the reference host, by definition, and stays fixed like CAL_REF_S.
SETUP_REF = ["-c", "import numpy"]
SETUP_REF_S = 0.15
TAIL_BEYOND = 10      # samples required beyond a reported percentile


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def probe_seconds(args: list[str]) -> float:
    """Wall seconds of one fresh interpreter started with ``args``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with TAIL_BEYOND samples above it, and its value."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100 * (n - TAIL_BEYOND) // n, sorted(samples)[n - TAIL_BEYOND - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(samples):.6g} {unit}, n={len(samples)}"
    t = tail(samples)
    if t is None:
        return line + f"; no percentile has {TAIL_BEYOND} samples beyond it"
    return line + f", p{t[0]} {t[1]:.6g} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "mmcsim" / "__init__.py").is_file():
        print(f"perfbench: no mmcsim sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import tracer as tr
    import workloads as wl
    from calibrate import CAL_REF_S, calibration_seconds

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, "
              f"expected one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    work = wl.WORKLOADS[args.workload](args.seed, OUT)
    attempted = failed = 0
    problems: list[str] = []
    digests: set[str] = set()
    overruns = csv_bytes = 0

    def account(result) -> None:
        nonlocal attempted, failed, overruns, csv_bytes
        attempted += len(result.runs)
        for run in result.runs:
            if run.problems:
                failed += 1
                problems.extend(f"{run.label}: {p}" for p in run.problems)
        digests.add(wl.decision_digest(result.runs))
        overruns = wl.budget_overrun_steps(result.runs)
        csv_bytes = result.csv_bytes

    account(work.run_once())  # warm-up: lazy imports and file-system caches
    tracer = tr.Tracer()
    traced_flags: list[bool] = []
    cal = [calibration_seconds()]  # one before and one after every repetition
    setup: list[float] = []
    setup_norm: list[float] = []
    ref: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(traced_flags) < MIN_REPS:
        traced = bool(args.trace) and len(traced_flags) % 2 == 1
        with tracer.patched(tr.LAYER_TARGETS if traced else tr.SIM_TARGETS):
            account(tracer.rep(work.run_once))
        traced_flags.append(traced)
        cal.append(calibration_seconds())
        if not args.trace:
            # one set-up probe per repetition, right after a reference probe:
            # host speed drifts between repetitions, their ratio hardly does
            ref.append(probe_seconds(SETUP_REF))
            setup.append(probe_seconds([str(HERE / "setup_probe.py"), args.workload, str(args.seed)]))
            setup_norm.append(setup[-1] * SETUP_REF_S / ref[-1])
    if len(digests) > 1:
        failed += 1
        problems.append("decisions differ between repetitions of the same inputs")

    wall, in_sim = tr.rep_times(tracer, "scenario.run_scenario")
    # host speed during repetition k, relative to the reference host
    speed = [(cal[k] + cal[k + 1]) / 2 / CAL_REF_S for k in range(len(traced_flags))]
    plain = [k for k, t in enumerate(traced_flags) if not t]
    wall_s = [float(wall[k]) for k in plain]
    rate = [work.phase_steps_per_rep / float(in_sim[k]) for k in plain]
    wall_norm = [float(wall[k]) / speed[k] for k in plain]
    rate_norm = [work.phase_steps_per_rep / float(in_sim[k]) * speed[k] for k in plain]
    if args.trace:
        traced_reps = [k for k, t in enumerate(traced_flags) if t]
        layers, overfull = tr.layer_totals(tracer, traced_reps)
        if overfull:
            problems.append(f"{overfull} spans have children longer than themselves")
        computed = per_layer(layers, len(traced_reps), overruns, csv_bytes,
                             statistics.median(float(wall[k]) / speed[k] for k in traced_reps)
                             / statistics.median(wall_norm))
    else:
        computed = {
            "wall_norm_s": statistics.median(wall_norm),
            "sim_phase_steps_per_norm_s": statistics.median(rate_norm),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in section}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine()
    digest = digests.pop() if len(digests) == 1 else "inconsistent"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": info, "p_ref_w": work.p_ref, "decision_digest": digest,
        "budget_overrun_steps": overruns,
        "sim_s_per_rep": work.sim_seconds_per_rep,
        "phase_steps_per_rep": work.phase_steps_per_rep,
        "wall_s_samples": wall_s, "rate_samples": rate,
        "setup_raw_s_samples": setup, "setup_s_samples": setup_norm, "ref_s_samples": ref,
        "wall_norm_s_samples": wall_norm, "rate_norm_samples": rate_norm,
        "calibration_s_samples": cal,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    tracer.write(OUT / f"{stem}-spans.npz")

    print(f"workload {args.workload}, seed {args.seed}: p_ref {work.p_ref / 1e6:.4f} MW; "
          f"simulated {work.sim_seconds_per_rep:.4g} s per repetition "
          f"({work.phase_steps_per_rep} phase-steps); all times below are host time")
    print("model: unvalidated, the repository holds no hardware reference data; "
          "no accuracy error figure is reported")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    print(describe("wall_s", wall_s, "s"))
    print(describe("sim_phase_steps_per_s", rate, "1/s"))
    print(describe("calibration loop", cal, "s") + f"; normalised figures assume {CAL_REF_S} s")
    print(describe("wall_norm_s", wall_norm, "s"))
    print(describe("sim_phase_steps_per_norm_s", rate_norm, "1/s"))
    if setup:
        print(describe("setup_raw_s", setup, "s") + " (fresh interpreters)")
        print(describe("set-up reference probe", ref, "s")
              + f"; normalised setup_s assumes {SETUP_REF_S} s")
        print(describe("setup_s", setup_norm, "s") + " (fresh interpreters, normalised)")
    print(f"failed_run_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"decision digest (sha256 of int8 u, phases a/b/c): {digest}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def per_layer(layers: dict, reps: int, overruns: int, csv_bytes: int,
              traced_over_plain: float) -> dict[str, float]:
    """Per-layer metrics per repetition, averaged over the traced repetitions.
    A layer the workload never calls reads 0."""
    out = {}
    for span, totals in layers.items():
        calls, total = totals["calls"] / reps, totals["total_s"] / reps
        out[f"{span}.calls"] = calls
        out[f"{span}.total_s"] = total
        out[f"{span}.self_s"] = totals["self_s"] / reps
        out[f"{span}.us_per_call"] = 1e6 * total / calls if calls else 0.0
    selects = out["modulation.select_optimal.calls"]
    write_s = out["cli.write_phase_csv.total_s"]
    out.update({
        "modulation.select_optimal.fallback_ratio":
            out["modulation.brute_force_select.calls"] / selects if selects else 0.0,
        "cli.write_phase_csv.mb_per_s": csv_bytes / 1e6 / write_s if write_s else 0.0,
        "scenario.budget_overrun_steps": overruns,
        "trace.overhead_pct": 100.0 * (traced_over_plain - 1.0),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
