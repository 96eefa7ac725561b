#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it, from the repository
root, one run at a time:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/trajectory/00-seed.json
    python3 perfbench/collect.py --compare A.json B.json

For each workload and end-to-end metric the summary holds the values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  Decision digests and the
simulated counts are kept per seed, so two summaries of the same seeds can be
compared exactly.  ``--compare`` checks that B has every workload of A, that
B is correct with no more failed runs than A, that B's medians are not worse
than A's by more than each bound and that digests and counts are identical.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("modulation.select_optimal.fallback_ratio", "modulation.brute_force_select.calls",
          "modulation.select_optimal.calls", "scenario.budget_overrun_steps")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} printed no result:\n{proc.stderr}") from None
    if proc.returncode != 0:  # an output check failed; the summary records it
        print(proc.stderr, file=sys.stderr, end="")
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound}


def collect(args) -> int:
    out = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    steady = True
    for wl in (w["name"] for w in SPEC["workloads"]):
        results = {s: run(wl, s, 0) for s in seeds(args.seeds)}
        out["machine"] = next(iter(results.values()))[1]["machine"]
        entry = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "digests": {s: rec["decision_digest"] for s, (_, rec) in results.items()},
            "metrics": {},
        }
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r, _ in results.values()]
            entry["metrics"][m["name"]] = summ = summarise(vals, m["bound"])
            summ["unit"] = m["unit"]
            ok = summ["spread"] < m["bound"] / 3
            steady &= ok
            print(f"{wl:14s} {m['name']:22s} median {summ['median']:12.6g} {m['unit']:4s} "
                  f"spread {summ['spread']:.4f} (bound {m['bound']}) {'ok' if ok else 'WIDE'}")
        if args.trace_seeds:
            entry["per_layer"] = {
                s: {k: v["value"] for k, v in run(wl, s, 1)[0]["metrics"].items()}
                for s in seeds(args.trace_seeds)
            }
        out["workloads"][wl] = entry
        print(f"{wl:14s} correct {entry['correct']}, failed {entry['failed']}/{entry['attempted']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    bad = 0
    for wl, ea in a["workloads"].items():
        eb = b["workloads"].get(wl)
        if eb is None:
            bad += 1
            print(f"{wl:14s} missing from {b_path}")
            continue
        ok = eb["correct"] and eb["failed"] <= ea["failed"]
        bad += not ok
        print(f"{wl:14s} correct {ea['correct']} -> {eb['correct']}, "
              f"failed {ea['failed']} -> {eb['failed']} {'ok' if ok else 'FAIL'}")
        for m in SPEC["end_to_end"]:
            ma, mb = ea["metrics"][m["name"]]["median"], eb["metrics"][m["name"]]["median"]
            worse = (mb / ma - 1) if m["better"] == "lower" else (1 - mb / ma)
            ok = worse <= m["bound"]
            bad += not ok
            print(f"{wl:14s} {m['name']:22s} {ma:12.6g} -> {mb:12.6g} "
                  f"worse by {100 * worse:+.2f}% (bound {100 * m['bound']:.0f}%) {'ok' if ok else 'FAIL'}")
        same = {s: d for s, d in ea["digests"].items() if eb["digests"].get(s) == d}
        bad += len(same) != len(ea["digests"])
        print(f"{wl:14s} digests identical on {len(same)}/{len(ea['digests'])} seeds")
        for s, pa in ea.get("per_layer", {}).items():
            pb = eb.get("per_layer", {}).get(s)
            if pb is not None:
                diff = [k for k in COUNTS if pa[k] != pb[k]]
                bad += bool(diff)
                print(f"{wl:14s} seed {s} counts {'identical' if not diff else 'differ: ' + ', '.join(diff)}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1-2")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    return compare(*args.compare) if args.compare else collect(args)


if __name__ == "__main__":
    sys.exit(main())
