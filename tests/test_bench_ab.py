"""The harness of tools/bench_ab.py, on stub subjects whose copies are
their names: no git, compiler or timing."""
import importlib.util
import itertools
import types
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _stub(monkeypatch, durations, differs=None):
    """``ab``'s load, call and check for copies that are their names, and
    the list of what they did: each call of copy c advances the clock by
    the next of ``durations[c]`` ns, and ``differs`` is the (case, copy)
    whose check fails."""
    clock, events, ticks = [0], [], {name: iter(d) for name, d in durations.items()}
    monkeypatch.setattr(bench_ab, "time", types.SimpleNamespace(perf_counter_ns=lambda: clock[0]))

    def load(revision, name):
        events.append(("load", revision, name))
        return name

    def call(copy, case):
        clock[0] += next(ticks[copy])
        events.append(("call", case, copy))

    def check(copy, case):
        events.append(("check", case, copy))
        return "file differs from the working tree's" if (case, copy) == differs else None

    return load, call, check, events


def test_copies_are_checked_then_timed_in_rotating_order(monkeypatch):
    load, call, check, events = _stub(monkeypatch, {name: itertools.repeat(1) for name in bench_ab.COPIES})
    cases = lambda copies: (((trace, name), name, 1, {}) for trace, name in (("t", "a"), ("t", "b")))
    rows = bench_ab.ab("rev", 4, load, cases, call, check)
    base, copy, change = bench_ab.COPIES
    timed = [base, copy, change, copy, change, base, change, base, copy, base, copy, change]
    assert events == [
        ("load", "rev", base), ("load", "rev", copy), ("load", None, change),
        *(event for case in ("a", "b") for event in (
            *(("check", case, name) for name in bench_ab.COPIES),
            *(("call", case, name) for name in timed),
        )),
    ]
    assert list(rows) == ["t"] and list(rows["t"]) == ["a", "b"]


def test_row_figures_and_their_rounding(monkeypatch):
    # in units of 100 ns: base 100.04, 300, 200; base_copy 101, 199.4, 500;
    # change 100.06, 150, 150.49.  The percentages follow from the rounded
    # figures the row holds, so a reader can work them out again
    load, call, check, _ = _stub(monkeypatch, {
        "base": [10004, 30000, 20000], "base_copy": [10100, 19940, 50000], "change": [10006, 15000, 15049],
    })
    rows = bench_ab.ab("rev", 3, load, lambda copies: iter([(("x",), None, 100, {"steps": 7})]), call, check)
    assert rows == {"x": {
        "base": {"min": 100.0, "median": 200.0},
        "base_copy": {"min": 101.0, "median": 199.4},
        "change": {"min": 100.1, "median": 150.0},
        "steps": 7,
        "change_vs_base_min_pct": 0.1,
        "a_a_spread_min_pct": 1.0,
        "change_vs_base_median_pct": -25.0,
        "a_a_spread_median_pct": 0.3,
    }}
    assert list(rows["x"]) == [*bench_ab.COPIES, "steps", "change_vs_base_min_pct", "a_a_spread_min_pct",
                               "change_vs_base_median_pct", "a_a_spread_median_pct"]


def test_a_copy_whose_output_differs_ends_the_run_naming_case_and_copy(monkeypatch):
    load, call, check, events = _stub(monkeypatch, {name: itertools.repeat(1) for name in bench_ab.COPIES},
                                      differs=("second", "base_copy"))
    cases = lambda copies: (((trace, name), name, 1, {}) for trace, name in (("t", "first"), ("t", "second")))
    with pytest.raises(SystemExit, match="^t second: the base_copy file differs from the working tree's$"):
        bench_ab.ab("rev", 2, load, cases, call, check)
    assert ("call", "first", "change") in events
    assert not any(event[:2] == ("call", "second") for event in events)


def test_host_records_a_missing_compiler(tmp_path):
    missing = str(tmp_path / "no-such-cc")
    info = bench_ab.host([missing, "-O2"])
    assert info["cc"] == f"not found: {missing} -O2"
    assert list(info) == ["machine", "cpus", "python", "numpy", "cc", "flags"]
