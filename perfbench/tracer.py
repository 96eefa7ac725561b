"""In-memory span tracer for calls into mmcsim, installed from outside.

Spans are recorded by wrapping public functions at the names their callers
look up.  ``scenario`` and ``cli`` import ``modulate_phase``, ``step_phase``,
``run_scenario`` and ``segment_report`` into their own namespaces, so those
names are patched on the calling module; patching only the defining module
would miss them.  Spans live in flat typed arrays with parent links and are
written once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

import mmcsim.cli
import mmcsim.metrics
import mmcsim.modulation
import mmcsim.scenario

ROOT_SPAN = "bench.rep"

# (module, attribute, span name); the span name is the defining layer
SIM_TARGETS = (
    (mmcsim.scenario, "run_scenario", "scenario.run_scenario"),
    (mmcsim.cli, "run_scenario", "scenario.run_scenario"),
)
LAYER_TARGETS = SIM_TARGETS + (
    (mmcsim.scenario, "modulate_phase", "modulation.modulate_phase"),
    (mmcsim.scenario, "step_phase", "core.step_phase"),
    (mmcsim.modulation, "sort_v1fc", "modulation.sort_v1fc"),
    (mmcsim.modulation, "sort_v1f2", "modulation.sort_v1f2"),
    (mmcsim.modulation, "select_optimal", "modulation.select_optimal"),
    (mmcsim.modulation, "brute_force_select", "modulation.brute_force_select"),
    (mmcsim.modulation, "cumulative_sums", "modulation.cumulative_sums"),
    (mmcsim.modulation, "compute_targets", "modulation.compute_targets"),
    (mmcsim.metrics, "segment_report", "metrics.segment_report"),
    (mmcsim.cli, "segment_report", "metrics.segment_report"),
    (mmcsim.cli, "write_phase_csv", "cli.write_phase_csv"),
    (mmcsim.cli, "load_run", "cli.load_run"),
    (mmcsim.cli, "main", "cli.main"),
)


class Tracer:
    """Spans as (name id, parent index, start, end), appended in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple]) -> Iterator[None]:
        """Route the target names through span-recording wrappers."""
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def rep(self, fn: Callable, *args):
        """Run one workload repetition under a root span."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with each span's root repetition index."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        roots = np.flatnonzero(parent < 0)
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "child": child,
            "self": dur - child,
            "rep": np.searchsorted(roots, np.arange(len(dur)), side="right") - 1,
        }

    def write(self, path: Path) -> None:
        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "parent", "start", "end", "rep")},
        )


def layer_totals(
    tracer: Tracer, reps: Iterable[int]
) -> tuple[dict[str, dict[str, float]], int]:
    """Calls, total and self seconds per span name over the given root reps,
    and the number of spans whose children add up to more than the span."""
    cols = tracer.arrays()
    keep = np.isin(cols["rep"], np.fromiter(reps, dtype=np.int64))
    out: dict[str, dict[str, float]] = {}
    for nid, name in enumerate(tracer.names):
        sel = keep & (cols["name"] == nid)
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float(cols["dur"][sel].sum()),
            "self_s": float(cols["self"][sel].sum()),
        }
    overfull = keep & (cols["child"] > cols["dur"] + 1e-9)
    return out, int(overfull.sum())


def rep_times(tracer: Tracer, span: str) -> tuple[np.ndarray, np.ndarray]:
    """Per root rep: its wall seconds and the seconds spent in ``span``."""
    cols = tracer.arrays()
    roots = cols["parent"] < 0
    wall = cols["dur"][roots]
    nid = tracer._ids.get(span, -1)
    sel = cols["name"] == nid
    inside = np.bincount(cols["rep"][sel], weights=cols["dur"][sel], minlength=len(wall))
    return wall, inside
