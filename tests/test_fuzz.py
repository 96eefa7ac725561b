"""Property test over SystemParams and short scenarios: every input is
refused with ValueError when the config is built, or runs to a finite trace
or SimulationDiverged, never a stray exception or a silent NaN; and the
compiled kernel, when it is loaded, ends each run as the scalar loop does."""
import math
import sys
from dataclasses import asdict

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

import mmcsim as m  # noqa: E402
from mmcsim import kernel  # noqa: E402
from mmcsim.scenario import _run_scalar  # noqa: E402

# At most one field of an example is replaced by one of these; the other
# fields stay in wide but finite ranges, so most examples get to run.  The
# last three are of the wrong type for a float field, an int field or both.
_SPOILERS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e300, "6e4", True, 2.5)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _positive(hi):
    return st.floats(0.0, hi, exclude_min=True, allow_infinity=False)


# n stays small: the selection grid has (n+1)**2 cells per leg
_PARAMS = {
    "v_dc": _positive(1e7),
    "c_sm": _positive(1.0),
    "l_arm": _positive(1.0),
    "r_grid": _floats(0.0, 1e3),
    "l_grid": _positive(1.0),
    "t_s": _floats(1e-7, 1e-3),
    # up to the largest float, where 2*pi*f_grid*t overflows
    "f_grid": st.one_of(_positive(1e4), _positive(sys.float_info.max)),
    "w_track": _floats(0.0, 1e3),
    "w_circ": _floats(0.0, 1e3),
}
_SCENARIO = {
    "p_ref": _floats(-1e9, 1e9),
    "v_s_peak": _positive(1e7),
    "line_length_km": _positive(1e3),
    "line_c_per_km": _positive(1e-3),
    "line_l_per_km": _positive(1e-1),
}
_SPOILABLE = (*_PARAMS, *_SCENARIO, "n", "duration", "warmup")


@st.composite
def _inputs(draw):
    params = {k: draw(s) for k, s in _PARAMS.items()}
    params["n"] = draw(st.integers(1, 8))
    scenario = {k: draw(s) for k, s in _SCENARIO.items()}
    scenario["algorithm"] = draw(st.sampled_from(m.ALGORITHMS))
    scenario["dc_model"] = draw(st.sampled_from(m.DC_MODELS))
    # a whole number of steps, a few ms at the case study's 25 us
    scenario["duration"] = draw(st.integers(1, 120)) * params["t_s"]
    scenario["warmup"] = draw(_floats(0.0, 1.0)) * scenario["duration"]
    budget = draw(st.integers(0, params["n"]))
    # one example in four has a spoiled field
    if draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(_SPOILABLE))
        (params if name in params else scenario)[name] = draw(st.sampled_from(_SPOILERS))
    return params, scenario, budget


def _spoiled(name, value):
    """The case study's fields over four steps, with ``name`` set to ``value``."""
    params = asdict(m.SystemParams())
    scenario = {k: getattr(m.ScenarioConfig(), k) for k in (*_SCENARIO, "algorithm", "dc_model")}
    scenario.update(duration=4 * params["t_s"], warmup=0.0)
    (params if name in params else scenario)[name] = value
    return params, scenario, 6


# the draws above need not reach the type spoilers
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_inputs())
@example(_spoiled("n", 2.5))
@example(_spoiled("n", True))
@example(_spoiled("n", "6e4"))
@example(_spoiled("v_dc", "6e4"))
@example(_spoiled("v_dc", True))
def test_run_finishes_finite_or_raises(inputs):
    params, scenario, budget = inputs
    try:
        config = m.ScenarioConfig(
            params=m.SystemParams(**params),
            nsw_schedule=m.constant_schedule(scenario["duration"], budget),
            **scenario,
        )
    except ValueError:
        return
    # a config that builds runs: a ValueError from inside the run (math's
    # "math domain error", say) names no field
    try:
        trace = _run_scalar(config)
    except m.SimulationDiverged as exc:
        trace = exc
    if kernel.library() is not None:
        # the kernel: the same record bits, or the same error text
        try:
            got = m.run_scenario(config)
        except m.SimulationDiverged as exc:
            assert str(exc) == str(trace)
        else:
            assert not isinstance(trace, Exception), trace
            for name, block in trace.record.items():
                assert got.record[name].tobytes() == block.tobytes(), name
    if isinstance(trace, Exception):
        return
    assert trace.steps == config.steps
    assert np.isfinite(trace.v_dc).all()
    for ph in m.PHASES:
        tr = trace.phase(ph)
        for name in ("i_ac", "i_ref", "i_circ", "v_grid", "v_c"):
            assert np.isfinite(getattr(tr, name)).all(), (ph, name)
        assert set(np.unique(tr.u)) <= {0, 1}
