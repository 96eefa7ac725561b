"""Shared fixtures; the full-length case-study runs are session-scoped
because several test modules slice the same traces."""
import numpy as np
import pytest

import mmcsim as m
from mmcsim.scenario import PHASES, _blank_trace


def filled_trace(config, seed=0, **fields):
    """``_blank_trace(config)`` with its record filled from ``seed``: normal
    currents, capacitor voltages about 10 kV and statuses 0 or 1, beside
    the config's references and nominal bus voltage.  Each keyword, a
    ``PhaseTrace`` field, is then set in every leg."""
    trace = _blank_trace(config)
    rng = np.random.default_rng(seed)
    record = trace.record
    record["currents"][...] = rng.normal(size=record["currents"].shape)
    record["v_c"][...] = rng.normal(1e4, 1e2, record["v_c"].shape)
    record["u"][...] = rng.integers(0, 2, record["u"].shape)
    for name, value in fields.items():
        for ph in PHASES:
            getattr(trace.phase(ph), name)[...] = value
    return trace


@pytest.fixture(scope="session")
def table1():
    return m.SystemParams()


@pytest.fixture(scope="session")
def paper_v1fc_trace():
    """Full-length staircase scenario under the constrained algorithm."""
    return m.run_scenario(m.paper_config("v1fc"))


@pytest.fixture(scope="session")
def paper_all6_v1fc_trace():
    """Full-length scenario with the budget pinned at 6, constrained algorithm."""
    cfg = m.paper_config("v1fc", nsw_schedule=m.constant_schedule(2.6, 6))
    return m.run_scenario(cfg)


@pytest.fixture(scope="session")
def paper_all6_v1f2_trace():
    """Full-length scenario under the conventional algorithm."""
    cfg = m.paper_config("v1f2", nsw_schedule=m.constant_schedule(2.6, 6))
    return m.run_scenario(cfg)


@pytest.fixture(scope="session")
def fast_v1fc_trace():
    return m.run_scenario(m.fast_config("v1fc"))
