"""The CSV writer's block float formatter against Python's own ``'%.9g'``,
which it must match byte for byte."""
import numpy as np
import pytest

from mmcsim.csvtext import format_g9

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _assert_matches_python(values):
    x = np.array(values, dtype=np.float64)
    slots = format_g9(x)
    assert slots.shape in {(x.size, 24), (x.size, 32)}
    got = [bytes(slot).replace(b"\0", b"") for slot in slots]
    want = [b",%.9g" % v for v in x.tolist()]
    assert got == want, [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w][:5]


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-5, 1e-4, 9.99999999e-5, 9.999999995e-5,  # the fixed/exponent boundary
    999999999.5, 9.9999999995, 99999999.95, 1e9, 1e8,  # carries into the exponent
    1000000.125, 1000000.375, 100000000.5, 100000001.5, 1.0000000045, 1.0000000055,  # 9th-digit ties
    1e22, 1e23, 1e100, 1e-100, -1e100, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-14, 9.999999999999e-15, 1e31, 9.99999999e30,  # the fast path's exponent range
    float("nan"), float("inf"), float("-inf"), 1.0, -1.0, 0.1, 25e-6, 60e3,
]


def test_format_g9_edge_cases():
    _assert_matches_python(EDGES)


def test_format_g9_sampled_bit_patterns_and_near_ties():
    rng = np.random.default_rng(15)
    ties = (rng.integers(10**9, 10**10, 20_000) * 10 + 5) / 1e10 * 10.0 ** rng.integers(-20, 21, 20_000)
    _assert_matches_python(np.concatenate([
        rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),  # every exponent
        10.0 ** rng.uniform(-20, 21, 50_000) * rng.choice([-1.0, 1.0], 50_000),
        ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
        10.0 ** np.arange(-25, 26), np.nextafter(10.0 ** np.arange(-25, 26), 0),
    ]))


# ten significant digits ending in 5: the float nearest a decimal tie at the 9th
_near_ties = st.builds(lambda d, k: float(f"{d}5e{k}"), st.integers(10**8, 10**9 - 1), st.integers(-30, 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(), _near_ties), min_size=1, max_size=64))
def test_format_g9_matches_python(values):
    _assert_matches_python(values)
