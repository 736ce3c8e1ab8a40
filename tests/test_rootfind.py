import numpy as np

from chaoslab import EconomyParams, price_map, trapping_interval
from chaoslab.rootfind import bisect_many, grid_brackets


def reference_bisect(func, los, his):
    """The plain fixed-length loop bisect_many must reproduce bit for bit."""
    los = los.astype(float).copy()
    his = his.astype(float).copy()
    flos = func(los)
    for _ in range(80):
        mids = 0.5 * (los + his)
        fmids = func(mids)
        take_left = flos * fmids <= 0.0
        his = np.where(take_left, mids, his)
        los = np.where(take_left, los, mids)
        flos = np.where(take_left, flos, fmids)
    return 0.5 * (los + his)


def assert_same_floats(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def cubic(v):
    return (v - 0.3) * (v - 1.7) * (v - 2.9)


class CountingFunc:
    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.func(v)


def test_many_brackets_match_reference():
    rng = np.random.default_rng(7)
    los = rng.uniform(0.0, 1.0, 500)
    his = los + rng.uniform(1e-12, 3.0, 500)
    # brackets without a sign change are bisected too; they must match as well
    assert_same_floats(bisect_many(cubic, los, his), reference_bisect(cubic, los, his))


def test_brackets_a_few_ulps_wide_match_reference():
    roots = np.array([0.3, 1.7, 2.9, 1.7])
    ulp = np.spacing(roots)
    los = roots - np.array([2.0, 1.0, 3.0, 0.0]) * ulp
    his = roots + np.array([3.0, 1.0, 1.0, 1.0]) * ulp
    assert_same_floats(bisect_many(cubic, los, his), reference_bisect(cubic, los, his))


def test_root_on_a_midpoint_matches_reference():
    def linear(v):
        return v - 0.5

    # 0.5 is the exact first midpoint of the first two brackets and an
    # endpoint of the third
    los, his = np.array([0.25, 0.0, 0.5]), np.array([0.75, 1.0, 0.75])
    got = bisect_many(linear, los, his)
    assert_same_floats(got, reference_bisect(linear, los, his))
    assert list(got) == [0.5, 0.5, 0.5]


def test_unsettled_bracket_runs_all_80_halvings():
    # 80 halvings of [0, 1] leave a bracket near 1e-24 wide, far above the
    # ulp at the root 1e-30, so no halving repeats and the cap decides
    def tiny_root(v):
        return v - 1e-30

    los, his = np.array([0.0, 0.25]), np.array([1.0, 0.75])
    counted = CountingFunc(tiny_root)
    got = bisect_many(counted, los, his)
    assert counted.calls == 81
    assert_same_floats(got, reference_bisect(tiny_root, los, his))


def test_orbit_scan_bracket_stops_early():
    params = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)
    iv = trapping_interval(params)
    f = price_map(params)

    def f3_minus_x(v):
        return f(f(f(v))) - v

    xs = np.linspace(iv.a, iv.b, 3 * 8192)
    brackets = [b for b in grid_brackets(f3_minus_x(xs), xs) if b[0] != b[1]]
    los = np.array([b[0] for b in brackets])
    his = np.array([b[1] for b in brackets])
    counted = CountingFunc(f3_minus_x)
    got = bisect_many(counted, los, his)
    assert counted.calls <= 60
    assert_same_floats(got, reference_bisect(f3_minus_x, los, his))
