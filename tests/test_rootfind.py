import numpy as np
import pytest

from chaoslab import EconomyParams, price_map, price_map_derivative, trapping_interval
from chaoslab.economy import Cells
from chaoslab.gate import _second_iterate_funcs
from chaoslab.rootfind import (
    REFINE_LOOP_BELOW,
    bisect_many,
    grid_brackets,
    refine_root,
    refine_roots,
    scan_brackets,
)

from conftest import random_window_params


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


# ---------------------------------------------------------------- refine_roots

def iterate_funcs(params, n):
    """f^n(x) - x and its derivative, for floats and arrays alike."""
    f = price_map(params)
    df = price_map_derivative(params)

    def F(x):
        y = x
        for _ in range(n):
            y = f(y)
        return y - x

    def dF(x):
        y, d = x, 1.0
        for _ in range(n):
            d = d * df(y)
            y = f(y)
        return d - 1.0

    return F, dF


def pi_brackets(count):
    """Pi-set scan brackets of many window cells, with each bracket's cell."""
    params = random_window_params(seed=606, count=count)
    owner, brackets = [], []
    for i, p in enumerate(params):
        iv = trapping_interval(p)
        found = scan_brackets(_second_iterate_funcs(p)[0], iv.a, iv.m, 4096)
        owner += [i] * len(found)
        brackets += found
    return params, np.array(owner), brackets


def test_masked_pass_matches_refine_root_on_pi_brackets():
    params, owner, brackets = pi_brackets(160)
    assert len(brackets) > 200
    cell_funcs = [_second_iterate_funcs(p) for p in params]
    want = np.array([refine_root(*cell_funcs[i], lo, hi) for i, (lo, hi) in zip(owner, brackets)])
    for n in (REFINE_LOOP_BELOW, len(brackets)):
        # one closure pair for all brackets: bracket j evaluates its own cell's map
        cells = Cells(*(v[owner[:n]] for v in Cells.of(params)))
        los, his = np.array(brackets[:n]).T
        assert_same_floats(refine_roots(*_second_iterate_funcs(cells), los, his), want[:n])


def test_both_sides_of_the_cutoff_match_refine_root():
    # one shared map with many roots: period-8 points of the anchor
    params = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)
    iv = trapping_interval(params)
    F, dF = iterate_funcs(params, 8)
    brackets = [b for b in scan_brackets(F, iv.a, iv.b, 8 * 8192) if b[0] != b[1]]
    assert len(brackets) > 2 * REFINE_LOOP_BELOW
    los, his = np.array(brackets).T
    want = np.array([refine_root(F, dF, lo, hi) for lo, hi in brackets])
    # the np.float64 route scan_roots used to take gives the same bits
    wrapped = np.array([refine_root(lambda x: float(F(np.float64(x))), dF, lo, hi)
                        for lo, hi in brackets])
    assert_same_floats(wrapped, want)
    for n in (REFINE_LOOP_BELOW - 1, REFINE_LOOP_BELOW, len(brackets)):
        assert_same_floats(refine_roots(F, dF, los[:n], his[:n]), want[:n])


def edge_brackets():
    def linear(v):
        return v - 0.3

    def cubic_flat(v):
        return (v - 0.3) * (v - 0.3) * (v - 0.3)

    return [
        # 0.5 is the first midpoint of [0.25, 0.75] and of [0, 1]
        (lambda v: v - 0.5, lambda v: 1.0 + 0.0 * v, [(0.25, 0.75), (0.0, 1.0)]),
        # f(lo) == 0, f(hi) == 0, both, and a root Newton lands on exactly
        (linear, lambda v: 1.0 + 0.0 * v, [(0.3, 0.9), (0.1, 0.3), (0.3, 0.3), (0.0, 1.0)]),
        # roots at both ends: refine_root returns lo
        (lambda v: (v - 0.25) * (v - 0.75), lambda v: 2.0 * v - 1.0, [(0.25, 0.75), (0.0, 0.5)]),
        # a zero derivative falls back to bisection
        (cubic_flat, lambda v: 0.0 * v, [(0.0, 1.0), (0.25, 0.5), (0.29, 2.0)]),
        # so does a derivative that is not finite
        (linear, lambda v: np.inf + 0.0 * v, [(0.0, 1.0), (0.125, 0.7)]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_edge_cases_match_refine_root(case):
    func, dfunc, brackets = edge_brackets()[case]
    want = np.array([refine_root(func, dfunc, lo, hi) for lo, hi in brackets])
    # tiled past the cutoff, the same brackets take the masked pass
    reps = -(-REFINE_LOOP_BELOW // len(brackets))
    for tiles in (1, reps):
        los, his = np.array(brackets * tiles).T
        assert_same_floats(refine_roots(func, dfunc, los, his), np.tile(want, tiles))


@pytest.mark.parametrize("count", [1, REFINE_LOOP_BELOW + 3])
def test_non_bracket_raises(count):
    los = np.zeros(count)
    his = np.ones(count)
    his[-1] = 0.25  # v - 0.5 keeps its sign on [0, 0.25]
    with pytest.raises(ValueError, match="not a bracket"):
        refine_roots(lambda v: v - 0.5, lambda v: 1.0 + 0.0 * v, los, his)
