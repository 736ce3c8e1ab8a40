import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import EconomyParams, price_map, trapping_interval
from chaoslab.orbits import _lap_ends
from chaoslab.rootfind import (
    REFINE_LOOP_BELOW,
    bisect_brackets,
    bisect_many,
    piece_brackets,
    refine_root,
    scan_roots,
)

from conftest import grid_brackets, random_window_params


def _second_iterate(params):
    """f(f(x)) - x of EconomyParams, for floats and arrays."""
    f = price_map(params)
    return lambda x: f(f(x)) - x


def _second_iterate_rows(params, rows):
    """f(f(x)) - x with element j under the map of params[rows[j]], as `price_map` writes f."""
    alpha, beta, lam = (np.array([getattr(params[i], k) for i in rows]) for k in ("alpha", "beta", "lam"))

    def f(p):
        return p + lam * (2.0 * beta / p - 4.0 * (1.0 - alpha))

    return lambda x: f(f(x)) - x


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


# ------------------------------------------------ refine_root against bisect_many

def assert_float_loop_matches(func, los, his):
    """refine_root on each bracket gives bisect_many's float for it, bit for bit."""
    want = bisect_many(func, np.asarray(los, dtype=float), np.asarray(his, dtype=float))
    got = np.array([refine_root(func, lo, hi) for lo, hi in zip(los, his)], dtype=float)
    assert_same_floats(got, want)
    return got


def cubic_brackets(seed, count):
    """Brackets of random width around one root each of the cubic."""
    rng = np.random.default_rng(seed)
    roots = rng.choice([0.3, 1.7, 2.9], count)
    return roots - rng.uniform(0.0, 0.6, count), roots + rng.uniform(1e-12, 0.6, count)


def test_refine_root_matches_bisect_many_on_random_brackets():
    los, his = cubic_brackets(11, 500)
    assert_float_loop_matches(cubic, los.tolist(), his.tolist())


def test_refine_root_matches_bisect_many_on_ulp_wide_brackets():
    roots = np.array([0.3, 1.7, 2.9, 1.7, 0.3])
    ulp = np.spacing(roots)
    los = roots - np.array([2.0, 1.0, 3.0, 0.0, 0.0]) * ulp
    his = roots + np.array([3.0, 1.0, 1.0, 1.0, 0.0]) * ulp
    assert_float_loop_matches(cubic, los.tolist(), his.tolist())
    # a bracket a few ulps wide settles after a few halvings, not 80
    counted = CountingFunc(cubic)
    for lo, hi in zip(los.tolist(), his.tolist()):
        refine_root(counted, lo, hi)
    assert counted.calls <= 8 * len(los)


def test_refine_root_matches_bisect_many_on_a_midpoint_root():
    def linear(v):
        return v - 0.5

    got = assert_float_loop_matches(linear, [0.25, 0.0, 0.5, 0.0], [0.75, 1.0, 0.75, 0.5])
    assert got.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_refine_root_matches_bisect_many_on_unsettled_brackets():
    def tiny_root(v):
        return v - 1e-30

    counted = CountingFunc(tiny_root)
    assert_float_loop_matches(counted, [0.0, 0.0], [1.0, 0.5])
    # each float loop evaluates both ends and then 80 midpoints
    assert counted.calls == 81 + 2 * 82


@settings(max_examples=200, deadline=None)
@given(
    root=st.floats(0.01, 10.0),
    left=st.floats(0.0, 5.0),
    right=st.floats(0.0, 5.0),
    slope=st.sampled_from([1.0, -1.0, 3e-7, -250.0]),
)
def test_refine_root_equals_bisect_many_property(root, left, right, slope):
    def line(v):
        return slope * (v - root)

    los = [root - left, root - 0.5 * left, root]
    his = [root + right, root, root + 0.25 * right]
    assert_float_loop_matches(line, los, his)


def pi_brackets(count):
    """Brackets of f(f(x)) - x on a 4096-point grid over [a, m] of window cells, with their cells."""
    params = random_window_params(seed=606, count=count)
    owner, brackets = [], []
    for i, p in enumerate(params):
        iv = trapping_interval(p)
        xs = np.linspace(iv.a, iv.m, 4096)
        found = grid_brackets(_second_iterate(p)(xs), xs)
        owner += [i] * len(found)
        brackets += found
    return params, np.array(owner), brackets


def test_both_sides_of_the_cutoff_match_refine_root():
    params, owner, brackets = pi_brackets(160)
    assert len(brackets) > 200
    cell_funcs = [_second_iterate(p) for p in params]
    want = np.array([refine_root(cell_funcs[i], lo, hi) for i, (lo, hi) in zip(owner, brackets)])
    los, his = np.array(brackets).T

    def chunk_func(rows):
        return _second_iterate_rows(params, rows)

    for n in (REFINE_LOOP_BELOW - 1, REFINE_LOOP_BELOW, len(brackets)):
        got = bisect_brackets(los[:n], his[:n], owner[:n], cell_funcs.__getitem__, chunk_func)
        assert_same_floats(got, want[:n])
    # one array function for all brackets: bracket j evaluates its own cell's map
    assert_same_floats(bisect_many(chunk_func(owner), los, his), want)


def test_chunk_function_is_built_only_for_bisect_many():
    built = []

    def chunk_func(rows):
        built.append(len(rows))
        return cubic

    los, his = cubic_brackets(12, REFINE_LOOP_BELOW)
    owner = np.zeros(len(los), dtype=np.intp)
    for n in (1, REFINE_LOOP_BELOW - 1, REFINE_LOOP_BELOW):
        bisect_brackets(los[:n], his[:n], owner[:n], lambda _: cubic, chunk_func)
    assert built == [REFINE_LOOP_BELOW]


def test_scan_roots_on_many_brackets_matches_refine_root():
    # one shared map with many roots: the preimages of the fixed point 1.0
    # under f^8 of the anchor, one per lap of f^8 whose end values straddle it
    params = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)
    iv = trapping_interval(params)
    f = price_map(params)

    def F8(x):
        for _ in range(8):
            x = f(x)
        return x - 1.0

    # z = 1 and mu = 3.61 here, so the normal form is f itself
    _, cuts = _lap_ends(np.array([3.61]), np.array([iv.a]), np.array([iv.b]), 8)
    values = F8(cuts)
    pieces = [(u, v) for u, v, fu, fv in zip(cuts[:-1], cuts[1:], values[:-1], values[1:])
              if fu * fv < 0.0]
    assert len(pieces) > 2 * REFINE_LOOP_BELOW
    want = [refine_root(F8, lo, hi) for lo, hi in pieces]
    # the np.float64 route gives the same bits as Python floats
    wrapped = [refine_root(lambda x: float(F8(np.float64(x))), lo, hi) for lo, hi in pieces]
    assert wrapped == want
    got = scan_roots(F8, cuts)
    assert got == want
    # one root inside each piece, and none elsewhere
    assert all(lo < x < hi for x, (lo, hi) in zip(got, pieces))


@pytest.mark.parametrize("cuts,want", [
    ([0.5, 1.25, 3.0], [0.5, 2.0]),
    ([0.0, 0.5, 1.25, 3.0], [0.5, 2.0]),
    ([0.0, 1.25, 2.0, 3.0], [0.5, 2.0]),
    ([1.25, 3.0], [2.0]),
    ([0.75, 1.25], []),
])
def test_scan_roots_exact_zero_at_a_cut_is_returned_once(cuts, want):
    # monotone between the cuts, with the turning point at 1.25; an exact
    # zero at a cut ends two pieces, neither of which is then a bracket
    def parabola(v):
        return (v - 0.5) * (v - 2.0)

    assert scan_roots(parabola, cuts) == want
    assert scan_roots(parabola, np.array(cuts)) == want


def test_piece_brackets_zero_on_a_shared_cut_is_one_bracket():
    # pieces [0, 1], [1, 2], [2, 3] with a zero at the cut 1 and a sign change on [2, 3]
    u, v = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    hu, hv = np.array([-1.0, 0.0, 2.0]), np.array([0.0, 2.0, -1.0])
    owner, los, his = piece_brackets(np.zeros(3, dtype=np.intp), u, v, hu, hv)
    assert (owner.tolist(), los.tolist(), his.tolist()) == ([0, 0], [1.0, 2.0], [1.0, 3.0])


def test_piece_brackets_come_in_owner_order():
    # pieces of three owners, given out of order, each with one bracket or zero
    owner = np.array([2, 0, 1, 0, 2])
    u = np.array([0.0, 5.0, 1.0, 0.0, 4.0])
    v = np.array([1.0, 6.0, 2.0, 1.0, 5.0])
    hu = np.array([1.0, -1.0, 0.0, 1.0, 1.0])
    hv = np.array([-1.0, 1.0, 3.0, -1.0, 2.0])
    got = piece_brackets(owner, u, v, hu, hv)
    assert [col.tolist() for col in got] == [[0, 0, 1, 2], [0.0, 5.0, 1.0, 0.0], [1.0, 6.0, 1.0, 1.0]]


def test_piece_brackets_sign_change_of_tiny_ends():
    # 1e-200 * -1e-200 underflows to -0.0, which is not below zero; the signs still differ
    assert 1e-200 * -1e-200 == 0.0
    one = np.zeros(1, dtype=np.intp)
    got = piece_brackets(one, np.array([0.5]), np.array([0.75]), np.array([1e-200]), np.array([-1e-200]))
    assert [col.tolist() for col in got] == [[0], [0.5], [0.75]]


def edge_brackets():
    def linear(v):
        return v - 0.3

    return [
        # a decreasing function: f(lo) > 0 > f(hi)
        (lambda v: 0.7 - v, [(0.25, 0.75), (0.0, 1.0), (0.5, 3.0)]),
        # f(lo) == 0, f(hi) == 0, both (a width-zero bracket), and neither
        (linear, [(0.3, 0.9), (0.1, 0.3), (0.3, 0.3), (0.0, 1.0)]),
        # roots at both ends
        (lambda v: (v - 0.25) * (v - 0.75), [(0.25, 0.75), (0.0, 0.5)]),
        # a triple root, flat to within rounding over a wide band
        (lambda v: (v - 0.3) * (v - 0.3) * (v - 0.3), [(0.0, 1.0), (0.25, 0.5), (0.29, 2.0)]),
        # a root that no float hits, so no halving ever evaluates a zero
        (lambda v: v * v - 2.0, [(1.0, 2.0), (0.0, 1.5), (1.0, 1.4142135623730951)]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_edge_cases_match_refine_root(case):
    func, brackets = edge_brackets()[case]
    want = np.array([refine_root(func, lo, hi) for lo, hi in brackets])
    assert all(x == lo for (lo, hi), x in zip(brackets, want) if lo == hi)
    # tiled past the cutoff, the same brackets take bisect_many
    reps = -(-REFINE_LOOP_BELOW // len(brackets))
    for tiles in (1, reps):
        los, his = np.array(brackets * tiles).T
        owner = np.zeros(len(los), dtype=np.intp)
        got = bisect_brackets(los, his, owner, lambda _: func, lambda _: func)
        assert_same_floats(got, np.tile(want, tiles))


@pytest.mark.parametrize("count", [1, REFINE_LOOP_BELOW + 3])
def test_non_bracket_raises(count):
    los = np.zeros(count)
    his = np.ones(count)
    his[-1] = 0.25  # v - 0.5 keeps its sign on [0, 0.25]

    def func(v):
        return v - 0.5

    with pytest.raises(ValueError, match="not a bracket"):
        bisect_brackets(los, his, np.zeros(count, dtype=np.intp), lambda _: func, lambda _: func)
