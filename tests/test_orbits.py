import math
from fractions import Fraction

import numpy as np
import pytest

from chaoslab import (
    EPS_ROOT,
    GRID_BASE,
    DomainError,
    EconomyParams,
    classify_closed_form,
    find_odd_cycle,
    find_periodic_orbits,
    find_turbulence_witness,
    fixed_point,
    iterate,
    period2_points,
    price_map,
    search_period3,
    step,
    trapping_interval,
)
import chaoslab.orbits
import chaoslab.rootfind
from chaoslab.economy import TrappingInterval, normal_form, normal_map
from chaoslab.orbits import PeriodicOrbit, _cycle_roots, _lap_ends, periodic_orbit_lists
from chaoslab.rootfind import bisect_many, refine_root

from conftest import exact_orbit, grid_brackets, random_window_params


ROOTFIND_FUNCTIONS = [name for name, value in vars(chaoslab.rootfind).items()
                      if callable(value) and getattr(value, "__module__", "") == "chaoslab.rootfind"]


def _normal(params, iv):
    """(mu, a/z, b/z) of one cell, as the orbit internals take them."""
    z, mu = normal_form(params)
    return np.array([mu]), np.array([iv.a / z]), np.array([iv.b / z])


def _apply_n(params, x, n):
    for _ in range(n):
        x = step(params, x)
    return x


class TestIterate:
    def test_anchor_trajectory(self, anchor):
        orbit = iterate(anchor, 1.9, 3)
        want = [float(p) for p in exact_orbit("0.75", "0.5", "3.61", "1.9", 3)]
        assert len(orbit.points) == 4
        assert not orbit.escaped
        for got, expect in zip(orbit.points, want):
            assert got == pytest.approx(expect, abs=1e-9)

    def test_fixed_point_is_constant(self, anchor):
        orbit = iterate(anchor, 1.0, 50)
        assert orbit.points == tuple([1.0] * 51)
        assert not orbit.escaped

    def test_escape_above_window(self):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=5.0)
        orbit = iterate(params, math.sqrt(5.0), 10)
        assert orbit.escaped
        assert orbit.points[-1] <= 0.0
        assert len(orbit.points) == 2

    def test_recorded_steps_are_exact(self, anchor):
        orbit = iterate(anchor, 0.37, 25)
        for prev, nxt in zip(orbit.points, orbit.points[1:]):
            assert nxt == step(anchor, prev)

    def test_rejects_bad_start(self, anchor):
        with pytest.raises(DomainError):
            iterate(anchor, 0.0, 5)

    def test_rejects_bad_step_counts(self, anchor):
        with pytest.raises(ValueError):
            iterate(anchor, 1.0, 0)
        with pytest.raises(ValueError):
            iterate(anchor, 1.0, 10**7 + 1)


class TestFindPeriodicOrbits:
    def test_low_periods_match_closed_forms(self, anchor):
        iv = trapping_interval(anchor)
        orbits = find_periodic_orbits(anchor, iv, 2)
        by_period = {o.period: o for o in orbits}
        assert set(by_period) == {1, 2}
        assert by_period[1].points[0] == pytest.approx(1.0, abs=1e-9)
        w1, w2 = period2_points(anchor)
        assert by_period[2].points[0] == pytest.approx(w1, abs=1e-9)
        assert by_period[2].points[1] == pytest.approx(w2, abs=1e-9)

    def test_residual_bound_holds(self, anchor):
        iv = trapping_interval(anchor)
        for orbit in find_periodic_orbits(anchor, iv, 6):
            assert orbit.residual <= 1e-10
            assert _apply_n(anchor, orbit.points[0], orbit.period) == pytest.approx(
                orbit.points[0], abs=1e-9
            )

    def test_minimal_periods_are_minimal(self, anchor):
        iv = trapping_interval(anchor)
        for orbit in find_periodic_orbits(anchor, iv, 6):
            for d in range(1, orbit.period):
                if orbit.period % d == 0:
                    assert abs(_apply_n(anchor, orbit.points[0], d) - orbit.points[0]) > 1e-8

    def test_points_start_at_cycle_minimum(self, anchor):
        iv = trapping_interval(anchor)
        for orbit in find_periodic_orbits(anchor, iv, 5):
            assert orbit.points[0] == min(orbit.points)

    def test_oracle_equivalence_on_random_triples(self):
        for params in random_window_params(seed=444, count=25):
            iv = trapping_interval(params)
            orbits = find_periodic_orbits(params, iv, 2)
            fixed = [o for o in orbits if o.period == 1]
            assert len(fixed) == 1
            assert fixed[0].points[0] == pytest.approx(fixed_point(params), abs=1e-9)
            pair = period2_points(params)
            for o in orbits:
                if o.period != 2:
                    continue
                assert pair is not None
                assert o.points[0] == pytest.approx(pair[0], abs=1e-9)
                assert o.points[1] == pytest.approx(pair[1], abs=1e-9)

    def test_rejects_bad_max_period(self, anchor):
        with pytest.raises(ValueError):
            find_periodic_orbits(anchor, trapping_interval(anchor), 0)
        with pytest.raises(ValueError):
            find_periodic_orbits(anchor, trapping_interval(anchor), 21)

    def test_sharkovskii_evens_accompany_odd(self, anchor):
        iv = trapping_interval(anchor)
        orbits = find_periodic_orbits(anchor, iv, 9)
        periods = {o.period for o in orbits}
        assert any(p >= 3 and p % 2 == 1 for p in periods)
        assert 2 in periods and 4 in periods

    def test_determinism(self, anchor):
        iv = trapping_interval(anchor)
        first = find_periodic_orbits(anchor, iv, 7)
        second = find_periodic_orbits(anchor, iv, 7)
        assert first == second

    @pytest.mark.parametrize("lam,counts", [
        (3.61, [1, 1, 2, 3, 6, 9, 16, 26, 48, 85, 158, 279]),
        (3.9, [1, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]),
    ])
    def test_each_orbit_kept_once_from_its_minimum(self, lam, counts):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
        orbits = find_periodic_orbits(params, trapping_interval(params), 12)
        assert [sum(o.period == n for o in orbits) for n in range(1, 13)] == counts
        assert all(o.points[0] == min(o.points) for o in orbits)
        for n in range(1, 13):
            pts = np.array([o.points for o in orbits if o.period == n])
            gap = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
            np.fill_diagonal(gap, np.inf)
            assert gap.min() > 10 * EPS_ROOT, n

    def test_degenerate_parameter_reports_only_certified_points(self, quiet):
        # at lam = 2.0 the two-cycle merges into the fixed point; anything
        # reported as period 2 must still carry a certified residual and can
        # only sit in the tiny basin where the cycle equation holds to
        # tolerance
        iv = trapping_interval(quiet)
        for orbit in find_periodic_orbits(quiet, iv, 2):
            assert orbit.residual <= 1e-10
            if orbit.period == 2:
                for x in orbit.points:
                    assert x == pytest.approx(1.0, abs=1e-4)


def _reference_orbits(params, interval, n, n_points, eps_root=1e-10):
    """The period-n search for one cell as a plain loop, with scalar parameters."""
    f = price_map(params)

    def F(v):
        y = v
        for _ in range(n):
            y = f(y)
        return y - v

    xs = np.linspace(interval.a, interval.b, n_points)
    roots = []
    for lo, hi in grid_brackets(F(xs), xs):
        roots.append(float(bisect_many(F, np.array([lo]), np.array([hi]))[0]))
    roots = [
        x for x in sorted(roots)
        if all(abs(float(_apply_n_array(f, np.array([x]), d)[0]) - x) > eps_root
               for d in range(1, n) if n % d == 0)
    ]
    rows = []
    for x0 in roots:
        row = [x0]
        for _ in range(n - 1):
            row.append(float(f(np.array([row[-1]]))[0]))
        if abs(float(f(np.array([row[-1]]))[0]) - x0) > eps_root:
            continue
        k = row.index(min(row))
        row = row[k:] + row[:k]
        rows.append((row, abs(float(f(np.array([row[-1]]))[0]) - row[0])))
    kept = []
    for row, res in sorted(rows, key=lambda r: r[0][0]):
        if not any(max(abs(u - v) for u, v in zip(row, o.points)) <= 10.0 * eps_root for o in kept):
            kept.append(PeriodicOrbit(period=n, points=tuple(row), residual=res))
    return kept


def _grid_roots(func, lo, hi, n_points):
    xs = np.linspace(lo, hi, n_points)
    return [refine_root(func, u, v) for u, v in grid_brackets(func(xs), xs)]


def _reference_witness(params, interval, n_points, eps_root=EPS_ROOT):
    """The turbulence-witness search on uniform n_points grids, as (x1, x2, x3)."""
    f = price_map(params)

    def g(x):
        return f(f(x))

    for x1 in _grid_roots(lambda x: g(x) - x, interval.a, interval.b, n_points):
        pre = _grid_roots(lambda x: g(x) - x1, interval.a, interval.b, n_points)
        candidates = sorted((x2 for x2 in pre if abs(x2 - x1) > 10 * eps_root),
                            key=lambda x2: (abs(x2 - x1), x2))
        for x2 in candidates:
            lo, hi = min(x1, x2), max(x1, x2)
            for x3 in _grid_roots(lambda x: g(x) - x2, lo, hi, n_points):
                defects = (g(x1) - x1, g(x2) - x1, g(x3) - x2)
                if lo < x3 < hi and max(map(abs, defects)) <= eps_root:
                    return x1, x2, x3
    return None


def _apply_n_array(f, x, n):
    for _ in range(n):
        x = f(x)
    return x


def _one_cell_calls(params, intervals, max_period, **kw):
    return [find_periodic_orbits(p, iv, max_period, **kw) for p, iv in zip(params, intervals)]


class TestPeriodicOrbitLists:
    """The chunk search against one-cell calls; repr pins every float bit for bit."""

    def test_chunk_equals_one_cell_calls(self, anchor, quiet):
        params = random_window_params(seed=777, count=42) + [anchor, quiet]
        intervals = [trapping_interval(p) for p in params]
        chunk = periodic_orbit_lists(params, intervals, 6, grid_base=2048)
        assert repr(chunk) == repr(_one_cell_calls(params, intervals, 6, grid_base=2048))
        # the chunk saw periods 3 to 6 with several cells bracketing at once
        assert sum(o.period >= 3 for orbits in chunk for o in orbits) > 40

    def test_lap_scan_finds_every_grid_orbit(self, anchor, quiet):
        # the uniform-grid search, kept as a reference: every orbit it finds,
        # the lap scan finds too, with the same period and the same points.
        # At the quiet point's mu = 2, where the two-cycle is born, rounding
        # noise lets both report a "two-cycle" within 1e-4 of the fixed point,
        # each where it happens to sample; such noise cycles are not compared
        for params in random_window_params(seed=779, count=8) + [anchor, quiet]:
            iv = trapping_interval(params)
            got = find_periodic_orbits(params, iv, 5, grid_base=1024)
            z = fixed_point(params)
            for n in range(1, 6):
                for want in _reference_orbits(params, iv, n, 1024 * n):
                    if n > 1 and max(abs(x - z) for x in want.points) <= 1e-4:
                        continue
                    assert any(
                        o.period == n
                        and max(abs(x - y) for x, y in zip(o.points, want.points)) <= 10 * EPS_ROOT
                        for o in got
                    ), (params, want)

    def test_default_grid_equals_one_cell_calls(self, anchor):
        params = [anchor, *random_window_params(seed=778, count=5)]
        intervals = [trapping_interval(p) for p in params]
        chunk = periodic_orbit_lists(params, intervals, 3)
        assert repr(chunk) == repr(_one_cell_calls(params, intervals, 3))

    def test_exact_grid_zero_and_cell_without_brackets(self, anchor):
        # f is one decreasing lap on [0.5, 1.5], whose first halving lands on
        # the anchor's fixed point 1.0, where f(x) - x is exactly zero;
        # f(x) - x < 0 on all of [1.2, 1.3], so that cell has no bracket at all
        exact = TrappingInterval(a=0.5, m=1.0, b=1.5)
        empty = TrappingInterval(a=1.2, m=1.25, b=1.3)
        params = [anchor, anchor, anchor]
        intervals = [trapping_interval(anchor), exact, empty]
        chunk = periodic_orbit_lists(params, intervals, 1, grid_base=3)
        assert repr(chunk) == repr(_one_cell_calls(params, intervals, 1, grid_base=3))
        assert chunk[1] == [find_periodic_orbits(anchor, exact, 1, grid_base=3)[0]]
        assert chunk[1][0].points == (1.0,) and chunk[1][0].residual == 0.0
        assert chunk[2] == []
        chunk = periodic_orbit_lists(params, intervals, 4, grid_base=3)
        assert repr(chunk) == repr(_one_cell_calls(params, intervals, 4, grid_base=3))

    def test_same_cell_twice_is_not_merged(self, anchor):
        iv = trapping_interval(anchor)
        single = find_periodic_orbits(anchor, iv, 4, grid_base=1024)
        assert single
        chunk = periodic_orbit_lists([anchor, anchor], [iv, iv], 4, grid_base=1024)
        assert repr(chunk) == repr([single, single])

    def test_cell_whose_roots_all_fail_the_divisor_filter(self, anchor):
        # below mu = 2 there is no two-cycle: the only root of f(f(x)) - x is
        # the fixed point, which the period-1 divisor explains
        calm = EconomyParams(alpha=0.75, beta=0.5, lam=1.5)
        iv = trapping_interval(calm)
        _, roots = _cycle_roots(*_normal(calm, iv), 2, 2048)
        assert roots.tolist() == pytest.approx([1.0])
        params = [anchor, calm, anchor]
        intervals = [trapping_interval(p) for p in params]
        chunk = periodic_orbit_lists(params, intervals, 2, grid_base=1024)
        assert repr(chunk) == repr(_one_cell_calls(params, intervals, 2, grid_base=1024))
        assert [o.period for o in chunk[1]] == [1]
        assert [o.period for o in chunk[0]] == [1, 2]

    def test_near_equal_roots_of_one_cell_give_one_orbit(self, monkeypatch, anchor):
        # every root found twice, 1e-13 apart: each orbit is kept once, from
        # the first copy, and equal cells are still not merged
        iv = trapping_interval(anchor)
        want = periodic_orbit_lists([anchor, anchor], [iv, iv], 4, grid_base=64)
        real = chaoslab.orbits._cycle_roots

        def doubled(*args):
            owner, roots = real(*args)
            return np.repeat(owner, 2), np.repeat(roots, 2) + np.tile([0.0, 1e-13], roots.size)

        monkeypatch.setattr(chaoslab.orbits, "_cycle_roots", doubled)
        got = periodic_orbit_lists([anchor, anchor], [iv, iv], 4, grid_base=64)
        assert repr(got) == repr(want)
        assert {o.period for o in got[0]} == {1, 2, 3, 4}

    def test_empty_chunk(self):
        assert periodic_orbit_lists([], [], 3) == []


class TestLapScan:
    """The laps of g^n, for the normal form g, and the brackets `_cycle_roots` opens on them."""

    @staticmethod
    def _laps(params, iv, n):
        _, ends = _lap_ends(*_normal(params, iv), n)
        return ends

    def test_laps_are_monotone(self, anchor, quiet):
        # (g^n)' = prod g'(g^j(x)) keeps one sign strictly inside every lap
        # and changes sign from each lap to the next
        for params in [anchor, quiet, *random_window_params(seed=781, count=6)]:
            iv = trapping_interval(params)
            mu, a, b = _normal(params, iv)
            f = normal_map(mu[0])

            def df(x):
                return 1.0 - mu[0] / (x * x)

            for n in range(1, 7):
                ends = self._laps(params, iv, n)
                assert ends[0] == a[0] and ends[-1] == b[0] and np.all(np.diff(ends) > 0)
                signs = []
                for u, v in zip(ends[:-1], ends[1:]):
                    x = u + (v - u) * np.linspace(0.01, 0.99, 25)
                    slope = np.ones_like(x)
                    for _ in range(n):
                        slope, x = slope * df(x), f(x)
                    assert np.all(slope > 0) or np.all(slope < 0), (params, n, u, v)
                    signs.append(slope[0] > 0)
                assert all(s != t for s, t in zip(signs, signs[1:])), (params, n)

    def test_decreasing_lap_with_sign_change_is_one_bracket(self, monkeypatch, anchor, quiet):
        seen = []
        real = chaoslab.orbits.bisect_brackets

        def spy(los, his, owner, cell_func, chunk_func):
            seen.append((np.array(los), np.array(his)))
            return real(los, his, owner, cell_func, chunk_func)

        monkeypatch.setattr(chaoslab.orbits, "bisect_brackets", spy)
        checked = skipped = 0
        for params in [anchor, quiet, *random_window_params(seed=782, count=6)]:
            iv = trapping_interval(params)
            for n in range(1, 8):
                seen.clear()
                cell = _normal(params, iv)
                _cycle_roots(*cell, n, 64 * n)
                ((los, his),) = seen
                ends = self._laps(params, iv, n)
                fn = _apply_n_array(normal_map(cell[0][0]), ends, n)
                for u, v, fu, fv in zip(ends[:-1], ends[1:], fn[:-1], fn[1:]):
                    if fv <= fu and (fu - u) * (fv - v) < 0:
                        inside = (los >= u) & (his <= v)
                        if n % 2 == 1 and n >= 3 and u < 1.0 < v:
                            # the lap around the fixed point 1 of g holds only that point
                            assert inside.sum() == 0, (params, n, u, v)
                            skipped += 1
                            continue
                        assert inside.sum() == 1, (params, n, u, v)
                        assert (los[inside][0], his[inside][0]) == (u, v)
                        checked += 1
        # one lap around 1 for each odd n in 3..7 at each of the 8 points
        assert checked > 100 and skipped == 8 * 3

    def test_exact_zero_at_a_lap_end_is_a_width_zero_bracket(self, anchor):
        # the anchor's fixed point 1.0 is the left end of this interval
        iv = TrappingInterval(a=1.0, m=1.2, b=1.5)
        (orbits,) = periodic_orbit_lists([anchor], [iv], 1, grid_base=4)
        assert orbits == [PeriodicOrbit(period=1, points=(1.0,), residual=0.0)]

    def test_anchor_period15_roots_at_least_the_dense_grid_count(self, anchor):
        # an 8M-point grid sees 26,085 sign changes of f^15(x) - x here, the
        # default 122,880-point grid 12,507
        iv = trapping_interval(anchor)
        _, roots = _cycle_roots(*_normal(anchor, iv), 15, 8192 * 15)
        assert roots.size >= 26085


class TestFindOddCycle:
    def test_anchor_has_one(self, anchor):
        orbit = find_odd_cycle(anchor, trapping_interval(anchor), 15)
        assert orbit is not None
        assert orbit.period % 2 == 1 and orbit.period >= 3
        assert orbit.residual <= 1e-10

    def test_quiet_point_has_none(self, quiet):
        assert find_odd_cycle(quiet, trapping_interval(quiet), 15) is None

    def test_quiet_point_work_count(self, monkeypatch, quiet):
        # array elements pushed through the map, times the iterations; a
        # uniform grid of 8192*n points per odd n pushes 5,564,931
        pushed = []
        real = chaoslab.orbits._iterate_array

        def spy(f, xs, n):
            pushed.append(np.size(xs) * n)
            return real(f, xs, n)

        monkeypatch.setattr(chaoslab.orbits, "_iterate_array", spy)
        assert find_odd_cycle(quiet, trapping_interval(quiet), 15) is None
        assert 0 < sum(pushed) <= 10_000

    def test_matches_the_grid_reference(self, anchor, quiet):
        for params in random_window_params(seed=556, count=20) + [anchor, quiet]:
            iv = trapping_interval(params)
            want = next(
                (orbits[0] for n in range(3, 10, 2)
                 if (orbits := _reference_orbits(params, iv, n, GRID_BASE * n))),
                None,
            )
            got = find_odd_cycle(params, iv, 9)
            assert (got is None) == (want is None), params
            if got is not None:
                assert got.period == want.period, params
                assert got.points == pytest.approx(want.points, rel=1e-12, abs=0.0), params

    def test_found_cycle_implies_chaotic_verdict(self):
        for params in random_window_params(seed=555, count=12):
            iv = trapping_interval(params)
            orbit = find_odd_cycle(params, iv, 9)
            # the early-exit scan must return the full scan's smallest odd orbit
            odd = [
                o for o in find_periodic_orbits(params, iv, 9) if o.period % 2 == 1 and o.period >= 3
            ]
            assert orbit == min(odd, key=lambda o: (o.period, o.points[0]), default=None), params
            if orbit is not None:
                assert classify_closed_form(params).odd_cycle, params


class TestTurbulenceWitness:
    def test_anchor_witness(self, anchor):
        w = find_turbulence_witness(anchor, trapping_interval(anchor))
        assert w is not None
        assert max(w.residuals) <= 1e-10
        assert (w.x1 < w.x3 < w.x2) or (w.x2 < w.x3 < w.x1)
        g = lambda x: step(anchor, step(anchor, x))
        assert g(w.x1) == pytest.approx(w.x1, abs=1e-9)
        assert g(w.x2) == pytest.approx(w.x1, abs=1e-9)
        assert g(w.x3) == pytest.approx(w.x2, abs=1e-9)

    def test_quiet_point_has_none(self, quiet):
        assert find_turbulence_witness(quiet, trapping_interval(quiet)) is None

    @pytest.mark.parametrize("lam,expect", [(2.5, False), (2.7, False), (2.9, True), (3.2, True)])
    def test_onset_matches_threshold(self, lam, expect):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
        w = find_turbulence_witness(params, trapping_interval(params))
        assert (w is not None) is expect

    def test_determinism(self, anchor):
        iv = trapping_interval(anchor)
        assert find_turbulence_witness(anchor, iv) == find_turbulence_witness(anchor, iv)

    def test_matches_the_grid_reference(self, anchor, quiet):
        found = 0
        for params in random_window_params(seed=557, count=40) + [anchor, quiet]:
            iv = trapping_interval(params)
            want = _reference_witness(params, iv, 2 * GRID_BASE)
            got = find_turbulence_witness(params, iv)
            assert (got is None) == (want is None), params
            if got is not None:
                assert (got.x1, got.x2, got.x3) == pytest.approx(want, rel=1e-12, abs=0.0), params
                found += 1
        assert 10 < found < 42

    def test_runs_no_root_search_and_no_lap_scan(self, anchor, quiet, monkeypatch):
        # the fixed points come from gate.normal_pairs, the preimages from the
        # inverse branches of g: nothing in rootfind, and no lap of g^2, is used
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        for module in (chaoslab.rootfind, chaoslab.orbits):
            for name in ROOTFIND_FUNCTIONS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(chaoslab.rootfind, name)))
        for name in ("_cycle_roots", "_lap_ends"):
            monkeypatch.setattr(chaoslab.orbits, name, spy(name, getattr(chaoslab.orbits, name)))
        for params in (anchor, quiet, *random_window_params(seed=559, count=10)):
            iv = trapping_interval(params)
            calls.clear()
            find_turbulence_witness(params, iv)
            assert calls == [], params
        find_odd_cycle(anchor, trapping_interval(anchor), 3)
        assert {"_cycle_roots", "_lap_ends", "bisect_brackets", "piece_brackets"} <= set(calls)

    def test_exists_exactly_from_mu_25_9(self):
        # dense mu across the window, beta log-uniform down to 1e-300 and
        # 1 - alpha down to 1e-9; the verdict is the exact mu of the floats
        rng = np.random.default_rng(560)
        checked = 0
        for mu in np.linspace(1.0, 4.0, 2001)[1:-1].tolist():
            beta = math.exp(rng.uniform(math.log(1e-300), 0.0))
            gap = math.exp(rng.uniform(math.log(1e-9), math.log(0.95)))
            alpha = 1.0 - gap
            params = EconomyParams(alpha=alpha, beta=beta, lam=mu * beta / (8.0 * gap**2))
            exact = 8 * Fraction(params.lam) * (1 - Fraction(alpha)) ** 2 / Fraction(beta)
            if abs(exact - Fraction(25, 9)) <= Fraction(1, 10**6):
                continue
            w = find_turbulence_witness(params, trapping_interval(params))
            assert (w is not None) is (exact >= Fraction(25, 9)), (params, float(exact))
            if w is not None:
                assert max(w.residuals) <= EPS_ROOT
                assert min(w.x1, w.x2) < w.x3 < max(w.x1, w.x2)
            checked += 1
        assert checked == 1999


class TestSearchPeriod3:
    def test_anchor_finds_three_cycle(self, anchor):
        orbit = search_period3(anchor, trapping_interval(anchor))
        assert orbit is not None
        assert orbit.period == 3
        assert orbit.residual <= 1e-10
        # genuinely period three: not a fixed point
        assert abs(step(anchor, orbit.points[0]) - orbit.points[0]) > 1e-6

    def test_is_the_first_three_cycle_of_the_full_scan(self, anchor, quiet):
        found = 0
        upper = random_window_params(seed=558, count=40, frac_range=(0.5, 0.95))
        for params in upper + [anchor, quiet]:
            iv = trapping_interval(params)
            got = search_period3(params, iv)
            full = [o for o in find_periodic_orbits(params, iv, 3) if o.period == 3]
            assert got == (full[0] if full else None), params
            # and against the uniform-grid search at 65,536 points
            grid = _reference_orbits(params, iv, 3, 8 * GRID_BASE)
            assert (got is None) == (not grid), params
            if got is not None:
                assert got.points == pytest.approx(grid[0].points, rel=1e-12, abs=0.0), params
                found += 1
        assert 10 < found < 42

    def test_below_chaos_threshold_empty(self):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=1.5)
        assert search_period3(params, trapping_interval(params)) is None
