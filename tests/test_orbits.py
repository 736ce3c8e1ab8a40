import math

import pytest

from chaoslab import (
    DomainError,
    EconomyParams,
    classify_closed_form,
    find_odd_cycle,
    find_periodic_orbits,
    find_turbulence_witness,
    fixed_point,
    iterate,
    period2_points,
    search_period3,
    step,
    trapping_interval,
)

from conftest import exact_orbit, random_window_params


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


class TestFindOddCycle:
    def test_anchor_has_one(self, anchor):
        orbit = find_odd_cycle(anchor, trapping_interval(anchor), 15)
        assert orbit is not None
        assert orbit.period % 2 == 1 and orbit.period >= 3
        assert orbit.residual <= 1e-10

    def test_quiet_point_has_none(self, quiet):
        assert find_odd_cycle(quiet, trapping_interval(quiet), 15) is None

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


class TestSearchPeriod3:
    def test_anchor_finds_three_cycle(self, anchor):
        orbit = search_period3(anchor, trapping_interval(anchor))
        assert orbit is not None
        assert orbit.period == 3
        assert orbit.residual <= 1e-10
        # genuinely period three: not a fixed point
        assert abs(step(anchor, orbit.points[0]) - orbit.points[0]) > 1e-6

    def test_below_chaos_threshold_empty(self):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=1.5)
        assert search_period3(params, trapping_interval(params)) is None
