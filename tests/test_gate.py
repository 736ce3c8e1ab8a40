import math
from fractions import Fraction

import numpy as np
import pytest

from chaoslab import (
    ConsistencyError,
    EconomyParams,
    Method,
    WindowError,
    classify_closed_form,
    classify_numerical,
    endpoint_gap_report,
    fixed_point,
    gate_check,
    period2_points,
    pi_set,
    price_map,
    second_iterate_sign_report,
    step,
    third_iterate_factor_report,
    thresholds,
    trapping_interval,
)
from chaoslab.economy import EPS_CMP, EPS_ROOT, Cells, cell_intervals
from chaoslab.gate import _grid_rows, gate_reports, pi_sets
from chaoslab.rootfind import grid_brackets, refine_root

from conftest import exact_orbit, random_window_params

W1_ANCHOR = 1.805 - math.sqrt(1.453025)
W2_ANCHOR = 1.805 + math.sqrt(1.453025)


class TestGateCheck:
    def test_anchor_is_admissible(self, anchor):
        report = gate_check(anchor, trapping_interval(anchor), 512)
        assert report.in_class_g
        assert report.cond_endpoints
        assert report.cond_below_diagonal
        assert report.cond_unimodal
        assert report.cond_self_map
        assert report.margin > 0.0

    def test_quiet_point_is_admissible(self, quiet):
        assert gate_check(quiet, trapping_interval(quiet), 512).in_class_g

    def test_flag_conjunction(self, anchor):
        r = gate_check(anchor, trapping_interval(anchor), 256)
        assert r.in_class_g == (
            r.cond_endpoints and r.cond_below_diagonal and r.cond_unimodal and r.cond_self_map
        )

    def test_admissible_across_window(self):
        for params in random_window_params(seed=303, count=30):
            report = gate_check(params, trapping_interval(params), 256)
            assert report.in_class_g, params

    def test_anchor_margin_is_diagonal_gap(self, anchor):
        # the minimum slack at the anchor is m - f(m) = 1.9 - 0.19
        report = gate_check(anchor, trapping_interval(anchor), 512)
        assert report.margin == pytest.approx(1.71, abs=1e-12)

    def test_rejects_sparse_grid(self, anchor):
        with pytest.raises(ValueError):
            gate_check(anchor, trapping_interval(anchor), 50)


class TestEndpointGap:
    def test_direct_value_at_anchor(self, anchor):
        iv = trapping_interval(anchor)
        assert step(anchor, iv.a) - iv.a == pytest.approx(15.39, abs=1e-10)

    def test_exact_form_matches_direct(self):
        for params in random_window_params(seed=404, count=40):
            rep = endpoint_gap_report(params)
            assert rep.exact_form == pytest.approx(rep.direct, abs=1e-10 * (1 + abs(rep.direct)))

    def test_square_form_shares_sign_only(self, anchor):
        rep = endpoint_gap_report(anchor)
        assert rep.square_form == pytest.approx(0.81, abs=1e-12)
        assert rep.direct == pytest.approx(15.39, abs=1e-10)
        assert rep.square_form > 0.0 and rep.direct > 0.0

    def test_square_form_positive_across_window(self):
        for params in random_window_params(seed=505, count=40):
            rep = endpoint_gap_report(params)
            assert rep.direct > 0.0
            assert rep.square_form > 0.0


class TestFixedPoint:
    def test_anchor(self, anchor):
        assert fixed_point(anchor) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric(self):
        assert fixed_point(EconomyParams(alpha=0.5, beta=0.5, lam=1.0)) == pytest.approx(0.5)

    def test_residual(self):
        for params in random_window_params(seed=606, count=50):
            z = fixed_point(params)
            assert abs(step(params, z) - z) <= 1e-12 * (1.0 + z)


class TestPeriod2Points:
    def test_anchor_pair(self, anchor):
        w1, w2 = period2_points(anchor)
        assert w1 == pytest.approx(W1_ANCHOR, abs=1e-12)
        assert w2 == pytest.approx(W2_ANCHOR, abs=1e-12)

    def test_anchor_pair_cycles(self, anchor):
        w1, w2 = period2_points(anchor)
        assert step(anchor, w1) == pytest.approx(w2, abs=1e-10)
        assert step(anchor, step(anchor, w1)) == pytest.approx(w1, abs=1e-10)
        assert step(anchor, step(anchor, w2)) == pytest.approx(w2, abs=1e-10)

    def test_no_pair_below_discriminant_zero(self):
        assert period2_points(EconomyParams(alpha=0.75, beta=0.5, lam=0.2)) is None

    def test_degenerate_pair_at_discriminant_zero(self):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=2.0)
        w1, w2 = period2_points(params)
        assert w1 == pytest.approx(1.0, abs=1e-12)
        assert w2 == pytest.approx(1.0, abs=1e-12)

    def test_pair_residual(self):
        for params in random_window_params(seed=707, count=50):
            pair = period2_points(params)
            if pair is None:
                continue
            for w in pair:
                f2w = step(params, step(params, w))
                assert abs(f2w - w) <= 1e-9


class TestPiSet:
    def test_anchor_singleton(self, anchor):
        pi = pi_set(anchor, trapping_interval(anchor))
        assert len(pi.points) == 1
        assert pi.points[0] == pytest.approx(1.0, abs=1e-10)

    def test_anchor_exclusions(self, anchor):
        # w2 lies right of the critical point; w1 maps onto w2, hence outside
        iv = trapping_interval(anchor)
        w1, w2 = period2_points(anchor)
        assert w2 > iv.m
        assert iv.a <= w1 <= iv.m
        assert not (iv.a <= step(anchor, w1) <= iv.m)

    def test_three_points_below_lambda_pi(self):
        # between the discriminant zero (lam = 2) and lambda_pi (2.25) the
        # two-cycle lives on the decreasing branch, so Pi has three points
        params = EconomyParams(alpha=0.75, beta=0.5, lam=2.1)
        iv = trapping_interval(params)
        pi = pi_set(params, iv)
        w1, w2 = period2_points(params)
        assert len(pi.points) == 3
        assert pi.points[0] == pytest.approx(w1, abs=1e-9)
        assert pi.points[1] == pytest.approx(1.0, abs=1e-10)
        assert pi.points[2] == pytest.approx(w2, abs=1e-9)

    def test_membership_and_residuals(self):
        for params in random_window_params(seed=808, count=30):
            iv = trapping_interval(params)
            pi = pi_set(params, iv)
            for x in pi.points:
                assert iv.a - 1e-10 <= x <= iv.m + 1e-10
                fx = step(params, x)
                assert iv.a - 1e-10 <= fx <= iv.m + 1e-10
                assert abs(step(params, fx) - x) <= 1e-10

    def test_singleton_above_lambda_pi(self):
        for params in random_window_params(seed=909, count=40, frac_range=(0.45, 0.95)):
            th = thresholds(params)
            if params.lam <= th.lambda_pi:
                continue
            pi = pi_set(params, trapping_interval(params))
            assert len(pi.points) == 1
            assert pi.points[0] == pytest.approx(fixed_point(params), abs=1e-10)

    def test_matches_a_dense_scan_of_the_second_iterate(self):
        # a grid scan as the reference: every confined root of f(f(x)) - x
        # that a 4096-point grid on [a, m] brackets is a Pi point,
        # and every Pi point is such a root.  Near mu = 2 the pair merges with
        # the fixed point into a triple root, where rounding noise fakes roots
        rng = np.random.default_rng(1515)
        checked = skipped = 0
        for k in range(300):
            alpha = float(rng.uniform(0.05, 0.95))
            beta = math.exp(rng.uniform(math.log(1e-3), math.log(0.95)))
            mu = float(rng.uniform(2.0, 2.25) if k % 3 == 0 else rng.uniform(1.0, 4.0))
            params = EconomyParams(alpha=alpha, beta=beta, lam=mu * beta / (8 * (1 - alpha) ** 2))
            if abs(mu - 2.0) <= 1e-4:
                skipped += 1
                continue
            iv = trapping_interval(params)
            f = price_map(params)

            def F(x):
                return f(f(x)) - x

            xs = np.linspace(iv.a, iv.m, 4096)
            roots = [refine_root(F, lo, hi) for lo, hi in grid_brackets(F(xs), xs)]
            confined = [
                x for x in roots
                if iv.a - EPS_ROOT <= x <= iv.m + EPS_ROOT
                and iv.a - EPS_ROOT <= f(x) <= iv.m + EPS_ROOT
                and abs(F(x)) <= EPS_ROOT
            ]
            points = pi_set(params, iv).points
            tol = 10 * EPS_ROOT
            for x in confined:
                assert min(abs(x - y) for y in points) <= tol, (params, confined, points)
            for y in points:
                assert min(abs(x - y) for x in confined) <= tol, (params, confined, points)
            checked += 1
        print(f"{checked} cells checked, {skipped} skipped within 1e-4 of mu = 2")
        assert skipped <= 3


class TestClosedFormClassifier:
    def test_anchor_chaotic(self, anchor):
        v = classify_closed_form(anchor)
        assert v.odd_cycle and v.turbulent_second_iterate
        assert v.method is Method.CLOSED_FORM

    def test_quiet_point(self, quiet):
        v = classify_closed_form(quiet)
        assert not v.odd_cycle and not v.turbulent_second_iterate

    def test_boundary_split(self):
        # exactly at lambda_chaos the strict odd-cycle bound fails but the
        # non-strict turbulence bound holds
        params = EconomyParams(alpha=0.75, beta=0.5, lam=25 / 9)
        v = classify_closed_form(params)
        assert not v.odd_cycle
        assert v.turbulent_second_iterate

    def test_rejects_outside_window(self):
        with pytest.raises(WindowError):
            classify_closed_form(EconomyParams(alpha=0.75, beta=0.5, lam=0.5))
        with pytest.raises(WindowError):
            classify_closed_form(EconomyParams(alpha=0.75, beta=0.5, lam=4.0))

    def test_audit_fields_match_iteration(self, anchor):
        v = classify_closed_form(anchor)
        orbit = exact_orbit("0.75", "0.5", "3.61", "1.9", 3)
        assert v.f2_of_m == pytest.approx(float(orbit[2]), abs=1e-9)
        assert v.f3_of_m == pytest.approx(float(orbit[3]), abs=1e-9)
        assert v.pi_max == pytest.approx(1.0, abs=1e-12)


class TestNumericalClassifier:
    def test_anchor_chaotic(self, anchor):
        v = classify_numerical(anchor, trapping_interval(anchor))
        assert v.odd_cycle and v.turbulent_second_iterate
        assert v.method is Method.NUMERICAL
        assert v.f2_of_m == pytest.approx(15.58, abs=1e-9)
        assert v.f2_of_m > 1.9
        assert v.f3_of_m == pytest.approx(12.201707317073171, abs=1e-9)
        assert v.pi_max == pytest.approx(1.0, abs=1e-10)

    def test_quiet_point(self, quiet):
        v = classify_numerical(quiet, trapping_interval(quiet))
        assert not v.odd_cycle and not v.turbulent_second_iterate
        assert v.f2_of_m == pytest.approx(3 * math.sqrt(2) - 3, abs=1e-12)
        assert v.f2_of_m < math.sqrt(2)

    @pytest.mark.parametrize("n_scan", [64, 4096, 65536])
    def test_quiet_point_pi_noise_stays_at_the_fixed_point(self, quiet, n_scan):
        # at mu = 2 exactly, f(f(x)) - x has a triple root at the fixed point
        # 1.0 and rounding noise changes its sign anywhere within about 5e-6
        # of it; the Pi set is {1}, with no noise roots beside it, whatever
        # scan size classify_numerical is handed (it ignores n_scan)
        iv = trapping_interval(quiet)
        assert pi_set(quiet, iv).points == (1.0,)
        v = classify_numerical(quiet, iv, n_scan=n_scan)
        assert v.pi_min == v.pi_max == 1.0
        assert v == classify_numerical(quiet, iv)
        for v in (v, classify_closed_form(quiet)):
            assert not v.odd_cycle and not v.turbulent_second_iterate

    def test_pair_meets_the_interval_ends_at_lambda_pi(self):
        # at lam = lambda_pi = 2.25, w2 = m = 1.5 and w1 = a = 0.75
        params = EconomyParams(alpha=0.75, beta=0.5, lam=2.25)
        iv = trapping_interval(params)
        assert period2_points(params) == (0.75, 1.5)
        assert pi_set(params, iv).points == (0.75, 1.0, 1.5)
        for v in (classify_numerical(params, iv), classify_closed_form(params)):
            assert (v.pi_min, v.pi_max) == (0.75, 1.5)

    def test_odd_cycle_implies_turbulent(self):
        for params in random_window_params(seed=111, count=60):
            v = classify_numerical(params, trapping_interval(params))
            if v.odd_cycle:
                assert v.turbulent_second_iterate

    def test_verdicts_reconstruct_from_fields(self):
        for params in random_window_params(seed=666, count=40):
            iv = trapping_interval(params)
            v = classify_numerical(params, iv)
            expands = v.f2_of_m > iv.m + 1e-12
            assert v.odd_cycle == (expands and v.f3_of_m > v.pi_max + 1e-12)
            assert v.turbulent_second_iterate == (expands and v.f3_of_m >= v.pi_min - 1e-12)

    def test_agrees_with_closed_form(self):
        for params in random_window_params(seed=222, count=80):
            th = thresholds(params)
            if abs(params.lam - th.lambda_chaos) <= 1e-6 * th.lambda_chaos:
                continue
            cf = classify_closed_form(params)
            num = classify_numerical(params, trapping_interval(params))
            assert cf.odd_cycle == num.odd_cycle, params
            assert cf.turbulent_second_iterate == num.turbulent_second_iterate, params


class TestSecondIterateSignReport:
    def test_anchor_discrepancy(self, anchor):
        rep = second_iterate_sign_report(anchor)
        assert rep.f2_minus_m == pytest.approx(13.68, abs=1e-9)
        assert rep.rule_predicts_drop is True
        assert rep.observed_drop is False

    def test_quiet_point_flips_the_other_way(self, quiet):
        rep = second_iterate_sign_report(quiet)
        assert rep.f2_minus_m == pytest.approx(2 * math.sqrt(2) - 3, abs=1e-12)
        assert rep.rule_predicts_drop is False
        assert rep.observed_drop is True

    def test_threshold_boundary_is_a_zero(self):
        rep = second_iterate_sign_report(EconomyParams(alpha=0.75, beta=0.5, lam=2.25))
        assert abs(rep.f2_minus_m) < 1e-9


class TestThirdIterateFactorReport:
    def test_anchor_factors(self, anchor):
        rep = third_iterate_factor_report(anchor)
        assert rep.f3_minus_pimax == pytest.approx(11.201707317073171, abs=1e-9)
        assert rep.factor1 == pytest.approx(14.58, abs=1e-9)
        assert rep.factor2 == pytest.approx(1.0 - 3.61 / 15.58, abs=1e-9)
        assert rep.factor1 > 0.0

    def test_sign_identity(self):
        for params in random_window_params(seed=333, count=50):
            rep = third_iterate_factor_report(params)
            lhs = math.copysign(1.0, rep.f3_minus_pimax)
            rhs = math.copysign(1.0, rep.factor1 * rep.factor2)
            if abs(rep.f3_minus_pimax) > 1e-12:
                assert lhs == rhs

    def test_rejects_outside_window(self):
        with pytest.raises(WindowError):
            third_iterate_factor_report(EconomyParams(alpha=0.75, beta=0.5, lam=0.9))


class TestChunkForms:
    @pytest.mark.parametrize("n, endpoint", [(256, False), (257, True), (2, True), (1, False)])
    def test_grid_rows_are_linspace_rows(self, n, endpoint):
        rng = np.random.default_rng(n)
        start = rng.uniform(0.0, 3.0, 40)
        stop = start + rng.uniform(0.0, 20.0, 40)
        stop[0] = start[0]  # a zero-width row
        start[1], stop[1] = 0.0, 4e-322  # a step that underflows to 0 for n > 100
        got = _grid_rows(start, stop, n, endpoint=endpoint)
        for row, lo, hi in zip(got, start, stop):
            assert row.tobytes() == np.linspace(lo, hi, n, endpoint=endpoint).tobytes()

    def test_gate_reports_equal_gate_check_per_cell(self):
        params = random_window_params(seed=515, count=70, frac_range=(0.0, 1.0))
        a, m, b = cell_intervals(Cells.of(params))
        for n_grid in (100, 256):
            want = [gate_check(p, trapping_interval(p), n_grid) for p in params]
            assert gate_reports(params, a, m, b, n_grid, EPS_CMP) == want

    def test_pi_sets_equal_pi_set_per_cell(self):
        params = random_window_params(seed=516, count=70, frac_range=(0.0, 1.0))
        a, m, _ = cell_intervals(Cells.of(params))
        pairs = [period2_points(p) for p in params]
        want = [pi_set(p, trapping_interval(p)) for p in params]
        assert pi_sets(params, a, m, pairs, EPS_ROOT) == want


@pytest.mark.parametrize("lam, bound", [(0.5, "lambda_g_low"), (1.0, "lambda_g_low"),
                                        (4.0, "lambda_max"), (9.0, "lambda_max")])
def test_one_window_check_everywhere(lam, bound):
    params = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
    with pytest.raises(WindowError) as want:
        trapping_interval(params)
    assert want.value.bound == bound
    for check in (classify_closed_form, third_iterate_factor_report, endpoint_gap_report):
        with pytest.raises(WindowError) as got:
            check(params)
        assert str(got.value) == str(want.value)
        assert (got.value.bound, got.value.bound_value) == (bound, want.value.bound_value)
