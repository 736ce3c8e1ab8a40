import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chaoslab import (
    ChaosVerdict,
    ConsistencyError,
    EconomyParams,
    GateReport,
    Method,
    WindowError,
    classify_closed_form,
    classify_numerical,
    fixed_point,
    gate_check,
    period2_points,
    pi_set,
    price_map,
    second_iterate_sign_report,
    step,
    thresholds,
    trapping_interval,
)
from chaoslab.economy import EPS_CMP, EPS_ROOT, DomainError, TrappingInterval
from chaoslab.gate import classify_mus, gate_rule, normal_pairs
from chaoslab.rootfind import refine_root

from conftest import exact_orbit, grid_brackets, random_window_params

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

    def test_gate_rule_flags_each_condition(self):
        # a proper trapping interval always has a < m < b and max(f(a), f(b)) < b + slack
        # when its endpoints hold, so each flag is checked here on hand-made values;
        # the left endpoint expands by (m - a)**2/a whatever fa is, as f(a) - a does
        # when a = f(m), so fa = a (a cancelled f(a) - a) still expands and a = m does not
        slack = EPS_CMP * 4.0
        cases = [  # (fa, fb, a, m, b), then the six GateReport fields
            ((3.0, 3.5, 1.0, 2.0, 4.0), (True, True, True, True, True, 0.5)),
            ((1.0, 3.5, 1.0, 2.0, 4.0), (True, True, True, True, True, 0.5)),
            ((3.0, 3.5, 1.0, 1.5, 4.0), (True, True, True, True, True, 0.25)),
            ((3.0, 3.5, 1.0, 4.0, 4.0), (False, True, True, False, True, 0.5)),
            ((3.0, 3.5, 2.0, 2.0, 4.0), (False, False, False, False, True, 0.0)),
            ((4.0 + slack / 2, 3.5, 1.0, 2.0, 4.0), (True, True, True, True, True, 0.5)),
            ((4.0 + slack * 2, 3.5, 1.0, 2.0, 4.0), (False, True, True, True, False, 0.5)),
            ((0.5, 4.5, 1.0, 2.0, 4.0), (False, False, True, True, False, -0.5)),
        ]
        for args, want in cases:
            assert tuple(v.item() if hasattr(v, "item") else v for v in gate_rule(*args, EPS_CMP)) == want
        columns = gate_rule(*(np.array(v) for v in zip(*(args for args, _ in cases))), EPS_CMP)
        assert [tuple(v.tolist()) for v in columns] == [tuple(v) for v in zip(*(w for _, w in cases))]

    def test_endpoint_flag_holds_where_the_expansion_underflows(self):
        # m - a is subnormal at these raw prices, so (m - a)**2/a rounds to 0: the flag
        # comes from m != a, and margin reads 0.0, a slack below double resolution
        params = EconomyParams(0.9639226296885613, 1.2676254552298135e-299, 1.217394166340804e-297)
        interval = trapping_interval(params)
        assert 0.0 < interval.m - interval.a < sys.float_info.min
        report = gate_check(params, interval)
        assert report.in_class_g and report.cond_endpoints
        assert report.margin == 0.0

    def test_grid_size_is_ignored(self, anchor):
        interval = trapping_interval(anchor)
        assert gate_check(anchor, interval, 50) == gate_check(anchor, interval)


class TestEndpointGap:
    # its exact forms, (m - a)**2/a and a positive multiple of a square, are
    # proven in tests/test_factorization.py
    def test_direct_value_at_anchor(self, anchor):
        iv = trapping_interval(anchor)
        assert step(anchor, iv.a) - iv.a == pytest.approx(15.39, abs=1e-10)


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

    def test_one_ulp_inside_the_window_edges_gives_a_verdict_or_domain_error(self):
        # mu can round onto 1 or 4 there, where g has no proper interval: at 4 a = 0,
        # and the audit float g(a) would divide by it
        rng = np.random.default_rng(24)
        raised = {True: 0, False: 0}
        for alpha, beta in rng.uniform(0.05, 0.95, (3000, 2)).tolist():
            th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
            for upper, lam in ((False, math.nextafter(th.lambda_g_low, math.inf)),
                               (True, math.nextafter(th.lambda_max, 0.0))):
                params = EconomyParams(alpha=alpha, beta=beta, lam=lam)
                try:
                    trapping_interval(params)
                except DomainError:
                    with pytest.raises(DomainError, match="degenerate interval"):
                        classify_closed_form(params)
                    raised[upper] += 1
                else:
                    v = classify_closed_form(params)
                    assert (v.odd_cycle, v.turbulent_second_iterate) == (upper, upper)
        assert raised[True] > 100 and raised[False] > 100

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


def _grid_rows(start: np.ndarray, stop: np.ndarray, n: int, *, endpoint: bool) -> np.ndarray:
    """Row i is np.linspace(start[i], stop[i], n, endpoint=endpoint), bit for bit."""
    div = n - 1 if endpoint else n
    delta = stop - start
    step = delta / div
    ramp = np.arange(n, dtype=float)
    rows = ramp * step[:, None] + start[:, None]
    if not step.all():  # linspace scales by delta last when the step underflows to 0
        flat = step == 0.0
        rows[flat] = (ramp / div) * delta[flat, None] + start[flat, None]
    if endpoint and n > 1:
        rows[:, -1] = stop
    return rows


def raw_interval(p: EconomyParams) -> TrappingInterval:
    """E as the raw map gives it, m = sqrt(2*lam*beta), a = f(m), b = f(a) + m.

    `trapping_interval` is z times the interval of the normal form, equal to
    this to rounding; on this one, a = f(m) exactly, so the sampled minimum
    of x - f(x) on [m, b) is m - a, and the sampled gate's margin matches
    the closed form's bit for bit.
    """
    m = math.sqrt(2.0 * p.lam * p.beta)
    a = step(p, m)
    return TrappingInterval(a=a, m=m, b=step(p, a) + m)


def gate_reports(params, intervals, n_grid, eps_cmp) -> list[GateReport]:
    """The sampled gate, as reference: each condition checked on grids of n_grid points per cell.

    Below-diagonal on [m, b), monotonicity by the sign of f' on [a, m) and
    (m, b], the self-map condition on [a, b] with the gate's slack.  f and
    f' are the raw formulas, as `price_map` and `price_map_derivative`
    write them, over a column per cell.  The endpoint conditions are point
    checks; f(a) - a is taken as (m - a)**2/a, its value at a = f(m).
    """
    alpha, beta, lam = (np.array([getattr(p, k) for p in params])[:, None] for k in ("alpha", "beta", "lam"))
    a, m, b = (np.array([getattr(iv, k) for iv in intervals]) for k in ("a", "m", "b"))

    def f(p):
        return p + lam * (2.0 * beta / p - 4.0 * (1.0 - alpha))

    def df(p):
        return 1.0 - 2.0 * lam * beta / (p * p)

    xs = _grid_rows(m, b, n_grid, endpoint=False)  # [m, b)
    below_gap = xs - f(xs)
    left = _grid_rows(a, m, n_grid, endpoint=False)  # [a, m)
    right = _grid_rows(m, b, n_grid + 1, endpoint=True)[:, 1:]  # (m, b]
    unimodal = (df(left) < 0.0).all(axis=-1) & (df(right) > 0.0).all(axis=-1)
    vals = f(_grid_rows(a, b, n_grid, endpoint=True))
    out = []
    for p, a_p, m_p, b_p, below, below_min, uni, v_max, v_min in zip(
        params, a.tolist(), m.tolist(), b.tolist(),
        (below_gap > 0.0).all(axis=-1).tolist(), below_gap.min(axis=-1).tolist(),
        unimodal.tolist(), vals.max(axis=-1).tolist(), vals.min(axis=-1).tolist(),
    ):
        fb = step(p, b_p)
        expansion = (m_p - a_p) * ((m_p - a_p) / a_p)
        endpoints = expansion > 0.0 and fb < b_p
        slack = eps_cmp * max(1.0, b_p)
        self_map = v_max <= b_p + slack and v_min >= a_p - slack
        out.append(GateReport(
            endpoints and below and uni and self_map, endpoints, below, uni, self_map,
            min(expansion, b_p - fb, below_min),
        ))
    return out


def pi_reference(params: EconomyParams, interval: TrappingInterval, eps_root: float):
    """Pi by a list filter and a sorted merge, written apart from `gate.pi_rule`.

    The candidates 1 and the `period2_points` pair, sorted, are kept when
    they and their images lie within eps_root of [a, m] and their second
    iterate returns within eps_root; a kept point within 10*eps_root of the
    last one kept merges into it.  Returns (kept, merged).  Needs z = 1, as
    at alpha = 0.75, beta = 0.5.
    """
    f = price_map(params)
    lo, hi = interval.a - eps_root, interval.m + eps_root
    kept = [
        x for x in sorted([1.0, *(period2_points(params) or ())])
        if lo <= x <= hi and lo <= f(x) <= hi and abs(f(f(x)) - x) <= eps_root
    ]
    merged: list[float] = []
    for x in kept:
        if merged and x - merged[-1] <= 10.0 * eps_root:
            continue
        merged.append(x)
    return kept, merged


def _bits(values) -> list[str]:
    return [repr(v) for v in values]


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
        # the sampled gate agrees with the closed form on every flag, and on the
        # margin bit for bit, once mu is 1e-9 or more above the window's low edge
        rng = np.random.default_rng(2022)
        params = []
        for k in range(5000):
            alpha = float(rng.uniform(0.02, 0.98))
            beta = math.exp(rng.uniform(math.log(1e-3), math.log(0.98)))
            mu = 1.0 + 10.0 ** rng.uniform(-9.0, -1.0) if k % 4 == 0 else rng.uniform(1.0 + 1e-9, 4.0)
            params.append(EconomyParams(alpha, beta, mu * beta / (8.0 * (1.0 - alpha) ** 2)))
        intervals = [raw_interval(p) for p in params]
        want = [gate_check(p, iv) for p, iv in zip(params, intervals)]
        for p, w in zip(params, want):
            # the interval that classify uses gets the same flags, down to mu - 1 = 1e-9
            got = gate_check(p, trapping_interval(p))
            assert got == replace(w, margin=got.margin)
            assert got.margin == pytest.approx(w.margin, rel=1e-6)
        for n_grid in (256, 512):
            for i in range(0, len(params), 500):
                got = gate_reports(params[i:i + 500], intervals[i:i + 500], n_grid, EPS_CMP)
                for g, w in zip(got, want[i:i + 500]):
                    assert g == w and repr(g.margin) == repr(w.margin)

    def test_sampled_gate_rejects_a_cell_next_to_mu_1_that_the_closed_form_accepts(self):
        # mu - 1 = 1.3e-14: f' rounds to 0 at the grid points next to m, and
        # f(a) - a to -2.2e-16 on this interval, where (m - a)**2/a is 4.6e-29
        params = EconomyParams(0.8128619422290805, 0.41110317319336825, 1.4673597645044116)
        interval = trapping_interval(params)
        assert abs(8.0 * params.lam * (1.0 - params.alpha) ** 2 / params.beta - 1.0) < 1e-13
        assert gate_check(params, interval).in_class_g
        for n_grid in (256, 512):
            [sampled] = gate_reports([params], [interval], n_grid, EPS_CMP)
            assert not sampled.in_class_g and not sampled.cond_unimodal
            assert sampled.cond_endpoints and sampled.cond_below_diagonal and sampled.cond_self_map

    def test_the_gate_accepts_every_mu_next_to_1(self):
        # f(a) - a cancels to 0 or below for mu - 1 under about 2e-8; (m - a)**2/a does not
        mu = 1.0 + np.logspace(-15.0, -6.0, 3001)
        gate = classify_mus(mu, (Method.NUMERICAL,)).gate
        assert gate[0].all() and (gate[-1] > 0.0).all()
        rng = np.random.default_rng(77)
        for _ in range(300):
            alpha, beta = float(rng.uniform(0.02, 0.98)), float(rng.uniform(1e-3, 0.98))
            mu = 1.0 + 10.0 ** rng.uniform(-14.0, -6.0)
            params = EconomyParams(alpha, beta, mu * beta / (8.0 * (1.0 - alpha) ** 2))
            assert gate_check(params, trapping_interval(params)).in_class_g, params

    @pytest.mark.parametrize("methods", [
        (Method.CLOSED_FORM, Method.NUMERICAL), (Method.CLOSED_FORM,), (Method.NUMERICAL,),
    ])
    def test_classify_mus_equals_the_one_point_routes_per_cell(self, methods):
        rng = np.random.default_rng(516)
        exact = [2.0, 2.25]
        mus = [*exact, *(math.nextafter(x, d) for x in exact for d in (0.0, 5.0))]
        mus += (25 / 9 + rng.uniform(-1e-6, 1e-6, 200)).tolist()
        mus += rng.uniform(1.0 + 1e-9, 4.0, 1800).tolist()
        mus = sorted(set(mus))
        assert len(mus) >= 2000
        cols = classify_mus(mus, methods)
        pairs = normal_pairs(np.asarray(mus))
        assert (cols.closed_form is None) == (Method.CLOSED_FORM not in methods)
        assert (cols.numerical is None) == (Method.NUMERICAL not in methods)
        for i, mu in enumerate(mus):
            params = EconomyParams(alpha=0.75, beta=0.5, lam=mu)
            interval = trapping_interval(params)
            gate = gate_check(params, interval)
            assert GateReport(*(v[i].item() for v in cols.gate)) == gate
            assert repr(cols.gate[-1][i].item()) == repr(gate.margin)
            pair = period2_points(params)
            got_pair = [v[i].item() for v in pairs]
            assert _bits(got_pair) == (["nan", "nan"] if pair is None else _bits(pair))
            for column, route in ((cols.closed_form, lambda: classify_closed_form(params)),
                                  (cols.numerical, lambda: classify_numerical(params, interval))):
                if column is not None:
                    want = route()
                    got = ChaosVerdict(*(v[i].item() for v in column), want.method)
                    assert got == want and _bits(vars(got).values()) == _bits(vars(want).values())

    def test_classify_mus_merges_candidates_as_pi_set_does(self):
        # with eps_root = 1e-3 the merge width 1e-2 joins the pair to the fixed point
        # for mu up to about 2 + 2e-4, and the pair to itself a little beyond;
        # the default eps_root merges only at mu = 2, where the pair is (1, 1)
        for eps_root in (1e-3, EPS_ROOT):
            self._check_pi_against_the_reference(eps_root)

    def _check_pi_against_the_reference(self, eps_root):
        rng = np.random.default_rng(543)
        mus = (2.0 + np.linspace(0.0, 1e-3, 400)).tolist() + rng.uniform(1.0 + 1e-9, 4.0, 200).tolist()
        cols = classify_mus(mus, (Method.NUMERICAL,), eps_root=eps_root)
        merged = 0
        for i, mu in enumerate(mus):
            params = EconomyParams(alpha=0.75, beta=0.5, lam=mu)
            interval = trapping_interval(params)
            kept, want_points = pi_reference(params, interval, eps_root)
            assert pi_set(params, interval, eps_root=eps_root).points == tuple(want_points)
            assert (cols.numerical[4][i], cols.numerical[5][i]) == (want_points[-1], want_points[0])
            merged += len(want_points) < len(kept)
            want = classify_numerical(params, interval, eps_root=eps_root)
            got = ChaosVerdict(*(v[i].item() for v in cols.numerical), want.method)
            assert _bits(vars(got).values()) == _bits(vars(want).values())
        assert 0 < merged < len(mus)

    def test_classify_mus_raises_the_error_of_pi_set_for_the_first_failing_cell(self):
        # a negative residual bound confines no candidate, not even the fixed point
        with pytest.raises(ConsistencyError) as got:
            classify_mus([3.0, 1.5], (Method.NUMERICAL,), eps_root=-1.0)
        params = EconomyParams(alpha=0.75, beta=0.5, lam=3.0)
        with pytest.raises(ConsistencyError) as want:
            pi_set(params, trapping_interval(params), eps_root=-1.0)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("lam, bound", [(0.5, "lambda_g_low"), (1.0, "lambda_g_low"),
                                        (4.0, "lambda_max"), (9.0, "lambda_max")])
def test_one_window_check_everywhere(lam, bound):
    params = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
    with pytest.raises(WindowError) as want:
        trapping_interval(params)
    assert want.value.bound == bound
    with pytest.raises(WindowError) as got:
        classify_closed_form(params)
    assert str(got.value) == str(want.value)
    assert (got.value.bound, got.value.bound_value) == (bound, want.value.bound_value)
