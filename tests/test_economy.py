import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    DomainError,
    EconomyParams,
    ThresholdSet,
    TrappingInterval,
    WindowError,
    critical_point,
    excess_demand,
    step,
    thresholds,
    trapping_interval,
)
from chaoslab.economy import Cells, cell_thresholds, normal_form, normal_interval, normal_map
from chaoslab.sweep import mu_of

from conftest import exact_orbit, exact_thresholds, random_window_params


class TestEconomyParams:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            EconomyParams(alpha=alpha, beta=0.5, lam=1.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -1.0, 2.0, float("nan")])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            EconomyParams(alpha=0.5, beta=beta, lam=1.0)

    @pytest.mark.parametrize("lam", [0.0, -3.0, float("nan"), float("inf")])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(ValueError):
            EconomyParams(alpha=0.5, beta=0.5, lam=lam)

    def test_accepts_window_interior(self):
        p = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)
        assert (p.alpha, p.beta, p.lam) == (0.75, 0.5, 3.61)


class TestExcessDemand:
    def test_vanishes_at_fixed_price(self, anchor):
        assert excess_demand(anchor, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_critical_price(self, anchor):
        # exact value -9/19 at p = 1.9
        assert excess_demand(anchor, 1.9) == pytest.approx(-9 / 19, abs=1e-12)

    def test_symmetric_exponents(self):
        p = EconomyParams(alpha=0.5, beta=0.5, lam=1.0)
        assert excess_demand(p, 2.0) == pytest.approx(-1.5, abs=1e-15)

    @pytest.mark.parametrize("price", [0.0, -1.0])
    def test_rejects_nonpositive_price(self, anchor, price):
        with pytest.raises(DomainError):
            excess_demand(anchor, price)


class TestStep:
    def test_descends_from_critical_point(self, anchor):
        assert step(anchor, 1.9) == pytest.approx(0.19, abs=1e-12)

    def test_fixed_point_is_fixed(self, anchor):
        assert step(anchor, 1.0) == 1.0

    def test_rebounds_from_left_end(self, anchor):
        assert step(anchor, 0.19) == pytest.approx(15.58, abs=1e-12)

    def test_matches_exact_oracle_on_random_prices(self):
        for params in random_window_params(seed=101, count=20):
            for p in (0.3, 1.0, 4.7):
                want = exact_orbit(params.alpha, params.beta, params.lam, p, 1)[1]
                assert step(params, p) == pytest.approx(float(want), abs=1e-11)

    def test_rejects_nonpositive_price(self, anchor):
        with pytest.raises(DomainError):
            step(anchor, 0.0)

    def test_may_go_nonpositive_outside_window(self):
        # lam beyond the window may push the price below zero; that is the
        # caller's problem, not an exception
        p = EconomyParams(alpha=0.75, beta=0.5, lam=5.0)
        assert step(p, critical_point(p)) < 0.0


class TestCriticalPoint:
    def test_anchor(self, anchor):
        assert critical_point(anchor) == pytest.approx(1.9, abs=1e-12)

    def test_sqrt_two(self):
        p = EconomyParams(alpha=0.75, beta=0.5, lam=2.0)
        assert critical_point(p) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_lower_threshold_pins_critical_point(self):
        # at lam = lambda_g_low the minimum sits on the diagonal: f(m) = m
        p = EconomyParams(alpha=0.5, beta=0.5, lam=0.25)
        m = critical_point(p)
        assert m == pytest.approx(0.5, abs=1e-12)
        assert step(p, m) == pytest.approx(m, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.75, 0.5), (0.3, 0.8), (0.9, 0.2)])
    def test_lower_threshold_pins_diagonal_everywhere(self, alpha, beta):
        probe = EconomyParams(alpha=alpha, beta=beta, lam=1.0)
        lam = thresholds(probe).lambda_g_low
        p = EconomyParams(alpha=alpha, beta=beta, lam=lam)
        m = critical_point(p)
        assert step(p, m) == pytest.approx(m, abs=1e-12)

    def test_is_the_minimizer(self, anchor):
        m = critical_point(anchor)
        fm = step(anchor, m)
        for k in range(1, 400):
            assert fm <= step(anchor, 0.02 * k) + 1e-12

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 5.0])
    def test_finite_difference_derivative(self, anchor, p):
        h = 1e-5
        fd = (step(anchor, p + h) - step(anchor, p - h)) / (2 * h)
        analytic = 1.0 - 2.0 * anchor.lam * anchor.beta / p**2
        assert fd == pytest.approx(analytic, abs=1e-7)


class TestThresholds:
    def test_anchor_values(self, anchor):
        th = thresholds(anchor)
        want = exact_thresholds(Fraction(3, 4), Fraction(1, 2))
        for got, expect in zip(
            (th.lambda_g_low, th.lambda_pi, th.lambda_chaos, th.lambda_max), want
        ):
            assert got == pytest.approx(float(expect), abs=1e-12)
        assert (th.lambda_g_low, th.lambda_max) == (1.0, 4.0)

    def test_symmetric_values(self):
        th = thresholds(EconomyParams(alpha=0.5, beta=0.5, lam=1.0))
        assert th.lambda_g_low == pytest.approx(0.25, abs=1e-12)
        assert th.lambda_pi == pytest.approx(0.5625, abs=1e-12)
        assert th.lambda_chaos == pytest.approx(25 / 36, abs=1e-12)
        assert th.lambda_max == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, derandomize=True)
    @given(
        alpha=st.floats(0.01, 0.99, allow_nan=False),
        beta=st.floats(0.01, 0.99, allow_nan=False),
    )
    def test_ordering_holds_everywhere(self, alpha, beta):
        th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
        assert th.lambda_g_low < th.lambda_pi < th.lambda_chaos < th.lambda_max

    def test_threshold_set_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            ThresholdSet(lambda_g_low=2.0, lambda_pi=1.0, lambda_chaos=3.0, lambda_max=4.0)


class TestTrappingInterval:
    def test_anchor_interval(self, anchor):
        iv = trapping_interval(anchor)
        assert iv.a == pytest.approx(0.19, abs=1e-12)
        assert iv.m == pytest.approx(1.9, abs=1e-12)
        assert iv.b == pytest.approx(17.48, abs=1e-12)

    def test_quiet_interval(self, quiet):
        iv = trapping_interval(quiet)
        assert iv.a == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)
        assert iv.m == pytest.approx(math.sqrt(2), abs=1e-12)
        assert iv.b == pytest.approx(4 * math.sqrt(2) - 3, abs=1e-12)

    def test_refuses_below_window(self):
        with pytest.raises(WindowError) as err:
            trapping_interval(EconomyParams(alpha=0.75, beta=0.5, lam=0.5))
        assert err.value.bound == "lambda_g_low"
        assert "lambda_g_low = 1.0" in str(err.value)

    def test_refuses_above_window(self):
        with pytest.raises(WindowError) as err:
            trapping_interval(EconomyParams(alpha=0.75, beta=0.5, lam=4.5))
        assert err.value.bound == "lambda_max"

    @pytest.mark.parametrize("lam", [1.0, 4.0])
    def test_refuses_degenerate_boundaries(self, lam):
        with pytest.raises(WindowError):
            trapping_interval(EconomyParams(alpha=0.75, beta=0.5, lam=lam))

    def test_positive_and_ordered_inside_window(self):
        for params in random_window_params(seed=202, count=40):
            iv = trapping_interval(params)
            assert 0.0 < iv.a < iv.m < iv.b

    def test_interval_type_rejects_disorder(self):
        with pytest.raises(ValueError):
            TrappingInterval(a=1.0, m=0.5, b=2.0)


class TestMapShape:
    @settings(max_examples=60, derandomize=True)
    @given(
        p=st.floats(0.1, 50.0, allow_nan=False),
        q=st.floats(0.1, 50.0, allow_nan=False),
        t=st.floats(0.01, 0.99, allow_nan=False),
    )
    def test_convexity(self, p, q, t):
        params = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)
        mid = step(params, t * p + (1 - t) * q)
        chord = t * step(params, p) + (1 - t) * step(params, q)
        assert mid <= chord + 1e-9 * (1.0 + abs(chord))

    def test_minimum_positive_iff_below_lambda_max(self):
        for lam in (1.5, 2.5, 3.9):
            p = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
            assert step(p, critical_point(p)) > 0.0
        for lam in (4.0, 4.2, 6.0):
            p = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
            assert step(p, critical_point(p)) <= 0.0

    def test_minimum_below_diagonal_iff_above_lambda_g_low(self):
        for lam in (1.01, 2.0, 3.9):
            p = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
            assert step(p, critical_point(p)) < critical_point(p)
        for lam in (0.3, 0.9):
            p = EconomyParams(alpha=0.75, beta=0.5, lam=lam)
            assert step(p, critical_point(p)) >= critical_point(p)


class TestCellArrays:
    """Array forms against the scalar functions and the formulas as written."""

    @staticmethod
    def cells(count):
        rng = np.random.default_rng(909)
        out = []
        for _ in range(count):
            alpha, beta = float(rng.uniform(0.001, 0.999)), float(rng.uniform(0.001, 0.999))
            th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
            lam = th.lambda_g_low + float(rng.uniform(0.01, 0.99)) * (th.lambda_max - th.lambda_g_low)
            out.append(EconomyParams(alpha=alpha, beta=beta, lam=lam))
        return out

    @staticmethod
    def arrays(params) -> Cells:
        return Cells.checked(*zip(*((p.alpha, p.beta, p.lam) for p in params)))

    def test_thresholds_match_written_formula_bit_for_bit(self):
        params = self.cells(3000)
        got = [t.tolist() for t in cell_thresholds(self.arrays(params))]
        squares_differ = 0
        for i, p in enumerate(params):
            # float ** 2 is libm pow; an array's ** 2 squares, which differs now and then
            denom = (1.0 - p.alpha) ** 2
            squares_differ += denom != (1.0 - p.alpha) * (1.0 - p.alpha)
            want = (p.beta / (8.0 * denom), 9.0 * p.beta / (32.0 * denom),
                    25.0 * p.beta / (72.0 * denom), p.beta / (2.0 * denom))
            th = thresholds(p)
            assert (th.lambda_g_low, th.lambda_pi, th.lambda_chaos, th.lambda_max) == want
            assert tuple(t[i] for t in got) == want
        assert squares_differ > 0

    def test_normal_form_gives_the_bits_of_mu_of(self):
        params = self.cells(3000)
        cells = self.arrays(params)
        z, mu = (v.tolist() for v in normal_form(cells))
        assert mu == mu_of(cells).tolist()
        for i, p in enumerate(params):
            gap = 1.0 - p.alpha
            want = (p.beta / (2.0 * gap), 8.0 * p.lam * np.float_power(gap, 2.0) / p.beta)
            assert normal_form(p) == want == (z[i], mu[i])
            assert all(type(v) is float for v in normal_form(p))

    def test_normal_map_is_the_canonical_price_map(self):
        xs = np.linspace(0.1, 20.0, 101)
        for mu in (1.5, 2.0, 25 / 9, 3.61, 3.999):
            canonical = EconomyParams(alpha=0.75, beta=0.5, lam=mu)
            assert normal_map(mu)(xs).tobytes() == np.array([step(canonical, x) for x in xs]).tobytes()

    def test_intervals_are_z_times_the_normal_interval(self):
        params = self.cells(500)
        z, mu = normal_form(self.arrays(params))
        a, m, b = (v.tolist() for v in normal_interval(mu))
        for i, p in enumerate(params):
            iv = trapping_interval(p)
            assert (iv.a, iv.m, iv.b) == (z[i] * a[i], z[i] * m[i], z[i] * b[i])
            assert normal_interval(normal_form(p)[1]) == (a[i], m[i], b[i])
            # the raw formula, f(m) and f(f(m)) + m at m = sqrt(2*lam*beta), to rounding
            m_p = math.sqrt(2.0 * p.lam * p.beta)
            a_p = step(p, m_p)
            for got, want in zip((iv.a, iv.m, iv.b), (a_p, m_p, step(p, a_p) + m_p)):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_tiny_prices_get_an_interval_or_a_domain_error(self):
        # 2*lam*beta underflows to 0 here, but z*sqrt(mu) does not: mu = 2
        tiny = EconomyParams(alpha=0.5, beta=1e-200, lam=1e-200)
        assert 2.0 * tiny.lam * tiny.beta == 0.0
        iv = trapping_interval(tiny)
        assert (iv.a, iv.m, iv.b) == tuple(1e-200 * v for v in normal_interval(2.0))
        # one ulp inside the window edges, mu rounds onto them: a = m, and a = 0
        low = thresholds(EconomyParams(alpha=0.75, beta=0.5, lam=1.0)).lambda_g_low
        with pytest.raises(DomainError, match="degenerate interval: need 0 < a < m < b, got a=1.0 m=1.0"):
            trapping_interval(EconomyParams(alpha=0.75, beta=0.5, lam=math.nextafter(low, 2.0)))
        high = thresholds(EconomyParams(alpha=0.9, beta=1e-311, lam=1.0)).lambda_max
        with pytest.raises(DomainError, match="got a=0.0"):
            trapping_interval(EconomyParams(alpha=0.9, beta=1e-311, lam=math.nextafter(high, 0.0)))
