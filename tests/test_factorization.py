"""Symbolic derivation of the facts the gate, the Pi set and the factor check rely on.

With c = 4*(1-alpha), f(f(x)) - x factors as
-2*lam*(c*x - 2*beta)*q(x) / (x**2*f(x)), q(x) = x**2 - c*lam*x + beta*lam,
so the fixed point z = 2*beta/c and the roots of q are the only period <= 2
points; no scan is needed to find them.  The thresholds are taken in the
normal form lam = mu*beta/(8*(1-alpha)**2).  f is convex and x - f(x)
increases, which reduces `gate.gate_check` to comparisons at a, m and b,
and f(u) - f(v) factors, which `verify.check_factor_identity` checks in
floats at u = f^2(m), v = z.  The left-endpoint gap f(a) - a, which the gate
takes in its exact form, and the two iterates of m that the criterion reads
are proven here once, in closed form.
"""

import pytest

sp = pytest.importorskip("sympy")

x, lam, beta, s, mu = sp.symbols("x lam beta s mu", positive=True)  # s = 1 - alpha
c = 4 * s
z = 2 * beta / c


def f(p):
    return p + lam * (2 * beta / p - c)


def q(p):
    return p**2 - c * lam * p + beta * lam


def at_mu(expr, value):
    return sp.simplify(expr.subs(lam, value * beta / (8 * s**2)))


def test_second_iterate_factors_through_q():
    factored = -2 * lam * (c * x - 2 * beta) * q(x) / (x**2 * f(x))
    assert sp.simplify(f(f(x)) - x - factored) == 0
    assert f(z) - z == 0


def test_q_is_positive_at_both_outer_bracket_ends():
    assert sp.simplify(q(z / 2) - beta**2 / c**2) == 0
    assert sp.simplify(q(c * lam) - beta * lam) == 0


def test_pair_is_born_at_the_fixed_point_at_mu_2():
    assert at_mu(q(z), 2) == 0
    # q(z) < 0 exactly when mu > 2
    assert sp.simplify(at_mu(q(z), mu) - beta**2 * (2 - mu) / (8 * s**2)) == 0


def test_pair_meets_the_interval_ends_at_lambda_pi():
    w1, w2 = sorted(sp.solve(q(x), x), key=lambda r: at_mu(r, sp.Rational(9, 4)))
    m = sp.sqrt(2 * lam * beta)
    assert at_mu(w2 - m, sp.Rational(9, 4)) == 0
    assert at_mu(w1 - f(m), sp.Rational(9, 4)) == 0


def test_gate_rests_on_convexity_and_a_rising_diagonal_gap():
    assert sp.simplify(sp.diff(f(x), x, 2) - 4 * lam * beta / x**3) == 0
    assert sp.simplify(sp.diff(x - f(x), x) - 2 * lam * beta / x**2) == 0


def test_map_differences_factor():
    u, v = sp.symbols("u v", positive=True)
    assert sp.simplify(f(u) - f(v) - (u - v) * (1 - 2 * beta * lam / (u * v))) == 0
    # at v = z, the third-iterate gap f(u) - z telescopes into the same two factors
    assert sp.simplify(f(u) - z - (u - z) * (1 - 2 * beta * lam / (u * z))) == 0


m = sp.sqrt(2 * lam * beta)
a = f(m)
square_form = (sp.sqrt(lam) - sp.sqrt(2 * beta) / (4 * s)) ** 2
ANCHOR = {s: sp.Rational(1, 4), beta: sp.Rational(1, 2), lam: sp.Rational(361, 100)}


def test_left_endpoint_gap_is_a_square_over_a():
    # the form `gate.gate_rule` takes for cond_endpoints and its margin
    assert sp.simplify(f(a) - a - (m - a) ** 2 / a) == 0
    assert (f(a) - a).subs(ANCHOR) == sp.Rational(1539, 100)


def test_left_endpoint_gap_is_a_positive_multiple_of_the_square_form():
    # same sign as the gap wherever a > 0, but not the same magnitude
    assert sp.simplify(f(a) - a - 16 * lam * s**2 * square_form / a) == 0
    assert square_form.subs(ANCHOR) == sp.Rational(81, 100)


def test_square_form_vanishes_only_at_mu_1():
    # so the gap is positive on the whole window 1 < mu < 4
    assert sp.simplify(at_mu(square_form, mu) - beta * (sp.sqrt(mu) - 1) ** 2 / (8 * s**2)) == 0


# the normal form g(x) = x + mu*(1/x - 1), with r = sqrt(mu) in (1, 2) on the window
r = sp.symbols("r", positive=True)


def g(x):
    return x + r**2 * (1 / x - 1)


def test_the_normal_form_is_f_in_units_of_z():
    assert sp.simplify(at_mu(f(z * x), r**2) - z * g(x)) == 0
    assert sp.simplify(at_mu(m, r**2) - z * r) == 0


def test_second_iterate_of_m_rises_exactly_from_mu_9_4():
    # every factor but 2r - 3 is positive for 1 < r < 2, so g^2(m) > m exactly
    # when mu > 9/4: the transcribed rule has the opposite direction
    assert sp.simplify(g(g(r)) - r - r * (r - 1) * (2 * r - 3) / (2 - r)) == 0


def test_third_iterate_of_m_passes_the_fixed_point_exactly_at_mu_25_9():
    # 2r^2 - 6r + 5 has discriminant -4, so the sign is that of 3r - 5:
    # g^3(m) > 1 exactly when mu > 25/9
    third = 2 * (r - 1) ** 4 * (3 * r - 5) / ((2 - r) * (2 * r**2 - 6 * r + 5))
    assert sp.simplify(g(g(g(r))) - 1 - third) == 0
    assert sp.discriminant(2 * r**2 - 6 * r + 5, r) == -4
