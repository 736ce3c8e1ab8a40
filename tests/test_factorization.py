"""Symbolic derivation of the facts the gate, the Pi set and the factor check rely on.

With c = 4*(1-alpha), f(f(x)) - x factors as
-2*lam*(c*x - 2*beta)*q(x) / (x**2*f(x)), q(x) = x**2 - c*lam*x + beta*lam,
so the fixed point z = 2*beta/c and the roots of q are the only period <= 2
points; no scan is needed to find them.  The thresholds are taken in the
normal form lam = mu*beta/(8*(1-alpha)**2).  f is convex and x - f(x)
increases, which reduces `gate.gate_check` to comparisons at a, m and b,
and f(u) - f(v) factors, which `verify.check_factor_identity` checks in
floats at u = f^2(m), v = z.
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
