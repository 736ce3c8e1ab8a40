"""Unimodal-gate membership and the two chaos classifiers.

The trapped price map f|E belongs to the admissible class when it is
strictly decreasing then increasing around the interior critical point m,
expands at the left endpoint (f(a) > a), contracts at the right (f(b) < b),
stays below the diagonal on [m, b), and maps E into itself.  Since
f'' = 4*lam*beta/p**3 > 0 and 1 - f' = 2*lam*beta/p**2 > 0, f is convex
with its minimum a at m and x - f(x) increases, so these reduce to a < m < b,
f(a) > a, f(b) < b and max(f(a), f(b)) <= b (`gate_rule`).  For maps in
that class, chaos is decided by two numbers: f^2(m) against m, and f^3(m)
against the extremes of

    Pi = { x in [a, m] : f(x) in [a, m] and f(f(x)) = x },

the period <= 2 points confined to the decreasing branch.  An odd-period
cycle exists iff f^2(m) > m and f^3(m) > max(Pi); the second iterate is
turbulent iff f^2(m) > m and f^3(m) >= min(Pi).

Pi needs no search.  In the normal form g(x) = x + mu*(1/x - 1) of
`economy`, g(g(x)) - x factors as -mu*(x - 1)*q(x) / (x**2*g(x)) with
q(x) = x**2 - mu*x + mu/2, so its candidates are the fixed point 1 and the
two roots of q (`normal_pairs`).

Both tests are implemented twice and cross-checked: `classify_numerical`
evaluates the criterion directly (iteration plus Pi from those
candidates), and `classify_closed_form` evaluates the equivalent
lambda-threshold inequalities.  Agreement of the two on the whole parameter window is the
package's central invariant and is exercised by the verify suite.

Every numerical step runs on g and is written once, as a rule for floats
and arrays alike: the one-point functions apply it to one cell's floats,
`classify_mus`, which sweeps use, to arrays of mu.  Tolerances compare in
units of z, and results are scaled by z.  Only `gate_check`, kept raw as
a cross-check, and the closed-form verdict use the raw map.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .economy import (
    EPS_CMP,
    EPS_ROOT,
    ConsistencyError,
    EconomyParams,
    TrappingInterval,
    critical_point,
    normal_form,
    normal_interval,
    normal_map,
    price_map,
    require_window,
    thresholds,
)
from .rootfind import bisect_brackets, refine_root


class Method(str, enum.Enum):
    """Which route produced a verdict."""

    CLOSED_FORM = "closed_form"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class GateReport:
    """Verdict and per-condition evidence for admissibility of f|E.

    in_class_g is the conjunction of all four condition flags; margin is
    the smallest slack among the strict inequalities (endpoint expansion,
    endpoint contraction, below-diagonal gap).
    """

    in_class_g: bool
    cond_endpoints: bool
    cond_below_diagonal: bool
    cond_unimodal: bool
    cond_self_map: bool
    margin: float


@dataclass(frozen=True)
class PiSet:
    """Sorted confined period <= 2 points on the decreasing branch."""

    points: tuple[float, ...]

    @property
    def low(self) -> float:
        return self.points[0]

    @property
    def high(self) -> float:
        return self.points[-1]


@dataclass(frozen=True)
class ChaosVerdict:
    """Odd-cycle and turbulence verdicts plus the quantities behind them."""

    odd_cycle: bool
    turbulent_second_iterate: bool
    f2_of_m: float
    f3_of_m: float
    pi_max: float
    pi_min: float
    method: Method


@dataclass(frozen=True)
class SecondIterateSignReport:
    """Sign of f^2(m) - m next to a threshold rule of flipped direction.

    The transcribed rule claims f^2(m) < m exactly when lam < lambda_g_low
    or lam > lambda_pi; direct evaluation gives the opposite on the window
    interior.  Both are reported, nothing is asserted; the direct value is
    authoritative everywhere in this package.
    """

    f2_minus_m: float
    rule_predicts_drop: bool
    observed_drop: bool


@dataclass(frozen=True)
class EndpointGapReport:
    """The left-endpoint expansion gap f(a) - a, three ways.

    exact_form = (a - m)**2 / a equals the direct evaluation identically.
    square_form = (sqrt(lam) - sqrt(2*beta)/(4*(1-alpha)))**2 vanishes on
    the same lambda locus and shares the sign of the gap, but differs from
    it by the positive factor 16*lam*(1-alpha)**2 / a; it is reported for
    audit only and must never be asserted equal to the direct value.
    """

    direct: float
    exact_form: float
    square_form: float


def gate_check(
    params: EconomyParams,
    interval: TrappingInterval,
    n_grid: int = 512,
    *,
    eps_cmp: float = EPS_CMP,
) -> GateReport:
    """Check the four admissibility conditions of f restricted to E, in closed form.

    See `gate_rule`.  n_grid is accepted and ignored: the gate samples no grid.
    """
    a, m, b = interval.a, interval.m, interval.b
    f = price_map(params)
    *flags, margin = gate_rule(f(a), f(b), a, m, b, eps_cmp)
    return GateReport(*map(bool, flags), float(margin))


def gate_rule(fa, fb, a, m, b, eps_cmp):
    """The `GateReport` fields from fa = f(a) and fb = f(b), for floats or arrays alike.

    The map is convex with its minimum a = f(m) at m, so on [a, b] it is
    unimodal when a < m < b, and its maximum is max(f(a), f(b)), which may
    exceed b by an eps_cmp-scaled slack of float noise.  x - f(x) increases,
    so its minimum on [m, b) is m - a, which makes a < m the below-diagonal
    condition.  The expansion f(a) - a equals (m - a)**2/a, positive for
    a > 0 exactly when m != a, so its flag is that comparison: f(a) - a
    cancels to 0 or below next to mu = 1, and (m - a)**2/a underflows to 0
    at tiny prices.  margin is the smallest slack of the strict
    inequalities, with the expansion as that product; 0.0 there means a
    slack below double resolution.
    """
    expansion = (m - a) * ((m - a) / a)
    endpoints = (m != a) & (fb < b)
    below_diagonal = a < m
    unimodal = below_diagonal & (m < b)
    self_map = np.maximum(fa, fb) <= b + eps_cmp * np.maximum(1.0, b)
    margin = np.minimum(np.minimum(expansion, b - fb), m - a)
    in_class_g = endpoints & below_diagonal & unimodal & self_map
    return in_class_g, endpoints, below_diagonal, unimodal, self_map, margin


def fixed_point(params: EconomyParams) -> float:
    """The unique fixed point z = beta / (2*(1 - alpha)) of the map on (0, inf)."""
    return normal_form(params)[0]


def _pair_factor(mu):
    """q(x) = x*(x - mu) + mu/2, the factor of g(g(x)) - x that holds the two-cycle."""
    half = 0.5 * mu
    return lambda x: x * (x - mu) + half


def normal_pairs(mu) -> tuple:
    """The two-cycle pair w1 <= 1 <= w2 of g, the roots of q; nan where there is none.

    q(1) = 1 - mu/2: the pair is born at mu = 2, as (1, 1); for q(1) < 0,
    q > 0 at 1/2 (1/4) and at mu (mu/2), so [1/2, 1] and [1, mu] bracket one
    root each.  A float takes two `refine_root` calls, half the cost of a
    one-element array pass; an array one `bisect_brackets` call.
    """
    q = _pair_factor(mu)
    q1 = q(1.0)
    if isinstance(mu, float):
        if q1 > 0.0:
            return math.nan, math.nan
        if q1 == 0.0:
            return 1.0, 1.0
        return refine_root(q, 0.5, 1.0), refine_root(q, 1.0, mu)
    w1 = np.where(q1 == 0.0, 1.0, np.nan)
    w2 = w1.copy()
    cross = np.flatnonzero(q1 < 0.0)
    n = len(cross)
    mus = mu.tolist()
    roots = bisect_brackets(
        np.concatenate([np.full(n, 0.5), np.ones(n)]),
        np.concatenate([np.ones(n), mu[cross]]),
        np.concatenate([cross, cross]),
        lambda i: _pair_factor(mus[i]),
        lambda owner: _pair_factor(mu[owner]),
    )
    w1[cross], w2[cross] = roots[:n], roots[n:]
    return w1, w2


def period2_points(params: EconomyParams) -> tuple[float, float] | None:
    """The pair of two-cycle prices, ordered w1 <= w2, or None when no real pair exists.

    The pair is z times `normal_pairs`, the roots of q (module docstring).
    It is born at mu = 2, returned as (z, z).
    """
    z, mu = normal_form(params)
    w1, w2 = normal_pairs(mu)
    return None if math.isnan(w1) else (z * w1, z * w2)


def _select(cond, x, y):
    """x where cond holds, else y: `np.where` for arrays, a conditional for floats."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _confined(g, x, lo, hi):
    """x and g(x) both in [lo, hi]."""
    gx = g(x)
    return (lo <= x) & (x <= hi) & (lo <= gx) & (gx <= hi)


def pi_rule(mu, a, m, w1, w2, eps_root):
    """Flags (k1, d2, d3) of the candidates w1 <= 1 <= w2 that are Pi points; floats or arrays.

    In units of z, a candidate and its image must lie within eps_root of
    [a, m] with a g^2 residual of at most eps_root, and a point within
    10*eps_root of the last one kept merges into it.
    """
    g = normal_map(mu)
    lo, hi = a - eps_root, m + eps_root

    def kept(x):
        return _confined(g, x, lo, hi) & (abs(g(g(x)) - x) <= eps_root)

    tol = 10.0 * eps_root
    k1 = kept(w1)
    last = _select(k1, w1, -math.inf)
    d2 = kept(1.0) & (1.0 - last > tol)
    d3 = kept(w2) & (w2 - _select(d2, 1.0, last) > tol)
    return k1, d2, d3


def pi_set(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
) -> PiSet:
    """Confined period <= 2 points on the decreasing branch [a, m].

    By the factorization of g(g(x)) - x (module docstring), the fixed
    point and the two-cycle pair are its only roots, so they are the only
    candidates, and `pi_rule` filters and merges them in units of z.  The
    fixed point always qualifies inside the window, so an empty result
    signals a numerics bug and raises.
    """
    z, mu = normal_form(params)
    w1, w2 = normal_pairs(mu)
    flags = pi_rule(mu, interval.a / z, interval.m / z, w1, w2, eps_root)
    points = tuple(z * x for x, keep in zip((w1, 1.0, w2), flags) if keep)
    if not points:
        raise _empty_pi_set(mu)
    return PiSet(points=points)


def _empty_pi_set(mu: float) -> ConsistencyError:
    return ConsistencyError(
        "no confined period <= 2 point found although the fixed point "
        f"must qualify inside the window (mu={mu!r})"
    )


def classify_closed_form(params: EconomyParams, *, eps_cmp: float = EPS_CMP) -> ChaosVerdict:
    """Threshold-inequality verdict.

    odd_cycle holds strictly between lambda_chaos and lambda_max;
    turbulent_second_iterate from lambda_chaos (inclusive, up to eps_cmp)
    to lambda_max.  The f2/f3/pi fields are filled from the closed-form
    expressions in the normal form, scaled by z, for audit; the verdicts
    depend only on the raw thresholds.
    """
    th = require_window(params)
    odd_cycle, turbulent = closed_form_rule(params.lam, th.lambda_chaos, th.lambda_max, eps_cmp)
    z, mu = normal_form(params)
    a, m, b = normal_interval(mu)
    TrappingInterval(a, m, b)  # DomainError where mu rounds onto a window edge
    audit = _closed_form_audit(mu, a, m, *normal_pairs(mu))
    return ChaosVerdict(odd_cycle, turbulent, *(z * v for v in audit), Method.CLOSED_FORM)


def _closed_form_audit(mu, a, m, w1, w2):
    """The closed form's f2_of_m, f3_of_m, pi_max, pi_min in units of z; floats or arrays alike."""
    g = normal_map(mu)
    f2m = g(a)
    return (
        f2m, g(f2m),
        _select(_confined(g, w2, a, m), w2, 1.0), _select(_confined(g, w1, a, m), w1, 1.0),
    )


def closed_form_rule(lam, lambda_chaos, lambda_max, eps_cmp):
    """(odd_cycle, turbulent_second_iterate) by the thresholds, for floats or arrays alike."""
    below_max = lam < lambda_max
    return (lam > lambda_chaos + eps_cmp) & below_max, (lam >= lambda_chaos - eps_cmp) & below_max


def classify_numerical(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
    n_scan: int | None = None,
) -> ChaosVerdict:
    """Direct evaluation of the two-condition criterion, in units of z.

    g^2(m) and g^3(m) come from iteration, the comparison set from
    `pi_set`.  Meaningful once `gate_check` accepts the interval.  Within
    eps_cmp of a threshold the verdict is unreliable (floating point
    cannot resolve equality); the verify suite excludes that band.
    n_scan is accepted and ignored: `pi_set` has no scan to size.
    """
    pi = pi_set(params, interval, eps_root=eps_root)
    z, mu = normal_form(params)
    g = normal_map(mu)
    m = interval.m / z
    f2m = g(g(m))
    f3m = g(f2m)
    verdict = numerical_rule(f2m, f3m, m, pi.high / z, pi.low / z, eps_cmp)
    return ChaosVerdict(*verdict, z * f2m, z * f3m, pi.high, pi.low, Method.NUMERICAL)


def numerical_rule(f2m, f3m, m, pi_max, pi_min, eps_cmp):
    """(odd_cycle, turbulent_second_iterate) from g^2(m), g^3(m) and Pi; floats or arrays alike."""
    expands = f2m > m + eps_cmp
    return expands & (f3m > pi_max + eps_cmp), expands & (f3m >= pi_min - eps_cmp)


@dataclass(frozen=True)
class MuColumns:
    """The `classify_mus` columns, one element per mu.

    gate holds the `GateReport` fields in order, closed_form and numerical
    the `ChaosVerdict` fields but method; a method not run leaves None.
    """

    gate: tuple[np.ndarray, ...]
    closed_form: tuple[np.ndarray, ...] | None
    numerical: tuple[np.ndarray, ...] | None


def classify_mus(mus, methods, eps_cmp: float = EPS_CMP, eps_root: float = EPS_ROOT) -> MuColumns:
    """`gate_check` and the classifiers in the normal form of each mu, as columns.

    Each mu must lie strictly inside the window (1, 4) with a proper
    interval.  Element i equals the one-point result at (0.75, 0.5, mus[i]),
    where z = 1 and the raw map is g, bit for bit: the rules of the
    one-point routes (`normal_pairs`, `pi_rule`, `numerical_rule`, the
    closed-form audit and `gate_rule`) run on arrays, and the canonical
    thresholds there are exactly 25/9 and 4.  The first mu with an empty
    Pi set raises the ConsistencyError of `pi_set`.
    """
    mu = np.asarray(mus, dtype=float)
    a, m, b = normal_interval(mu)
    w1, w2 = normal_pairs(mu)
    f2m, f3m, *cf_pi = _closed_form_audit(mu, a, m, w1, w2)
    closed_form = numerical = None
    if Method.CLOSED_FORM in methods:
        closed_form = (*closed_form_rule(mu, 25 / 9, 4.0, eps_cmp), f2m, f3m, *cf_pi)
    if Method.NUMERICAL in methods:
        k1, d2, d3 = pi_rule(mu, a, m, w1, w2, eps_root)
        empty = ~(k1 | d2 | d3)
        if empty.any():
            raise _empty_pi_set(mu[np.argmax(empty)].item())
        pi_max = np.where(d3, w2, np.where(d2, 1.0, w1))
        pi_min = np.where(k1, w1, np.where(d2, 1.0, w2))
        verdict = numerical_rule(f2m, f3m, m, pi_max, pi_min, eps_cmp)
        numerical = (*verdict, f2m, f3m, pi_max, pi_min)
    gate = gate_rule(f2m, normal_map(mu)(b), a, m, b, eps_cmp)
    return MuColumns(gate, closed_form, numerical)


def second_iterate_sign_report(params: EconomyParams) -> SecondIterateSignReport:
    """Report (never assert) the sign of f^2(m) - m against the flipped rule."""
    th = thresholds(params)
    f = price_map(params)
    gap = float(f(f(critical_point(params)))) - critical_point(params)
    rule = params.lam < th.lambda_g_low or params.lam > th.lambda_pi
    return SecondIterateSignReport(
        f2_minus_m=gap,
        rule_predicts_drop=rule,
        observed_drop=gap < 0.0,
    )


def endpoint_gap_report(params: EconomyParams) -> EndpointGapReport:
    """Audit the left-endpoint gap f(a) - a and its closed forms."""
    require_window(params)
    f = price_map(params)
    m = critical_point(params)
    a = float(f(m))
    direct = float(f(a)) - a
    exact_form = (a - m) ** 2 / a
    square_form = (
        math.sqrt(params.lam) - math.sqrt(2.0 * params.beta) / (4.0 * (1.0 - params.alpha))
    ) ** 2
    return EndpointGapReport(direct=direct, exact_form=exact_form, square_form=square_form)
