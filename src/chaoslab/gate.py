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

Pi needs no search: with c = 4*(1-alpha), f(f(x)) - x factors as
-2*lam*(c*x - 2*beta)*q(x) / (x**2*f(x)), q(x) = x**2 - c*lam*x + beta*lam,
so its candidates are the fixed point and the two roots of q
(`period2_points`).

Both tests are implemented twice and cross-checked: `classify_numerical`
evaluates the criterion directly (iteration plus Pi from those
candidates), and `classify_closed_form` evaluates the equivalent
lambda-threshold inequalities.  Agreement of the two on the whole parameter window is the
package's central invariant and is exercised by the verify suite.

The one-point functions run on Python floats.  `classify_mus` runs every
step at once, as array expressions, on the canonical cells (0.75, 0.5, mu)
that sweeps classify, and gives each cell the bits of the one-point route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .economy import (
    EPS_CMP,
    EPS_ROOT,
    Cells,
    ConsistencyError,
    EconomyParams,
    TrappingInterval,
    cell_intervals,
    cell_thresholds,
    critical_point,
    price_map,
    require_window,
    thresholds,
)
from .rootfind import bisect_brackets, dedupe_sorted, refine_root


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
    condition.  margin is the smallest slack of the strict inequalities.
    """
    endpoints = (fa > a) & (fb < b)
    below_diagonal = a < m
    unimodal = below_diagonal & (m < b)
    self_map = np.maximum(fa, fb) <= b + eps_cmp * np.maximum(1.0, b)
    margin = np.minimum(np.minimum(fa - a, b - fb), m - a)
    in_class_g = endpoints & below_diagonal & unimodal & self_map
    return in_class_g, endpoints, below_diagonal, unimodal, self_map, margin


def fixed_point(params: EconomyParams) -> float:
    """The unique fixed point z = beta / (2*(1 - alpha)) of the map on (0, inf)."""
    return params.beta / (2.0 * (1.0 - params.alpha))


def period2_points(params: EconomyParams) -> tuple[float, float] | None:
    """The pair of two-cycle prices, ordered w1 <= w2, or None when no real pair exists.

    The pair is the roots of q(x) = x**2 - c*lam*x + beta*lam, the factor
    of f(f(x)) - x other than the fixed point z (module docstring).  It is
    born at q(z) = 0 (mu = 2), returned as (z, z).  For q(z) < 0, q > 0 at
    z/2 (beta**2/c**2) and at c*lam (beta*lam), so each of [z/2, z] and
    [z, c*lam] brackets one root, which `refine_root` bisects.
    """
    c = 4.0 * (1.0 - params.alpha)
    c_lam = c * params.lam
    beta_lam = params.beta * params.lam

    def q(x):
        return x * (x - c_lam) + beta_lam

    z = fixed_point(params)
    qz = q(z)
    if qz > 0.0:
        return None
    if qz == 0.0:
        return z, z
    return refine_root(q, 0.5 * z, z), refine_root(q, z, c_lam)


def pi_set(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
) -> PiSet:
    """Confined period <= 2 points on the decreasing branch [a, m].

    By the factorization of f(f(x)) - x (module docstring), the fixed
    point and the two-cycle pair are its only roots, so they are the only
    candidates.  Each must lie in [a, m], have its image in [a, m], and
    satisfy the eps_root residual bound.  Duplicates merge within
    10*eps_root.  The fixed point always qualifies inside the window, so
    an empty result signals a numerics bug and raises.
    """
    f = price_map(params)
    lo, hi = interval.a - eps_root, interval.m + eps_root
    kept = [
        x for x in sorted([fixed_point(params), *(period2_points(params) or ())])
        if lo <= x <= hi and lo <= f(x) <= hi and abs(f(f(x)) - x) <= eps_root
    ]
    merged = dedupe_sorted(kept, 10.0 * eps_root)
    if not merged:
        raise _empty_pi_set(params)
    return PiSet(points=tuple(merged))


def _empty_pi_set(params: EconomyParams) -> ConsistencyError:
    return ConsistencyError(
        "no confined period <= 2 point found although the fixed point "
        f"must qualify inside the window (params={params!r})"
    )


def classify_closed_form(params: EconomyParams, *, eps_cmp: float = EPS_CMP) -> ChaosVerdict:
    """Threshold-inequality verdict.

    odd_cycle holds strictly between lambda_chaos and lambda_max;
    turbulent_second_iterate from lambda_chaos (inclusive, up to eps_cmp)
    to lambda_max.  The f2/f3/pi fields are filled from the closed-form
    expressions for audit; the verdicts depend only on the thresholds.
    """
    th = require_window(params)
    m, pair = critical_point(params), period2_points(params)
    f2m, f3m, pi_max, pi_min = _closed_form_audit(params, m, pair)
    odd_cycle, turbulent = closed_form_rule(params.lam, th.lambda_chaos, th.lambda_max, eps_cmp)
    return ChaosVerdict(odd_cycle, turbulent, f2m, f3m, pi_max, pi_min, Method.CLOSED_FORM)


def closed_form_rule(lam, lambda_chaos, lambda_max, eps_cmp):
    """(odd_cycle, turbulent_second_iterate) by the thresholds, for floats or arrays alike."""
    below_max = lam < lambda_max
    return (lam > lambda_chaos + eps_cmp) & below_max, (lam >= lambda_chaos - eps_cmp) & below_max


def _closed_form_audit(params, m, pair) -> tuple[float, float, float, float]:
    # one cell, on Python floats: as arrays this costs a lone call three times more;
    # classify_mus is the array form
    f = price_map(params)
    a = float(f(m))
    f2m = float(f(a))
    f3m = float(f(f2m))
    pts = [fixed_point(params)]
    if pair is not None:
        for w in pair:
            if a <= w <= m and a <= float(f(w)) <= m:
                pts.append(w)
    return f2m, f3m, max(pts), min(pts)


def classify_numerical(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
    n_scan: int | None = None,
) -> ChaosVerdict:
    """Direct evaluation of the two-condition criterion.

    f^2(m) and f^3(m) come from iteration, the comparison set from
    `pi_set`.  Meaningful once `gate_check` accepts the interval.  Within
    eps_cmp of a threshold the verdict is unreliable (floating point
    cannot resolve equality); the verify suite excludes that band.
    n_scan is accepted and ignored: `pi_set` has no scan to size.
    """
    pi = pi_set(params, interval, eps_root=eps_root)
    return _numerical_verdict(params, interval.m, pi, eps_cmp)


def _numerical_verdict(params, m, pi, eps_cmp) -> ChaosVerdict:
    # one cell, on Python floats, as _closed_form_audit
    f = price_map(params)
    f2m = float(f(f(m)))
    f3m = float(f(f2m))
    expands = f2m > m + eps_cmp
    return ChaosVerdict(
        odd_cycle=expands and f3m > pi.high + eps_cmp,
        turbulent_second_iterate=expands and f3m >= pi.low - eps_cmp,
        f2_of_m=f2m,
        f3_of_m=f3m,
        pi_max=pi.high,
        pi_min=pi.low,
        method=Method.NUMERICAL,
    )


@dataclass(frozen=True)
class MuColumns:
    """The `classify_mus` columns, one element per mu.

    gate holds the `GateReport` fields in order, pair the `period2_points`
    pair (nan where there is none), closed_form and numerical the
    `ChaosVerdict` fields but method; a method not run leaves None.
    """

    gate: tuple[np.ndarray, ...]
    pair: tuple[np.ndarray, np.ndarray]
    closed_form: tuple[np.ndarray, ...] | None
    numerical: tuple[np.ndarray, ...] | None


def classify_mus(mus, methods, eps_cmp: float = EPS_CMP, eps_root: float = EPS_ROOT) -> MuColumns:
    """`gate_check`, `period2_points` and the classifiers of the cells (0.75, 0.5, mu), as columns.

    Each mu must lie strictly inside the window (1, 4) with a proper
    interval.  There 2*beta = 4*(1-alpha) = 1, so the map is
    g(x) = x + mu*(1/x - 1) with fixed point 1, and q(x) = x*(x - mu) + mu/2.
    Element i equals the one-point result at lam = mus[i] bit for bit: the
    same float operations run elementwise, the pair comes from one
    `bisect_brackets` call, and the Pi filter of `pi_set` is a set of masks
    over the sorted candidates w1 <= 1 <= w2.  The first cell with an empty
    Pi set raises the ConsistencyError of `pi_set`.
    """
    mu = np.asarray(mus, dtype=float)
    cells = Cells(np.full_like(mu, 0.75), np.full_like(mu, 0.5), mu)
    f = price_map(cells)
    a, m, b = cell_intervals(cells)
    f2m = f(a)
    f3m = f(f2m)
    w1, w2 = _canonical_pairs(mu)
    closed_form = numerical = None
    if Method.CLOSED_FORM in methods:
        th = cell_thresholds(cells)

        def confined(w):
            fw = f(w)
            return (a <= w) & (w <= m) & (a <= fw) & (fw <= m)

        closed_form = (
            *closed_form_rule(mu, th[2], th[3], eps_cmp), f2m, f3m,
            np.where(confined(w2), w2, 1.0), np.where(confined(w1), w1, 1.0),
        )
    if Method.NUMERICAL in methods:
        lo, hi = a - eps_root, m + eps_root

        def kept(x):
            fx = f(x)
            return (lo <= x) & (x <= hi) & (lo <= fx) & (fx <= hi) & (np.abs(f(fx) - x) <= eps_root)

        k1, k2, k3 = kept(w1), kept(np.ones_like(mu)), kept(w2)
        empty = ~(k1 | k2 | k3)
        if empty.any():
            raise _empty_pi_set(EconomyParams(alpha=0.75, beta=0.5, lam=mu[np.argmax(empty)]))
        # dedupe_sorted: a point within 10*eps_root of the last one kept merges into it
        tol = 10.0 * eps_root
        d2 = k2 & ~(k1 & (1.0 - w1 <= tol))
        d3 = k3 & ~((k1 | d2) & (w2 - np.where(d2, 1.0, w1) <= tol))
        pi_max = np.where(d3, w2, np.where(d2, 1.0, w1))
        pi_min = np.where(k1, w1, np.where(d2, 1.0, w2))
        expands = f2m > m + eps_cmp
        numerical = (
            expands & (f3m > pi_max + eps_cmp), expands & (f3m >= pi_min - eps_cmp),
            f2m, f3m, pi_max, pi_min,
        )
    gate = gate_rule(f(a), f(b), a, m, b, eps_cmp)
    return MuColumns(gate, (w1, w2), closed_form, numerical)


def _canonical_pairs(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`period2_points` of the cells (0.75, 0.5, mu) as two columns, nan where there is none."""
    def q_of(mu):
        half = 0.5 * mu
        return lambda x: x * (x - mu) + half

    q1 = q_of(mu)(1.0)
    w1 = np.where(q1 == 0.0, 1.0, np.nan)
    w2 = w1.copy()
    cross = np.flatnonzero(q1 < 0.0)
    n = len(cross)
    mus = mu.tolist()
    roots = bisect_brackets(
        np.concatenate([np.full(n, 0.5), np.ones(n)]),
        np.concatenate([np.ones(n), mu[cross]]),
        np.concatenate([cross, cross]),
        lambda i: q_of(mus[i]),
        lambda owner: q_of(mu[owner]),
    )
    w1[cross], w2[cross] = roots[:n], roots[n:]
    return w1, w2


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
