"""Unimodal-gate membership and the two chaos classifiers.

The trapped price map f|E belongs to the admissible class when it is
strictly decreasing then increasing around the interior critical point m,
expands at the left endpoint (f(a) > a), contracts at the right (f(b) < b),
stays below the diagonal on [m, b), and maps E into itself.  For maps in
that class, chaos is decided by two numbers: f^2(m) against m, and f^3(m)
against the extremes of

    Pi = { x in [a, m] : f(x) in [a, m] and f(f(x)) = x },

the period <= 2 points confined to the decreasing branch.  An odd-period
cycle exists iff f^2(m) > m and f^3(m) > max(Pi); the second iterate is
turbulent iff f^2(m) > m and f^3(m) >= min(Pi).

Both tests are implemented twice and cross-checked: `classify_numerical`
evaluates the criterion directly (iteration plus root search for Pi), and
`classify_closed_form` evaluates the equivalent lambda-threshold
inequalities.  Agreement of the two on the whole parameter window is the
package's central invariant and is exercised by the verify suite.
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
    WindowError,
    critical_point,
    price_map,
    price_map_derivative,
    thresholds,
)
from .rootfind import dedupe_sorted, scan_roots

#: default scan density for the Pi-set safety net on [a, m]
PI_SCAN_POINTS = 4096


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
class ThirdIterateFactorReport:
    """f^3(m) - z computed directly and as the telescoped two-factor product."""

    f3_minus_pimax: float
    factor1: float
    factor2: float


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


def _require_window(params: EconomyParams) -> None:
    th = thresholds(params)
    if params.lam <= th.lambda_g_low:
        raise WindowError(
            f"lambda <= lambda_g_low = {th.lambda_g_low!r} (got lambda = {params.lam!r})",
            bound="lambda_g_low",
            bound_value=th.lambda_g_low,
        )
    if params.lam >= th.lambda_max:
        raise WindowError(
            f"lambda >= lambda_max = {th.lambda_max!r} (got lambda = {params.lam!r})",
            bound="lambda_max",
            bound_value=th.lambda_max,
        )


def gate_check(
    params: EconomyParams,
    interval: TrappingInterval,
    n_grid: int = 512,
    *,
    eps_cmp: float = EPS_CMP,
) -> GateReport:
    """Check the four admissibility conditions of f restricted to E.

    Endpoint inequalities are evaluated exactly; the below-diagonal and
    monotonicity conditions on grids of n_grid points (monotonicity via the
    analytic derivative, sampled off the critical point where it vanishes);
    the self-map condition on a closed grid with an eps_cmp-scaled slack
    that absorbs float noise near the minimum, where f(x) ~ a.
    """
    if n_grid < 100:
        raise ValueError(f"n_grid must be >= 100, got {n_grid}")
    a, m, b = interval.a, interval.m, interval.b
    f = price_map(params)
    df = price_map_derivative(params)

    fa = float(f(a))
    fb = float(f(b))
    cond_endpoints = fa > a and fb < b

    xs = np.linspace(m, b, n_grid, endpoint=False)  # [m, b)
    below_gap = xs - f(xs)
    cond_below_diagonal = bool(np.all(below_gap > 0.0))

    left = np.linspace(a, m, n_grid, endpoint=False)  # [a, m)
    right = np.linspace(m, b, n_grid + 1)[1:]  # (m, b]
    cond_unimodal = bool(np.all(df(left) < 0.0) and np.all(df(right) > 0.0))

    grid = np.linspace(a, b, n_grid)
    vals = f(grid)
    slack = eps_cmp * max(1.0, b)
    cond_self_map = bool(vals.max() <= b + slack and vals.min() >= a - slack)

    margin = min(fa - a, b - fb, float(below_gap.min()))
    return GateReport(
        in_class_g=cond_endpoints and cond_below_diagonal and cond_unimodal and cond_self_map,
        cond_endpoints=cond_endpoints,
        cond_below_diagonal=cond_below_diagonal,
        cond_unimodal=cond_unimodal,
        cond_self_map=cond_self_map,
        margin=margin,
    )


def fixed_point(params: EconomyParams) -> float:
    """The unique fixed point z = beta / (2*(1 - alpha)) of the map on (0, inf)."""
    return params.beta / (2.0 * (1.0 - params.alpha))


def _second_iterate_funcs(params: EconomyParams):
    f = price_map(params)
    df = price_map_derivative(params)

    def F(x):
        return f(f(x)) - x

    def dF(x):
        return df(f(x)) * df(x) - 1.0

    return F, dF


def _polish_period2(params: EconomyParams, x: float) -> float:
    # guarded Newton on f(f(x)) - x; keeps the best residual seen
    F, dF = _second_iterate_funcs(params)
    best_x, best_f = x, abs(F(x))
    for _ in range(50):
        d = dF(x)
        if d == 0.0 or not math.isfinite(d):
            break
        nxt = x - F(x) / d
        if not nxt > 0.0 or nxt == x:
            break
        x = nxt
        r = abs(F(x))
        if r < best_f:
            best_x, best_f = x, r
        else:
            break
    return best_x


def period2_points(params: EconomyParams) -> tuple[float, float] | None:
    """The pair of two-cycle prices, or None when no real pair exists.

    Roots of f(f(p)) = p other than the fixed point are
    2*lam*(1-alpha) -/+ sqrt(4*lam**2*(1-alpha)**2 - beta*lam); the pair is
    returned Newton-polished, ordered w1 <= w2.  A zero discriminant
    returns the degenerate pair (both entries equal the fixed point).
    """
    one_minus_alpha = 1.0 - params.alpha
    disc = 4.0 * params.lam**2 * one_minus_alpha**2 - params.beta * params.lam
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    center = 2.0 * params.lam * one_minus_alpha
    w1 = _polish_period2(params, center - root)
    w2 = _polish_period2(params, center + root)
    return (w1, w2) if w1 <= w2 else (w2, w1)


def pi_set(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
    n_scan: int = PI_SCAN_POINTS,
) -> PiSet:
    """Confined period <= 2 points on the decreasing branch [a, m].

    Candidates come first from the closed forms (fixed point, two-cycle
    pair) and then from a sign-change scan of f(f(x)) - x over an
    n_scan-point grid on [a, m] as a safety net; each candidate must lie in
    [a, m], have its image in [a, m], and satisfy the eps_root residual
    bound.  Duplicates merge within 10*eps_root.  The fixed point always
    qualifies inside the window, so an empty result signals a numerics bug
    and raises.
    """
    a, m = interval.a, interval.m
    f = price_map(params)
    F, dF = _second_iterate_funcs(params)

    candidates = [fixed_point(params)]
    pair = period2_points(params)
    if pair is not None:
        candidates.extend(pair)
    candidates.extend(scan_roots(F, dF, a, m, n_scan))

    slack = eps_root
    kept = []
    for x in sorted(candidates):
        if not (a - slack <= x <= m + slack):
            continue
        fx = float(f(x))
        if not (a - slack <= fx <= m + slack):
            continue
        if abs(float(F(x))) > eps_root:
            continue
        kept.append(x)
    merged = dedupe_sorted(kept, 10.0 * eps_root)
    if not merged:
        raise ConsistencyError(
            "no confined period <= 2 point found although the fixed point "
            f"must qualify inside the window (params={params!r})"
        )
    return PiSet(points=tuple(merged))


def classify_closed_form(params: EconomyParams, *, eps_cmp: float = EPS_CMP) -> ChaosVerdict:
    """Threshold-inequality verdict.

    odd_cycle holds strictly between lambda_chaos and lambda_max;
    turbulent_second_iterate from lambda_chaos (inclusive, up to eps_cmp)
    to lambda_max.  The f2/f3/pi fields are filled from the closed-form
    expressions for audit; the verdicts depend only on the thresholds.
    """
    _require_window(params)
    th = thresholds(params)
    m = critical_point(params)
    f = price_map(params)
    a = float(f(m))
    f2m = float(f(a))
    f3m = float(f(f2m))

    z = fixed_point(params)
    pts = [z]
    pair = period2_points(params)
    if pair is not None:
        for w in pair:
            if a <= w <= m and a <= float(f(w)) <= m:
                pts.append(w)

    odd = params.lam > th.lambda_chaos + eps_cmp and params.lam < th.lambda_max
    turbulent = params.lam >= th.lambda_chaos - eps_cmp and params.lam < th.lambda_max
    return ChaosVerdict(
        odd_cycle=odd,
        turbulent_second_iterate=turbulent,
        f2_of_m=f2m,
        f3_of_m=f3m,
        pi_max=max(pts),
        pi_min=min(pts),
        method=Method.CLOSED_FORM,
    )


def classify_numerical(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
    n_scan: int = PI_SCAN_POINTS,
) -> ChaosVerdict:
    """Direct evaluation of the two-condition criterion.

    f^2(m) and f^3(m) come from iteration, the comparison set from
    `pi_set`.  Meaningful once `gate_check` accepts the interval.  Within
    eps_cmp of a threshold the verdict is unreliable (floating point
    cannot resolve equality); the verify suite excludes that band.
    """
    f = price_map(params)
    m = interval.m
    f2m = float(f(f(m)))
    f3m = float(f(f2m))
    pi = pi_set(params, interval, eps_root=eps_root, n_scan=n_scan)
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


def third_iterate_factor_report(
    params: EconomyParams, *, tol: float = 1e-9
) -> ThirdIterateFactorReport:
    """Cross-check f^3(m) - z against its exact two-factor telescoping.

    f(u) - f(v) = (u - v) * (1 - 2*beta*lam/(u*v)) for any u, v > 0, so with
    u = f^2(m) and v = z the gap factors exactly.  Disagreement of the two
    routes beyond tol raises ConsistencyError.  When lam > lambda_pi the
    fixed point is max(Pi), making the gap the margin of the odd-cycle test.
    """
    _require_window(params)
    f = price_map(params)
    m = critical_point(params)
    z = fixed_point(params)
    f2m = float(f(f(m)))
    f3m = float(f(f2m))
    direct = f3m - z
    factor1 = f2m - z
    factor2 = 1.0 - 2.0 * params.beta * params.lam / (f2m * z)
    factored = factor1 * factor2
    if abs(direct - factored) > tol:
        raise ConsistencyError(
            f"third-iterate gap mismatch: direct {direct!r} vs factored {factored!r} "
            f"(params={params!r})"
        )
    return ThirdIterateFactorReport(f3_minus_pimax=direct, factor1=factor1, factor2=factor2)


def endpoint_gap_report(params: EconomyParams) -> EndpointGapReport:
    """Audit the left-endpoint gap f(a) - a and its closed forms."""
    _require_window(params)
    f = price_map(params)
    m = critical_point(params)
    a = float(f(m))
    direct = float(f(a)) - a
    exact_form = (a - m) ** 2 / a
    square_form = (
        math.sqrt(params.lam) - math.sqrt(2.0 * params.beta) / (4.0 * (1.0 - params.alpha))
    ) ** 2
    return EndpointGapReport(direct=direct, exact_form=exact_form, square_form=square_form)
