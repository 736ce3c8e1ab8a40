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

Pi needs no search: with c = 4*(1-alpha), f(f(x)) - x factors as
-2*lam*(c*x - 2*beta)*q(x) / (x**2*f(x)), q(x) = x**2 - c*lam*x + beta*lam,
so its candidates are the fixed point and the two roots of q
(`period2_points`).

Both tests are implemented twice and cross-checked: `classify_numerical`
evaluates the criterion directly (iteration plus Pi from those
candidates), and `classify_closed_form` evaluates the equivalent
lambda-threshold inequalities.  Agreement of the two on the whole parameter window is the
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
    Cells,
    ConsistencyError,
    EconomyParams,
    TrappingInterval,
    critical_point,
    price_map,
    price_map_derivative,
    require_window,
    thresholds,
)
from .rootfind import dedupe_sorted, refine_root


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
    a, m, b = (np.array([v]) for v in (interval.a, interval.m, interval.b))
    return gate_reports([params], a, m, b, n_grid, eps_cmp)[0]


def gate_reports(
    params: list[EconomyParams],
    a: np.ndarray,
    m: np.ndarray,
    b: np.ndarray,
    n_grid: int,
    eps_cmp: float,
) -> list[GateReport]:
    """`gate_check` of every cell of a chunk; a, m and b are the cells' intervals.

    The grids are (cells x n_grid) arrays, so memory grows with the chunk.
    """
    if n_grid < 100:
        raise ValueError(f"n_grid must be >= 100, got {n_grid}")
    # each cell's parameters as a column against its row of grid points
    columns = Cells(*(v[:, None] for v in Cells.of(params)))
    f = price_map(columns)
    df = price_map_derivative(columns)

    xs = _grid_rows(m, b, n_grid, endpoint=False)  # [m, b)
    below_gap = xs - f(xs)

    left = _grid_rows(a, m, n_grid, endpoint=False)  # [a, m)
    right = _grid_rows(m, b, n_grid + 1, endpoint=True)[:, 1:]  # (m, b]
    unimodal = (df(left) < 0.0).all(axis=-1) & (df(right) > 0.0).all(axis=-1)

    vals = f(_grid_rows(a, b, n_grid, endpoint=True))
    return [
        _gate_report(*cell, eps_cmp)
        for cell in zip(
            params, a.tolist(), m.tolist(), b.tolist(),
            (below_gap > 0.0).all(axis=-1).tolist(), below_gap.min(axis=-1).tolist(),
            unimodal.tolist(), vals.max(axis=-1).tolist(), vals.min(axis=-1).tolist(),
        )
    ]


def _gate_report(
    params, a, m, b, below_diagonal, below_min, unimodal, vals_max, vals_min, eps_cmp
) -> GateReport:
    # one cell, on Python floats, from the reductions of its grid rows
    f = price_map(params)
    fa = float(f(a))
    fb = float(f(b))
    cond_endpoints = fa > a and fb < b
    slack = eps_cmp * max(1.0, b)
    cond_self_map = vals_max <= b + slack and vals_min >= a - slack
    return GateReport(
        in_class_g=cond_endpoints and below_diagonal and unimodal and cond_self_map,
        cond_endpoints=cond_endpoints,
        cond_below_diagonal=below_diagonal,
        cond_unimodal=unimodal,
        cond_self_map=cond_self_map,
        margin=min(fa - a, b - fb, below_min),
    )


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


def fixed_point(params: EconomyParams) -> float:
    """The unique fixed point z = beta / (2*(1 - alpha)) of the map on (0, inf)."""
    return params.beta / (2.0 * (1.0 - params.alpha))


def _second_iterate(params: EconomyParams | Cells):
    f = price_map(params)

    def F(x):
        return f(f(x)) - x

    return F


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
    a, m = np.array([interval.a]), np.array([interval.m])
    return pi_sets([params], a, m, [period2_points(params)], eps_root)[0]


def pi_sets(
    params: list[EconomyParams],
    a: np.ndarray,
    m: np.ndarray,
    pairs: list[tuple[float, float] | None],
    eps_root: float,
) -> list[PiSet]:
    """`pi_set` of every cell of a chunk, given its intervals and `period2_points`."""
    out = []
    for p, a_p, m_p, pair in zip(params, a.tolist(), m.tolist(), pairs):
        f = price_map(p)
        F = _second_iterate(p)
        lo, hi = a_p - eps_root, m_p + eps_root
        kept = [
            x for x in sorted([fixed_point(p), *(pair or ())])
            if lo <= x <= hi and lo <= float(f(x)) <= hi and abs(float(F(x))) <= eps_root
        ]
        merged = dedupe_sorted(kept, 10.0 * eps_root)
        if not merged:
            raise ConsistencyError(
                "no confined period <= 2 point found although the fixed point "
                f"must qualify inside the window (params={p!r})"
            )
        out.append(PiSet(points=tuple(merged)))
    return out


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


def closed_form_audits(
    params: list[EconomyParams],
    m: np.ndarray,
    pairs: list[tuple[float, float] | None],
) -> list[tuple[float, float, float, float]]:
    """The audit floats f2_of_m, f3_of_m, pi_max, pi_min of `classify_closed_form`, per cell.

    m holds the cells' critical points, pairs their `period2_points`.
    """
    return [_closed_form_audit(*cell) for cell in zip(params, m.tolist(), pairs)]


def _closed_form_audit(params, m, pair) -> tuple[float, float, float, float]:
    # one cell, on Python floats: as arrays this costs a lone call three times more
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


def numerical_verdicts(
    params: list[EconomyParams],
    m: np.ndarray,
    pis: list[PiSet],
    eps_cmp: float,
) -> list[ChaosVerdict]:
    """`classify_numerical` of every cell of a chunk, from its m and `pi_sets`."""
    return [_numerical_verdict(p, mi, pi, eps_cmp) for p, mi, pi in zip(params, m.tolist(), pis)]


def _numerical_verdict(params, m, pi, eps_cmp) -> ChaosVerdict:
    # one cell, on Python floats, as _closed_form_verdict
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
    require_window(params)
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
