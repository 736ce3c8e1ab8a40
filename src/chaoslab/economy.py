"""Price-adjustment map of a two-consumer, two-good exchange economy.

A single relative price p > 0 adjusts in discrete time proportionally to
excess demand:

    f(p) = p + lam * z(p),        z(p) = 2*beta/p - 4*(1 - alpha),

where alpha, beta in (0, 1) are the consumers' demand exponents and
lam > 0 is the adjustment speed.  The map is strictly convex on (0, inf)
(f''(p) = 4*lam*beta/p**3 > 0) and takes its minimum at
m = sqrt(2*lam*beta), so it is unimodal: strictly decreasing left of m,
strictly increasing right of m.

Restricted to E = [f(m), f(f(m)) + m] the map sends E into itself exactly
when lam lies strictly inside the window

    lambda_g_low < lam < lambda_max,
    lambda_g_low = beta / (8*(1-alpha)**2),
    lambda_max   = beta / (2*(1-alpha)**2),

and E is then the domain on which all classification in this package
operates.  Two interior thresholds subdivide the window:

    lambda_pi    = 9*beta / (32*(1-alpha)**2)   -- above it, the period <= 2
                   points confined to the decreasing branch collapse to the
                   fixed point alone;
    lambda_chaos = 25*beta / (72*(1-alpha)**2)  -- onset of odd-period
                   cycles (strictly above) and of a turbulent second
                   iterate (at or above).

With the fixed point z = beta/(2*(1-alpha)) as price scale and
mu = 8*lam*(1-alpha)**2/beta, f(p) = z*g(p/z) for the normal form
g(x) = x + mu*(1/x - 1), with window 1 < mu < 4.  Every numerical route
runs on g, with prices of order 1, and scales its results by z; the
thresholds, the closed-form verdict, the raw gate and trajectories use f.

All operations are pure functions of immutable inputs and are safe to call
concurrently.  The normal form and the thresholds also take arrays, with
the same arithmetic in the same order, so an element gets the bits it
would get on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

#: absolute tolerance for comparisons against analytic thresholds
EPS_CMP = 1e-12
#: residual tolerance for accepting a numeric root as a certificate
EPS_ROOT = 1e-10


class DomainError(ValueError):
    """A price, or a threshold ordering, that the parameters cannot resolve in doubles.

    Raised for a price argument outside (0, inf), and for thresholds that
    round out of order; inside the window both happen only when the
    parameters are too small for double precision.
    """


class WindowError(ValueError):
    """Adjustment speed outside the open window (lambda_g_low, lambda_max).

    Attributes:
        bound: name of the violated bound, "lambda_g_low" or "lambda_max".
        bound_value: numeric value of that bound.
    """

    def __init__(self, message: str, *, bound: str, bound_value: float):
        super().__init__(message)
        self.bound = bound
        self.bound_value = bound_value


class ConsistencyError(RuntimeError):
    """Two routes to the same quantity disagree beyond tolerance."""


@dataclass(frozen=True)
class EconomyParams:
    """Demand exponents and adjustment speed defining the price map.

    alpha and beta must lie strictly in (0, 1); lam must be positive.
    Construction rejects anything else (including NaN).
    """

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        # normalize numpy scalars and ints so verdict booleans stay native
        for name in ("alpha", "beta", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie strictly in (0, 1), got {self.beta!r}")
        if not self.lam > 0.0 or math.isinf(self.lam):
            raise ValueError(f"lam must be a positive finite real, got {self.lam!r}")


class Cells(NamedTuple):
    """A chunk of parameter cells: alpha, beta and lam as equal-shape float arrays.

    Stands in for EconomyParams in `normal_form` and `cell_thresholds`,
    evaluating them cell by cell.  Build them with `checked`; a bare
    Cells(...) is not validated.
    """

    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray

    @classmethod
    def checked(cls, alpha, beta, lam) -> Cells:
        """Float cells from equal-shape sequences; the first bad cell raises as EconomyParams."""
        a, b, lam = cells = cls(*(np.asarray(v, dtype=float) for v in (alpha, beta, lam)))
        ok = (0.0 < a) & (a < 1.0) & (0.0 < b) & (b < 1.0) & (0.0 < lam) & (lam < math.inf)
        if not ok.all():
            EconomyParams(*(float(v[np.argmin(ok)]) for v in cells))
        return cells


@dataclass(frozen=True)
class ThresholdSet:
    """The four lambda thresholds of the classification, in increasing order."""

    lambda_g_low: float
    lambda_pi: float
    lambda_chaos: float
    lambda_max: float

    def __post_init__(self):
        # coefficients 1/8 < 9/32 < 25/72 < 1/2 force this for every valid economy
        if not (self.lambda_g_low < self.lambda_pi < self.lambda_chaos < self.lambda_max):
            # only a beta near the smallest doubles rounds them out of order
            raise DomainError(
                "threshold ordering violated: expected "
                f"{self.lambda_g_low!r} < {self.lambda_pi!r} < "
                f"{self.lambda_chaos!r} < {self.lambda_max!r}"
            )


@dataclass(frozen=True)
class TrappingInterval:
    """The invariant interval E = [a, b] with the interior critical point m."""

    a: float
    m: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < self.m < self.b:
            raise DomainError(
                f"degenerate interval: need 0 < a < m < b, got a={self.a!r} m={self.m!r} b={self.b!r}"
            )


def excess_demand(params: EconomyParams, p: float) -> float:
    """Excess demand z(p) = 2*beta/p - 4*(1 - alpha) at price p > 0."""
    if not p > 0.0:
        raise DomainError(f"price must be positive, got {p!r}")
    return 2.0 * params.beta / p - 4.0 * (1.0 - params.alpha)


def step(params: EconomyParams, p: float) -> float:
    """One adjustment step f(p) = p + lam * z(p).

    The result may be non-positive when lam is large; the caller decides
    whether that is an error (orbit recording treats it as escape).
    """
    return p + params.lam * excess_demand(params, p)


def critical_point(params: EconomyParams) -> float:
    """The minimizer m = sqrt(2*lam*beta) of the (strictly convex) map."""
    return math.sqrt(2.0 * params.lam * params.beta)


def _threshold_values(alpha, beta):
    # np.float_power is libm pow, as float ** 2 is; numpy's array ** 2 squares,
    # which rounds differently for about one input in a thousand
    denom = np.float_power(1.0 - alpha, 2.0)
    return (
        beta / (8.0 * denom),
        9.0 * beta / (32.0 * denom),
        25.0 * beta / (72.0 * denom),
        beta / (2.0 * denom),
    )


def thresholds(params: EconomyParams) -> ThresholdSet:
    """The four lambda thresholds, computed exactly as written (no rearrangement)."""
    return ThresholdSet(*map(float, _threshold_values(params.alpha, params.beta)))


def cell_thresholds(cells: Cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`thresholds` of every cell: lambda_g_low, lambda_pi, lambda_chaos, lambda_max arrays.

    Raises the DomainError of `ThresholdSet` for the first cell out of order.
    """
    th = _threshold_values(cells.alpha, cells.beta)
    ordered = (th[0] < th[1]) & (th[1] < th[2]) & (th[2] < th[3])
    if not ordered.all():
        ThresholdSet(*(float(t[np.argmin(ordered)]) for t in th))
    return th


def require_window(params: EconomyParams) -> ThresholdSet:
    """The thresholds, once lam is checked to lie strictly inside the window.

    Raises WindowError naming the violated bound: the interval E
    degenerates at the bounds, f(m) = m at the lower, f(m) = 0 at the upper.
    """
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
    return th


def trapping_interval(params: EconomyParams) -> TrappingInterval:
    """Build E = [f(m), f(f(m)) + m] around the critical point m.

    Refuses (rather than clamps) when lam is at or outside the window
    bounds, since the interval degenerates there: f(m) = m at the lower
    bound, f(m) = 0 at the upper.  The error names the violated bound.
    It is z times the interval of g, so lam*beta is never formed; a price
    that rounds to 0, or onto its neighbour, raises DomainError.
    """
    require_window(params)
    z, mu = normal_form(params)
    return TrappingInterval(*(z * v for v in normal_interval(mu)))


def normal_form(params: EconomyParams | Cells) -> tuple:
    """(z, mu) = (beta/(2*(1-alpha)), 8*lam*(1-alpha)**2/beta), so that f(p) = z*g(p/z).

    Floats for EconomyParams; for Cells, arrays with each cell's bits.
    """
    gap = 1.0 - params.alpha
    # libm pow for floats and arrays alike, as in _threshold_values
    square = gap ** 2 if isinstance(gap, float) else np.float_power(gap, 2.0)
    return params.beta / (2.0 * gap), 8.0 * params.lam * square / params.beta


def normal_map(mu) -> Callable:
    """The normal form g(x) = x + mu*(1/x - 1), for floats and arrays broadcast against mu."""
    return lambda x: x + mu * (1.0 / x - 1.0)


def normal_interval(mu) -> tuple:
    """(a, m, b) of g: m = sqrt(mu), a = g(m), b = g(a) + m, for lam inside the window.

    Floats for a float mu, arrays for an array, with the same bits.
    Unchecked: a mu that rounds onto a window edge gives a = m (mu = 1) or
    a = 0 and b = inf (mu = 4), without warnings.
    """
    g = normal_map(mu)
    if isinstance(mu, float):  # one cell: on arrays this costs a lone call three times more
        m = math.sqrt(mu)
        a = g(m)
        return a, m, (g(a) if a else math.inf) + m
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.sqrt(mu)  # rounds as math.sqrt does
        a = g(m)
        return a, m, g(a) + m


def price_map(params: EconomyParams) -> Callable:
    """The map f as a bare callable, valid for scalars and numpy arrays of prices.

    No positivity check is performed; intended for grid evaluation on
    intervals already known to be positive.  It takes one cell: arrays of
    cells go through `normal_map`.
    """
    two_beta = 2.0 * params.beta
    c = 4.0 * (1.0 - params.alpha)
    lam = params.lam

    def f(p):
        return p + lam * (two_beta / p - c)

    return f


def price_map_derivative(params: EconomyParams) -> Callable:
    """f'(p) = 1 - 2*lam*beta/p**2 of one cell, for scalars and numpy arrays of prices."""
    two_lam_beta = 2.0 * params.lam * params.beta

    def df(p):
        return 1.0 - two_lam_beta / (p * p)

    return df
