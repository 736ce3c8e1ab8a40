"""Concrete certificates: trajectories, periodic orbits, turbulence witnesses.

Everything here is found by direct numerical search on the trapping
interval, independent of the closed-form thresholds, so the two can be
played against each other.  Searches run on fixed grids in a fixed order;
identical inputs give bit-identical outputs.  An empty result means "not
found within the scanned grid and period bound", never "does not exist" --
callers that emit results are expected to attach the search bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .economy import (
    EPS_ROOT,
    DomainError,
    EconomyParams,
    TrappingInterval,
    price_map,
    price_map_derivative,
    step,
)
from .rootfind import bisect_many, grid_brackets, scan_roots

#: iterates at or beyond this magnitude stop a trajectory (map is unbounded above)
OVERFLOW_GUARD = 1e12
#: hard cap on recorded steps
MAX_STEPS = 10**7
#: base scan density; the period-n scan uses GRID_BASE*n points
GRID_BASE = 8192
#: dedicated denser scan for the three-cycle search
PERIOD3_SCAN_POINTS = 65536


@dataclass(frozen=True)
class Orbit:
    """A recorded trajectory; points[0] is the initial price."""

    p0: float
    points: tuple[float, ...]
    escaped: bool


@dataclass(frozen=True)
class PeriodicOrbit:
    """A cycle of minimal period `period`; points start at the smallest price."""

    period: int
    points: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class TurbulenceWitness:
    """Three points certifying turbulence of g = f^2.

    g(x1) = x1, g(x2) = x1 with x2 != x1, g(x3) = x2 with x3 strictly
    between x1 and x2; residuals are the three defect magnitudes in that
    order.
    """

    x1: float
    x2: float
    x3: float
    residuals: tuple[float, float, float]


def iterate(params: EconomyParams, p0: float, n_steps: int) -> Orbit:
    """Record p0 and its next n_steps images under the map.

    Recording stops early, with escaped=True, as soon as an iterate leaves
    (0, OVERFLOW_GUARD); the offending value is kept as the last point so
    the escape is visible.
    """
    if not p0 > 0.0:
        raise DomainError(f"initial price must be positive, got {p0!r}")
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be in [1, {MAX_STEPS}], got {n_steps!r}")
    points = [p0]
    p = p0
    escaped = False
    for _ in range(n_steps):
        p = step(params, p)
        points.append(p)
        if p <= 0.0 or p >= OVERFLOW_GUARD:
            escaped = True
            break
    return Orbit(p0=p0, points=tuple(points), escaped=escaped)


def _iterate_array(f, xs: np.ndarray, n: int) -> np.ndarray:
    ys = xs.astype(float).copy()
    for _ in range(n):
        ys = f(ys)
    return ys


def _scan_cycle_roots(f, lo: float, hi: float, n: int, n_points: int) -> np.ndarray:
    """Roots of f^n(x) - x on [lo, hi] via dense scan + vectorized bisection."""
    xs = np.linspace(lo, hi, n_points)

    def F(v):
        return _iterate_array(f, np.atleast_1d(v), n) - np.atleast_1d(v)

    vals = F(xs)
    brackets = grid_brackets(vals, xs)
    if not brackets:
        return np.empty(0)
    exact = np.array([b[0] for b in brackets if b[0] == b[1]])
    open_b = [b for b in brackets if b[0] != b[1]]
    if open_b:
        los = np.array([b[0] for b in open_b])
        his = np.array([b[1] for b in open_b])
        refined = bisect_many(lambda v: _iterate_array(f, v, n) - v, los, his)
    else:
        refined = np.empty(0)
    return np.sort(np.concatenate([exact, refined]))


def _polish_many(f, df, xs: np.ndarray, n: int, *, iters: int = 4) -> np.ndarray:
    """Vectorized guarded Newton on f^n(x) - x; keeps the best residual seen."""

    def F(v):
        return _iterate_array(f, v, n) - v

    def dF(v):
        y = v.copy()
        prod = np.ones_like(v)
        for _ in range(n):
            prod *= df(y)
            y = f(y)
        return prod - 1.0

    best = xs.astype(float).copy()
    best_f = np.abs(F(best))
    x = best.copy()
    for _ in range(iters):
        d = dF(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - F(x) / d
        ok = np.isfinite(nxt) & (nxt > 0.0)
        x = np.where(ok, nxt, best)
        fx = np.abs(F(x))
        improved = fx < best_f
        best = np.where(improved, x, best)
        best_f = np.minimum(fx, best_f)
    return best


def _minimal_period_orbits(
    f, df, lo: float, hi: float, n: int, n_points: int, eps_root: float
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical minimal-period-n orbits on the scan grid.

    Returns (orbits, residuals): a (k, n) array whose rows start at the
    orbit's smallest price, and the per-orbit residual |f^n(x0) - x0|.
    Fully vectorized; rows are sorted by first point and deduplicated
    within 10*eps_root.
    """
    empty = (np.empty((0, n)), np.empty(0))
    roots = _scan_cycle_roots(f, lo, hi, n, n_points)
    if roots.size == 0:
        return empty
    # points of shorter period are rediscovered by every multiple: drop any
    # root a proper divisor already explains at the full residual tolerance,
    # so an assigned period is minimal under the same bound that certifies it
    keep = np.ones(roots.size, dtype=bool)
    y = roots.copy()
    for d in range(1, n):
        y = f(y)
        if n % d == 0:
            keep &= np.abs(y - roots) > eps_root
    roots = roots[keep]
    if roots.size == 0:
        return empty
    roots = _polish_many(f, df, roots, n)

    mat = np.empty((roots.size, n))
    mat[:, 0] = roots
    for j in range(1, n):
        mat[:, j] = f(mat[:, j - 1])
    residual = np.abs(f(mat[:, -1]) - mat[:, 0])
    ok = residual <= eps_root
    mat, residual = mat[ok], residual[ok]
    if mat.shape[0] == 0:
        return empty

    # rotate every row to start at its smallest price, so all n roots of one
    # orbit canonicalize identically, then dedupe neighbours
    start = np.argmin(mat, axis=1)
    cols = (start[:, None] + np.arange(n)[None, :]) % n
    mat = np.take_along_axis(mat, cols, axis=1)
    residual = np.abs(f(mat[:, -1]) - mat[:, 0])
    order = np.argsort(mat[:, 0], kind="stable")
    mat, residual = mat[order], residual[order]
    kept: list[int] = []
    for i in range(mat.shape[0]):
        duplicate = False
        for j in reversed(kept):
            if mat[i, 0] - mat[j, 0] > 10.0 * eps_root:
                break
            if np.max(np.abs(mat[i] - mat[j])) <= 10.0 * eps_root:
                duplicate = True
                break
        if not duplicate:
            kept.append(i)
    return mat[kept], residual[kept]


def _check_max_period(max_period: int) -> None:
    if not 1 <= max_period <= 20:
        raise ValueError(f"max_period must be in [1, 20], got {max_period!r}")


def _orbits_by_period(
    params: EconomyParams,
    interval: TrappingInterval,
    scans: Iterable[tuple[int, int]],
    eps_root: float,
) -> Iterator[list[PeriodicOrbit]]:
    """Minimal-period-n orbits for each (n, n_points) scan, one list per n.

    Lazy: each list is built when it is asked for, sorted by smallest
    price, so a caller that stops iterating skips the remaining scans.
    """
    f = price_map(params)
    df = price_map_derivative(params)
    for n, n_points in scans:
        mat, residual = _minimal_period_orbits(
            f, df, interval.a, interval.b, n, n_points, eps_root
        )
        yield [
            PeriodicOrbit(period=n, points=tuple(float(x) for x in row), residual=float(res))
            for row, res in zip(mat, residual)
        ]


def find_periodic_orbits(
    params: EconomyParams,
    interval: TrappingInterval,
    max_period: int,
    *,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> list[PeriodicOrbit]:
    """All periodic orbits of minimal period <= max_period the scan can see.

    For each n the scan covers [a, b] with grid_base*n points.  A root of
    f^n(x) - x is assigned minimal period n only if no proper divisor d of
    n meets the eps_root residual bound, which keeps assigned periods
    minimal and avoids phantom cycles at period-doubling parameters.
    Orbits are deduplicated (point sets matching within 10*eps_root) and
    returned sorted by (period, smallest price).  Only roots meeting the
    eps_root residual bound are kept, so ill-conditioned high-period cycles
    may be dropped: an empty or short list is not evidence of absence.

    Certificates are residual-based, with the usual caveat at exact
    bifurcation parameters: where a cycle degenerates (e.g. the two-cycle
    merging into the fixed point), points that satisfy the cycle equation
    to eps_root but sit only ~1e-6 from the degenerate point can be
    reported, because at that parameter they are indistinguishable from a
    true cycle at this tolerance.
    """
    _check_max_period(max_period)
    scans = ((n, grid_base * n) for n in range(1, max_period + 1))
    return [
        orbit
        for orbits in _orbits_by_period(params, interval, scans, eps_root)
        for orbit in orbits
    ]


def find_odd_cycle(
    params: EconomyParams,
    interval: TrappingInterval,
    max_period: int,
    *,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> PeriodicOrbit | None:
    """Smallest odd-minimal-period orbit (period >= 3) up to max_period.

    The odd periods 3, 5, ... are scanned in increasing order, with the
    grids of find_periodic_orbits, and the search stops at the first period
    that yields an orbit; its orbit with the smallest first point is
    returned.  The minimality filter for period n only consults divisors of
    n, all odd, so skipping the even periods changes no answer, and
    max_period is an upper bound on the scan, not a period that is always
    reached.  None means no such orbit was located within the scanned
    grids -- not a proof of non-existence.
    """
    _check_max_period(max_period)
    scans = ((n, grid_base * n) for n in range(3, max_period + 1, 2))
    for orbits in _orbits_by_period(params, interval, scans, eps_root):
        if orbits:
            return orbits[0]
    return None


def find_turbulence_witness(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
    n_scan: int = 2 * GRID_BASE,
) -> TurbulenceWitness | None:
    """First turbulence witness for g = f^2, in deterministic scan order.

    Fixed points x1 of g are enumerated in increasing order; for each, the
    candidates x2 with g(x2) = x1 are tried nearest-first (preferring the
    side closer to x1); x3 must solve g(x3) = x2 strictly between x1 and
    x2.  Returns None when every combination fails.
    """
    f = price_map(params)
    df = price_map_derivative(params)
    a, b = interval.a, interval.b

    def g(x):
        return f(f(x))

    def dg_minus_1(x):
        return df(f(x)) * df(x) - 1.0

    def dg(x):
        return df(f(x)) * df(x)

    fixed = scan_roots(lambda x: g(x) - x, dg_minus_1, a, b, n_scan)
    for x1 in fixed:
        pre = scan_roots(lambda x: g(x) - x1, dg, a, b, n_scan)
        candidates = [x2 for x2 in pre if abs(x2 - x1) > 10.0 * eps_root]
        candidates.sort(key=lambda x2: (abs(x2 - x1), x2))
        for x2 in candidates:
            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
            inner = scan_roots(lambda x: g(x) - x2, dg, lo, hi, n_scan)
            for x3 in inner:
                if lo < x3 < hi:
                    residuals = (
                        abs(float(g(x1)) - x1),
                        abs(float(g(x2)) - x1),
                        abs(float(g(x3)) - x2),
                    )
                    if max(residuals) <= eps_root:
                        return TurbulenceWitness(x1=x1, x2=x2, x3=x3, residuals=residuals)
    return None


def search_period3(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
    n_scan: int = PERIOD3_SCAN_POINTS,
) -> PeriodicOrbit | None:
    """Dedicated fine scan for a minimal-period-3 orbit on [a, b].

    Exploratory: whether a three-cycle accompanies the odd-cycle condition
    is not settled, so both outcomes are acceptable and nothing beyond the
    residual bound is asserted about the result.
    """
    orbits = next(_orbits_by_period(params, interval, [(3, n_scan)], eps_root))
    return orbits[0] if orbits else None
