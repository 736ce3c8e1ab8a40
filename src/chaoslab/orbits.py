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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .economy import (
    EPS_ROOT,
    Cells,
    DomainError,
    EconomyParams,
    TrappingInterval,
    price_map,
    step,
)
from .rootfind import bisect_brackets, grid_brackets, scan_roots

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
    for _ in range(n):
        xs = f(xs)
    return xs


def _cycle_roots(
    params: Sequence[EconomyParams],
    intervals: Sequence[TrappingInterval],
    cells: Cells,
    n: int,
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f^n(x) - x on each cell's [a, b], as (owner, roots).

    Each cell is scanned on its own n_points grid with scalar parameters;
    the brackets of all cells are then bisected together, each under the
    map of its own cell.  Roots come grouped by cell, ascending within it.
    """
    maps = [price_map(p) for p in params]
    found = []
    for f, iv in zip(maps, intervals):
        xs = np.linspace(iv.a, iv.b, n_points)
        found.append(np.array(grid_brackets(_iterate_array(f, xs, n) - xs, xs)).reshape(-1, 2))
    owner = np.repeat(np.arange(len(found)), [len(b) for b in found])
    los, his = np.concatenate(found or [np.empty((0, 2))]).T

    def cycle_func(f):
        return lambda v: _iterate_array(f, v, n) - v

    roots = bisect_brackets(
        los, his, owner, lambda i: cycle_func(maps[i]),
        lambda rows: cycle_func(price_map(cells.take(rows))),
    )
    order = np.lexsort((roots, owner))
    return owner[order], roots[order]


def _minimal_period_rows(
    params: Sequence[EconomyParams],
    intervals: Sequence[TrappingInterval],
    n: int,
    n_points: int,
    eps_root: float,
) -> list[list[PeriodicOrbit]]:
    """Canonical minimal-period-n orbits of every cell on its scan grid.

    Each cell's list holds orbits whose points start at the orbit's
    smallest price, sorted by that price and deduplicated within
    10*eps_root.  Past the per-cell scan, every step runs once over the
    roots of all cells, element by element with each root's own
    parameters, so a cell gets the bits it would get on its own.
    """
    cells = Cells.of(params)
    owner, roots = _cycle_roots(params, intervals, cells, n, n_points)
    # points of shorter period are rediscovered by every multiple: drop any
    # root a proper divisor already explains at the full residual tolerance,
    # so an assigned period is minimal under the same bound that certifies it
    f = price_map(cells.take(owner))
    keep = np.ones(roots.size, dtype=bool)
    y = roots
    for d in range(1, n):
        y = f(y)
        if n % d == 0:
            keep &= np.abs(y - roots) > eps_root
    owner, roots = owner[keep], roots[keep]
    f = price_map(cells.take(owner))

    mat = np.empty((roots.size, n))
    mat[:, 0] = roots
    for j in range(1, n):
        mat[:, j] = f(mat[:, j - 1])
    ok = np.abs(f(mat[:, -1]) - mat[:, 0]) <= eps_root
    owner, mat = owner[ok], mat[ok]
    f = price_map(cells.take(owner))

    # rotate every row to start at its smallest price, so all n roots of one
    # orbit canonicalize identically, then dedupe neighbours of the same cell
    start = np.argmin(mat, axis=1)
    cols = (start[:, None] + np.arange(n)[None, :]) % n
    mat = np.take_along_axis(mat, cols, axis=1)
    residual = np.abs(f(mat[:, -1]) - mat[:, 0])
    order = np.lexsort((mat[:, 0], owner))
    owner, points, residual = owner[order].tolist(), mat[order].tolist(), residual[order].tolist()
    tol = 10.0 * eps_root
    out: list[list[PeriodicOrbit]] = [[] for _ in params]
    for i, row, res in zip(owner, points, residual):
        kept = out[i]
        duplicate = False
        for orbit in reversed(kept):
            if row[0] - orbit.points[0] > tol:
                break
            if max(abs(x - y) for x, y in zip(row, orbit.points)) <= tol:
                duplicate = True
                break
        if not duplicate:
            kept.append(PeriodicOrbit(period=n, points=tuple(row), residual=res))
    return out


def _check_max_period(max_period: int) -> None:
    if not 1 <= max_period <= 20:
        raise ValueError(f"max_period must be in [1, 20], got {max_period!r}")


def _orbits_by_period(
    params: Sequence[EconomyParams],
    intervals: Sequence[TrappingInterval],
    scans: Iterable[tuple[int, int]],
    eps_root: float,
) -> Iterator[list[list[PeriodicOrbit]]]:
    """Minimal-period-n orbits for each (n, n_points) scan: one list per cell, per n.

    Lazy: the lists of a period are built when they are asked for, so a
    caller that stops iterating skips the remaining scans.
    """
    for n, n_points in scans:
        yield _minimal_period_rows(params, intervals, n, n_points, eps_root)


def periodic_orbit_lists(
    params: Sequence[EconomyParams],
    intervals: Sequence[TrappingInterval],
    max_period: int,
    *,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> list[list[PeriodicOrbit]]:
    """`find_periodic_orbits` of every cell of a chunk, given its trapping intervals.

    For each period n, every cell is scanned on its own grid_base*n-point
    grid, and the brackets of all cells are then bisected in one pass, as
    are the divisor filter and the residual bound.  Each list is bit for
    bit what `find_periodic_orbits` returns for that cell alone; orbits of
    two cells are never merged, even for equal cells.
    """
    _check_max_period(max_period)
    out: list[list[PeriodicOrbit]] = [[] for _ in params]
    scans = ((n, grid_base * n) for n in range(1, max_period + 1))
    for lists in _orbits_by_period(params, intervals, scans, eps_root):
        for acc, orbits in zip(out, lists):
            acc.extend(orbits)
    return out


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
    return periodic_orbit_lists(
        [params], [interval], max_period, eps_root=eps_root, grid_base=grid_base
    )[0]


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
    for (orbits,) in _orbits_by_period([params], [interval], scans, eps_root):
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
    a, b = interval.a, interval.b

    def g(x):
        return f(f(x))

    fixed = scan_roots(lambda x: g(x) - x, a, b, n_scan)
    for x1 in fixed:
        pre = scan_roots(lambda x: g(x) - x1, a, b, n_scan)
        candidates = [x2 for x2 in pre if abs(x2 - x1) > 10.0 * eps_root]
        candidates.sort(key=lambda x2: (abs(x2 - x1), x2))
        for x2 in candidates:
            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
            inner = scan_roots(lambda x: g(x) - x2, lo, hi, n_scan)
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
    (orbits,) = next(_orbits_by_period([params], [interval], [(3, n_scan)], eps_root))
    return orbits[0] if orbits else None
