"""Concrete certificates: trajectories, periodic orbits, turbulence witnesses.

Everything here is computed from the map on the trapping interval,
independent of the closed-form thresholds, so the two can be played
against each other.  Periodic orbits of period n are found lap by lap:
[a, b] is cut at the turning points of f^n, the preimages of the critical
point, into pieces where f^n is monotone, and brackets of f^n(x) - x are
taken from those pieces by `rootfind.piece_brackets`.  The three-cycle is
the period-3 row of that scan.  The turbulence witness searches for
nothing: the fixed points of f^2 are the fixed point and the two-cycle
pair of `gate.normal_pairs`, and preimages under f^2 are two steps back
through the inverse branches of f (`_preimages`), the step that also
gives the turning points of f^n.  Everything runs on the normal form
g(x) = x + mu*(1/x - 1) of `economy`, on the interval [a/z, b/z], and
scales the points it reports by the fixed point z.  So eps_root and every
residual are in units of z, that is, relative to the price scale.
Searches run in a fixed order; identical inputs give bit-identical
outputs.  An empty result means "not found within the scan and period
bound", never "does not exist" -- callers that emit results are expected
to attach the search bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .economy import (
    EPS_ROOT,
    DomainError,
    EconomyParams,
    TrappingInterval,
    normal_form,
    normal_map,
    step,
)
from .gate import normal_pairs
from .rootfind import bisect_brackets, piece_brackets, sorted_distinct

#: iterates at or beyond this magnitude stop a trajectory (map is unbounded above)
OVERFLOW_GUARD = 1e12
#: hard cap on recorded steps
MAX_STEPS = 10**7
#: base scan density; the period-n orbit scan halves increasing laps down to
#: the spacing of a GRID_BASE*n-point grid
GRID_BASE = 8192


@dataclass(frozen=True)
class Orbit:
    """A recorded trajectory; points[0] is the initial price."""

    p0: float
    points: tuple[float, ...]
    escaped: bool


@dataclass(frozen=True)
class PeriodicOrbit:
    """A cycle of minimal period `period`, from its smallest price; residual in units of z."""

    period: int
    points: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class TurbulenceWitness:
    """Three points certifying turbulence of g = f^2.

    g(x1) = x1, g(x2) = x1 with x2 != x1, g(x3) = x2 with x3 strictly
    between x1 and x2; residuals are the three defect magnitudes in that
    order, in units of z.
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


def _normal_cells(params, intervals) -> tuple[np.ndarray, ...]:
    """(z, mu, a/z, b/z) of each cell: its scale, its map g and its interval in the normal form."""
    z, mu = np.array([normal_form(p) for p in params], dtype=float).reshape(-1, 2).T
    a, b = np.array([(iv.a, iv.b) for iv in intervals], dtype=float).reshape(-1, 2).T / z
    return z, mu, a, b


def _preimages(mu, y) -> tuple:
    """Both preimages of y under g, (left, right): x = (s -/+ sqrt(s^2 - 4*mu))/2, s = y + mu.

    nan where s^2 < 4*mu, that is below g(m): those y have no preimage.
    """
    s = y + mu
    with np.errstate(invalid="ignore"):
        right = 0.5 * (s + np.sqrt(s * s - 4.0 * mu))
    # the product of the two branches is mu; this avoids cancellation
    return mu / right, right


def _lap_ends(mu: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the laps of g^n on each cell's [a, b], as (owner, points).

    The turning points of g^n are the critical point m = sqrt(mu) and its
    preimages g^-k(m) for k < n.  Starting from m, each level is the
    previous one pulled back through both branches of `_preimages`,
    keeping the preimages strictly inside (a, b); a point outside [a, b]
    has no preimage inside it.  Points come grouped by cell, ascending
    within it, with a and b added and repeats dropped.
    """
    owner = np.arange(a.size)
    level = np.sqrt(mu)
    inside = (level > a) & (level < b)
    owner, level = owner[inside], level[inside]
    found_owner, found = [np.arange(a.size), owner, np.arange(a.size)], [a, level, b]
    for _ in range(1, n):
        left, right = _preimages(mu[owner], level)
        owner, level = np.concatenate([owner, owner]), np.concatenate([left, right])
        inside = (level > a[owner]) & (level < b[owner])  # false where there is no preimage
        owner, level = owner[inside], level[inside]
        found_owner.append(owner)
        found.append(level)
    return sorted_distinct(np.concatenate(found_owner), np.concatenate(found))


def _cycle_roots(
    mu: np.ndarray, a: np.ndarray, b: np.ndarray, n: int, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of g^n(x) - x on each cell's [a, b], as (owner, roots).

    [a, b] is cut into the laps of g^n, where g^n is monotone.  On a decreasing
    lap g^n(x) - x is strictly decreasing, so the lap holds at most one root.
    An increasing lap is halved breadth-first: g^n maps a piece [u, v] onto
    [g^n(u), g^n(v)], so a piece with g^n(u) > v or g^n(v) < u holds no root
    and is dropped; the rest are halved until no wider than
    (b - a)/(n_points - 1), the spacing of an n_points grid.  The pieces
    become brackets by `piece_brackets`: where their end values differ in
    sign, and once per point where an end value is exactly zero.  At odd
    n >= 3 the lap strictly around 1 is dropped: g(1) = 1 in floats and
    (g^n)'(1) = (1 - mu)^n < 0, so its one root is the fixed point.  Every
    step runs over all pieces of all cells at once, each under the map of its
    own cell, and the brackets are bisected together.  Roots come grouped by
    cell, ascending within it, as the disjoint brackets that hold them.
    """
    width = (b - a) / max(n_points - 1, 1)

    def fn(rows, xs):
        return _iterate_array(normal_map(mu[rows]), xs, n)

    ends_owner, ends = _lap_ends(mu, a, b, n)
    f_ends = fn(ends_owner, ends)
    lap = np.nonzero(ends_owner[1:] == ends_owner[:-1])[0]
    laps = (ends_owner[lap], ends[lap], ends[lap + 1], f_ends[lap], f_ends[lap + 1])
    rising = laps[4] > laps[3]
    fixed = (n % 2 == 1) & (n > 1) & (laps[1] < 1.0) & (laps[2] > 1.0)
    pieces = [tuple(col[~rising & ~fixed] for col in laps)]
    owner, u, v, fu, fv = (col[rising] for col in laps)
    while True:
        live = (fu <= v) & (fv >= u)
        done = live & (v - u <= width[owner])
        pieces.append((owner[done], u[done], v[done], fu[done], fv[done]))
        split = live & ~done
        if not split.any():
            break
        owner, u, v, fu, fv = owner[split], u[split], v[split], fu[split], fv[split]
        mid = 0.5 * (u + v)
        fmid = fn(owner, mid)
        owner = np.concatenate([owner, owner])
        u, v = np.concatenate([u, mid]), np.concatenate([mid, v])
        fu, fv = np.concatenate([fu, fmid]), np.concatenate([fmid, fv])

    owner, u, v, fu, fv = (np.concatenate(col) for col in zip(*pieces))
    owner, los, his = piece_brackets(owner, u, v, fu - u, fv - v)

    def cycle_func(g):
        return lambda x: _iterate_array(g, x, n) - x

    mus = mu.tolist()
    return owner, bisect_brackets(
        los, his, owner, lambda i: cycle_func(normal_map(mus[i])),
        lambda rows: cycle_func(normal_map(mu[rows])),
    )


def _minimal_period_rows(z, mu, a, b, n, n_points, eps_root) -> list[list[PeriodicOrbit]]:
    """Canonical minimal-period-n orbits of every cell, from the lap scan of g^n.

    Every point of an orbit is a root of the scan; an orbit is kept once,
    from the root that is its smallest price, so its points start there.
    Each cell's list is sorted by that price, and an orbit matching the
    one before it within 10*eps_root is dropped.  Every step runs once
    over the pieces or roots of all cells, element by element with each
    one's own mu, so a cell gets the bits it would get on its own.  The
    points are scaled by z; residuals stay in units of z.
    """
    owner, roots = _cycle_roots(mu, a, b, n, n_points)
    # points of shorter period are rediscovered by every multiple: drop any
    # root a proper divisor already explains at the full residual tolerance,
    # so an assigned period is minimal under the same bound that certifies it
    g = normal_map(mu[owner])
    keep = np.ones(roots.size, dtype=bool)
    y = roots
    for d in range(1, n):
        y = g(y)
        if n % d == 0:
            keep &= np.abs(y - roots) > eps_root
    owner, roots = owner[keep], roots[keep]
    g = normal_map(mu[owner])

    mat = np.empty((roots.size, n))
    mat[:, 0] = roots
    for j in range(1, n):
        mat[:, j] = g(mat[:, j - 1])
    residual = np.abs(g(mat[:, -1]) - mat[:, 0])
    keep = (residual <= eps_root) & (np.argmin(mat, axis=1) == 0)
    owner, mat, residual = owner[keep], mat[keep], residual[keep]
    # roots come sorted by cell, then price, so a repeat of an orbit follows it
    fresh = np.ones(owner.size, dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (
        np.max(np.abs(np.diff(mat, axis=0)), axis=1) > 10.0 * eps_root
    )
    owner, mat = owner[fresh], mat[fresh] * z[owner[fresh], None]
    out: list[list[PeriodicOrbit]] = [[] for _ in z]
    for i, row, res in zip(owner.tolist(), mat.tolist(), residual[fresh].tolist()):
        out[i].append(PeriodicOrbit(period=n, points=tuple(row), residual=res))
    return out


def _check_max_period(max_period: int) -> None:
    if not 1 <= max_period <= 20:
        raise ValueError(f"max_period must be in [1, 20], got {max_period!r}")


def periodic_orbit_lists(
    params: Sequence[EconomyParams],
    intervals: Sequence[TrappingInterval],
    max_period: int,
    *,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> list[list[PeriodicOrbit]]:
    """`find_periodic_orbits` of every cell of a chunk, given its trapping intervals.

    For each period n, the laps of f^n of all cells are scanned together,
    and their brackets are bisected in one pass, as are the divisor filter
    and the residual bound.  Each list is bit for bit what
    `find_periodic_orbits` returns for that cell alone; orbits of two cells
    are never merged, even for equal cells.
    """
    _check_max_period(max_period)
    cells = _normal_cells(params, intervals)
    out: list[list[PeriodicOrbit]] = [[] for _ in params]
    for n in range(1, max_period + 1):
        lists = _minimal_period_rows(*cells, n, grid_base * n, eps_root)
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

    For each n, [a, b] is cut into the laps of f^n, the pieces between its
    turning points, where f^n is monotone.  A decreasing lap holds at most
    one root of f^n(x) - x and is a bracket when its end values differ in
    sign.  An increasing lap is halved, dropping every piece that f^n maps
    off itself, until the pieces are no wider than the spacing of a
    grid_base*n-point grid; a piece is a bracket when its end values differ
    in sign.  grid_base thus only bounds the smallest piece, and rarely
    changes the roots found.

    A root of f^n(x) - x is assigned minimal period n only if no proper
    divisor d of n meets the eps_root residual bound, which keeps assigned
    periods minimal and avoids phantom cycles at period-doubling parameters.
    Each orbit is reported once, from the root that is its smallest price,
    with its residual |g^n(x0/z) - x0/z| at that root (eps_root and the
    residuals are in units of z; module docstring); an orbit matching the
    one before it within 10*eps_root is dropped.  Orbits are returned sorted by
    (period, smallest price).  Only roots meeting the eps_root residual
    bound are kept, so ill-conditioned high-period cycles may be dropped,
    as may a cycle whose smallest point the scan misses: an empty or short
    list is not evidence of absence.

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
    lap scans of find_periodic_orbits, and the search stops at the first
    period that yields an orbit; its orbit with the smallest first point is
    returned.  The minimality filter for period n only consults divisors of
    n, all odd, so skipping the even periods changes no answer, and
    max_period is an upper bound on the scan, not a period that is always
    reached.  At a quiet point each g^n has a few laps, most of them
    dropped whole.  None means no such orbit was located within the
    scanned laps -- not a proof of non-existence.
    """
    _check_max_period(max_period)
    cells = _normal_cells([params], [interval])
    for n in range(3, max_period + 1, 2):
        (orbits,) = _minimal_period_rows(*cells, n, grid_base * n, eps_root)
        if orbits:
            return orbits[0]
    return None


def find_turbulence_witness(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
) -> TurbulenceWitness | None:
    """First turbulence witness for g = f^2, in deterministic order; it scans and brackets nothing.

    In the normal form the fixed points of g are 1 and the two-cycle pair
    of `gate.normal_pairs`; those in [a, b] are tried as x1 in increasing
    order.  The preimages of y under g are two steps back through the
    branches of `_preimages`.  For each x1, its preimages in [a, b] farther
    than 10*eps_root from it are tried as x2 nearest-first (preferring the
    smaller on a tie); x3 is taken, in increasing order, from the
    preimages of x2 strictly between x1 and x2.  The first triple whose
    three residuals meet eps_root is returned; None when every one fails.
    """
    z, mu = normal_form(params)
    a, b = interval.a / z, interval.b / z
    f = normal_map(mu)

    def g(x):
        return f(f(x))

    def preimages(y):
        xs = np.concatenate(_preimages(mu, np.concatenate(_preimages(mu, np.array([y])))))
        return sorted(set(xs[(xs >= a) & (xs <= b)].tolist()))

    for x1 in sorted({x for x in (*normal_pairs(mu), 1.0) if a <= x <= b}):
        candidates = [x2 for x2 in preimages(x1) if abs(x2 - x1) > 10.0 * eps_root]
        candidates.sort(key=lambda x2: (abs(x2 - x1), x2))
        for x2 in candidates:
            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
            for x3 in preimages(x2):
                if lo < x3 < hi:
                    residuals = tuple(abs(g(x) - y) for x, y in ((x1, x1), (x2, x1), (x3, x2)))
                    if max(residuals) <= eps_root:
                        return TurbulenceWitness(z * x1, z * x2, z * x3, residuals)
    return None


def search_period3(
    params: EconomyParams,
    interval: TrappingInterval,
    *,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> PeriodicOrbit | None:
    """The first minimal-period-3 orbit of `find_periodic_orbits`, or None.

    Only the period-3 lap scan runs, its increasing laps halved down to the
    spacing of a 3*grid_base-point grid.

    Exploratory: whether a three-cycle accompanies the odd-cycle condition
    is not settled, so both outcomes are acceptable and nothing beyond the
    residual bound is asserted about the result.
    """
    cells = _normal_cells([params], [interval])
    (orbits,) = _minimal_period_rows(*cells, 3, 3 * grid_base, eps_root)
    return orbits[0] if orbits else None
