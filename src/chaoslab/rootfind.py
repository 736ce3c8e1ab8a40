"""Deterministic root location on fixed grids.

Every search in this package follows the same recipe: evaluate the target
function on a fixed equispaced grid, bracket sign changes, narrow each
bracket by bisection, then polish with Newton steps that are rejected
whenever they leave the bracket (bisection continues in that case).  Fixed
grids and ordered processing make identical inputs produce bit-identical
outputs; there is no randomness anywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

#: bisection iterations before Newton takes over (width ~ (hi-lo) * 2**-40)
_BISECT_ITERS = 40
#: Newton polish budget per root
_NEWTON_ITERS = 50
#: cap on bisect_many halvings; enough to shrink any bracket below one ulp
_BISECT_MANY_MAX_ITERS = 80
#: refine_roots loops refine_root on Python floats below this many brackets; on
#: Pi-set brackets its masked pass costs about as much as 40 scalar refinements
REFINE_LOOP_BELOW = 40


def refine_root(
    func: Callable[[float], float],
    dfunc: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """One root of func in [lo, hi], given func(lo) and func(hi) differ in sign.

    Bisection narrows the bracket, Newton polishes inside it; a Newton step
    that exits the bracket (or hits a flat derivative) falls back to
    bisection.  Robust against very steep brackets.
    """
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"not a bracket: f({lo!r})={flo!r}, f({hi!r})={fhi!r}")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    fx = func(x)
    best_x, best_f = x, abs(fx)
    for _ in range(_NEWTON_ITERS):
        d = dfunc(x)
        if d == 0.0 or not math.isfinite(d):
            step_to = 0.5 * (lo + hi)
        else:
            step_to = x - fx / d
            if not (lo <= step_to <= hi):
                step_to = 0.5 * (lo + hi)
        if step_to == x:
            break
        x = step_to
        fx = func(x)
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if fx == 0.0:
            return x
        # keep the bracket valid for potential fallback
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
        if hi - lo <= abs(x) * 4.0 * np.finfo(float).eps:
            break
    return best_x


def refine_roots(
    func: Callable,
    dfunc: Callable,
    los: np.ndarray,
    his: np.ndarray,
) -> np.ndarray:
    """Refine many brackets at once; element i is refine_root(func, dfunc, los[i], his[i]).

    The equality is bit for bit: every bracket runs the same 40 halvings,
    the same guarded Newton polish and the same early exits as
    `refine_root`, applied per bracket under a mask.  Below
    REFINE_LOOP_BELOW brackets the fixed cost of that numpy pass exceeds
    the work, so `refine_root` runs on Python floats instead; func and
    dfunc must then accept floats.  At or above it, they are only ever
    called with arrays shaped like los, so element i of their result may
    depend on parameters of bracket i.  A non-bracket raises ValueError.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if len(los) < REFINE_LOOP_BELOW:
        return np.array(
            [refine_root(func, dfunc, lo, hi) for lo, hi in zip(los.tolist(), his.tolist())],
            dtype=float,
        )
    lo, hi = los.copy(), his.copy()
    flo = func(lo)
    fhi = func(hi)
    bad = (flo != 0.0) & (fhi != 0.0) & (flo * fhi > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"not a bracket: f({float(lo[i])!r})={float(flo[i])!r}, "
            f"f({float(hi[i])!r})={float(fhi[i])!r}"
        )
    # a bracket that returns early is collapsed onto its result, lo = hi, which
    # every later halving leaves in place, so the halvings need no mask
    settled = (flo == 0.0) | (fhi == 0.0)
    exit_at = np.where(flo == 0.0, lo, hi)
    lo = np.where(settled, exit_at, lo)
    hi = np.where(settled, exit_at, hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if np.count_nonzero(fm) < len(fm):  # an exact zero: cheaper to test than to mask
            hit = fm == 0.0
            settled |= hit
            lo = np.where(hit, mid, lo)
            hi = np.where(hit, mid, hi)
        left = flo * fm < 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    live = ~settled
    x = 0.5 * (lo + hi)
    fx = func(x)
    best_x, best_f = x, np.abs(fx)
    for _ in range(_NEWTON_ITERS):
        if not np.count_nonzero(live):
            break
        d = dfunc(x)
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - fx / d
        inside = (d != 0.0) & np.isfinite(d) & (lo <= newton) & (newton <= hi)
        step_to = np.where(inside, newton, mid)
        live &= step_to != x
        x = np.where(live, step_to, x)
        fx = np.where(live, func(x), fx)
        better = live & (np.abs(fx) < best_f)
        best_x = np.where(better, x, best_x)
        best_f = np.where(better, np.abs(fx), best_f)
        hit = live & (fx == 0.0)
        lo = np.where(hit, x, lo)
        settled |= hit
        live &= ~hit
        left = flo * fx < 0.0
        hi = np.where(live & left, x, hi)
        right = live & ~left
        lo = np.where(right, x, lo)
        flo = np.where(right, fx, flo)
        live &= ~(hi - lo <= np.abs(x) * 4.0 * np.finfo(float).eps)
    return np.where(settled, lo, best_x)


def grid_brackets(values: np.ndarray, xs: np.ndarray) -> list[tuple[float, float]]:
    """Consecutive grid cells over which the sampled values change sign.

    Exact zeros at grid points are returned as width-zero brackets so the
    caller still sees them as roots.
    """
    out: list[tuple[float, float]] = []
    sign = np.sign(values)
    if np.count_nonzero(values) < len(values):
        for i in np.nonzero(sign == 0.0)[0]:
            out.append((float(xs[i]), float(xs[i])))
    flip = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    for i in flip:
        out.append((float(xs[i]), float(xs[i + 1])))
    out.sort()
    return out


def scan_roots(
    func: Callable,
    dfunc: Callable,
    lo: float,
    hi: float,
    n: int,
) -> list[float]:
    """All sign-change roots of func on [lo, hi], scanned on an n-point grid.

    func is evaluated on the grid as a numpy array; func and dfunc must also
    accept Python floats, because `refine_roots` refines a few brackets one
    at a time on floats.  Roots are returned in increasing order.
    Tangencies (no sign change) are invisible to the scan, by design.
    """
    brackets = scan_brackets(func, lo, hi, n)
    # a width-zero bracket is an exact grid zero, which refine_root returns as is
    los = np.array([b[0] for b in brackets])
    his = np.array([b[1] for b in brackets])
    return refine_roots(func, dfunc, los, his).tolist()


def scan_brackets(func: Callable, lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    """The `grid_brackets` of func sampled as a numpy array on an n-point grid over [lo, hi]."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    xs = np.linspace(lo, hi, n)
    return grid_brackets(func(xs), xs)


def bisect_many(
    func: Callable[[np.ndarray], np.ndarray],
    los: np.ndarray,
    his: np.ndarray,
) -> np.ndarray:
    """Vectorized bisection of many brackets at once.

    Up to 80 halvings shrink any bracket to well below one ulp of its
    endpoints, so the midpoint returned is the float nearest the root that
    the sign structure allows.  The loop stops early (after about 40
    halvings on the orbit scans) once a halving moves no bracket: func is
    deterministic and elementwise, so flos is always func(los), every
    further halving would repeat that one, and the result equals that of
    all 80.  Used by the dense periodic-orbit scans where thousands of
    brackets are live at the same time.
    """
    los = los.astype(float).copy()
    his = his.astype(float).copy()
    flos = func(los)
    for _ in range(_BISECT_MANY_MAX_ITERS):
        mids = 0.5 * (los + his)
        fmids = func(mids)
        take_left = flos * fmids <= 0.0
        new_his = np.where(take_left, mids, his)
        new_los = np.where(take_left, los, mids)
        flos = np.where(take_left, flos, fmids)
        if np.array_equal(new_los, los) and np.array_equal(new_his, his):
            break
        los, his = new_los, new_his
    return 0.5 * (los + his)


def dedupe_sorted(points: Sequence[float], tol: float) -> list[float]:
    """Collapse an ascending sequence, keeping the first point of each cluster."""
    out: list[float] = []
    for p in points:
        if out and p - out[-1] <= tol:
            continue
        out.append(p)
    return out
