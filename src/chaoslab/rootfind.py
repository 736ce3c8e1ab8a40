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


def grid_brackets(values: np.ndarray, xs: np.ndarray) -> list[tuple[float, float]]:
    """Consecutive grid cells over which the sampled values change sign.

    Exact zeros at grid points are returned as width-zero brackets so the
    caller still sees them as roots.
    """
    out: list[tuple[float, float]] = []
    sign = np.sign(values)
    zero_idx = np.nonzero(sign == 0.0)[0]
    for i in zero_idx:
        out.append((float(xs[i]), float(xs[i])))
    flip = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    for i in flip:
        out.append((float(xs[i]), float(xs[i + 1])))
    out.sort()
    return out


def scan_roots(
    func: Callable,
    dfunc: Callable[[float], float],
    lo: float,
    hi: float,
    n: int,
) -> list[float]:
    """All sign-change roots of func on [lo, hi], scanned on an n-point grid.

    func must accept numpy arrays; roots are refined one bracket at a time
    and returned in increasing order.  Tangencies (no sign change) are
    invisible to the scan, by design.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    xs = np.linspace(lo, hi, n)
    vals = func(xs)
    roots: list[float] = []
    for blo, bhi in grid_brackets(vals, xs):
        if blo == bhi:
            roots.append(blo)
        else:
            scalar = lambda x: float(func(np.float64(x)))
            roots.append(refine_root(scalar, dfunc, blo, bhi))
    return roots


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
