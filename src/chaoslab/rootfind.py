"""Deterministic root location: brackets, then bisection.

Every search in this package follows the same recipe: find brackets where
the target function changes sign, then halve each bracket until a halving
moves neither end.  That ends on the float next to the sign change, so no
Newton polish follows.  The brackets come from pieces where the function
is monotone, by one rule, `piece_brackets`: a piece is a bracket where its
end values differ in sign.  `orbits` takes its pieces from the laps of g^n
and their halves for the periodic-orbit scan; `scan_roots` takes them
between sorted cut points, and no search of the package calls it (the
turbulence witness, which did, needs no search).  The two-cycle pair in
`gate` comes from an exact factorization instead, whose quadratic factor
has known signs at the bracket ends.
`refine_root` runs the bisection on Python floats, `bisect_many` on many
brackets at once as numpy arrays, and the two give every bracket the same
float bit for bit; `bisect_brackets` picks one of them by the number of
brackets.  Fixed cuts and ordered processing make identical inputs
produce bit-identical outputs; there is no randomness anywhere.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: cap on halvings; enough to shrink any bracket below one ulp
_BISECT_MAX_ITERS = 80
#: bisect_brackets loops refine_root on Python floats below this many brackets;
#: on brackets of f^6(x) - x at (0.75, 0.5, 3.61), one numpy pass costs about
#: as much as 30 to 40 float loops
REFINE_LOOP_BELOW = 40


def _not_a_bracket(lo, hi, flo, fhi) -> ValueError:
    return ValueError(f"not a bracket: f({lo!r})={flo!r}, f({hi!r})={fhi!r}")


def refine_root(func: Callable[[float], float], lo: float, hi: float) -> float:
    """One root of func in [lo, hi], given func(lo) and func(hi) differ in sign.

    Halves the bracket, keeping the half whose ends differ in sign (the
    left half when func(lo) * func(mid) <= 0), until a halving moves
    neither end or 80 halvings are done, and returns the midpoint: the
    float `bisect_many` returns for the same bracket.  A bracket with
    lo == hi returns lo.  A non-bracket raises ValueError.
    """
    flo = func(lo)
    fhi = func(hi)
    if flo * fhi > 0.0:
        raise _not_a_bracket(lo, hi, flo, fhi)
    for _ in range(_BISECT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if flo * fmid <= 0.0:
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def bisect_brackets(
    los: np.ndarray,
    his: np.ndarray,
    owner: np.ndarray,
    cell_func: Callable[[int], Callable],
    chunk_func: Callable[[np.ndarray], Callable],
) -> np.ndarray:
    """Roots of many brackets; element i is refine_root(cell_func(owner[i]), los[i], his[i]).

    Bracket i belongs to cell owner[i].  cell_func(k) is cell k's target
    function on Python floats.  chunk_func(owner) is one array function
    whose element i evaluates the target of cell owner[i]; it is built only
    when used.  Below REFINE_LOOP_BELOW brackets the fixed cost of a numpy
    pass exceeds the work, so `refine_root` loops over the brackets;
    otherwise one `bisect_many` refines them all, to the same floats.  A
    non-bracket raises ValueError on both paths.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if len(los) < REFINE_LOOP_BELOW:
        funcs: dict[int, Callable] = {}
        roots = []
        for i, lo, hi in zip(np.asarray(owner).tolist(), los.tolist(), his.tolist()):
            if i not in funcs:
                funcs[i] = cell_func(i)
            roots.append(refine_root(funcs[i], lo, hi))
        return np.array(roots, dtype=float)
    func = chunk_func(np.asarray(owner))
    flo = func(los)
    fhi = func(his)
    bad = flo * fhi > 0.0
    if bad.any():
        i = int(np.argmax(bad))
        raise _not_a_bracket(float(los[i]), float(his[i]), float(flo[i]), float(fhi[i]))
    return bisect_many(func, los, his)


def piece_brackets(owner, u, v, hu, hv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets of monotone pieces [u, v] with end values hu, hv, as (owner, los, his).

    A piece is a bracket where its end values differ in sign, tested as a
    product of signs, which cannot underflow as hu*hv can.  An exact zero at
    a piece end is one width-zero bracket per owner and point.  Brackets
    come sorted by owner, then lo.
    """
    flip = np.sign(hu) * np.sign(hv) < 0.0
    zero_owner, zeros = sorted_distinct(
        np.concatenate([owner[hu == 0.0], owner[hv == 0.0]]),
        np.concatenate([u[hu == 0.0], v[hv == 0.0]]),
    )
    owner = np.concatenate([owner[flip], zero_owner])
    los = np.concatenate([u[flip], zeros])
    his = np.concatenate([v[flip], zeros])
    order = np.lexsort((los, owner))
    return owner[order], los[order], his[order]


def sorted_distinct(owner: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, point) pairs sorted by owner, then point, with repeats dropped."""
    order = np.lexsort((points, owner))
    owner, points = owner[order], points[order]
    fresh = np.ones(points.size, dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (points[1:] != points[:-1])
    return owner[fresh], points[fresh]


def scan_roots(func: Callable, cuts: Sequence[float]) -> list[float]:
    """The roots of func, monotone on each piece between consecutive sorted cuts.

    The pieces become brackets by `piece_brackets`: a piece whose end values
    differ in sign holds one root, and an exact zero at a cut is returned
    once, as is.  func is evaluated at the cuts as a numpy array; it must
    also accept Python floats, because `bisect_brackets` refines a few
    brackets one at a time on floats.  Roots are returned in increasing
    order.  A root where func touches zero at a cut without changing sign
    is seen only if the value there is exactly zero.
    """
    cuts = np.asarray(cuts, dtype=float)
    values = func(cuts)
    owner = np.zeros_like(cuts[1:], dtype=np.intp)
    owner, los, his = piece_brackets(owner, cuts[:-1], cuts[1:], values[:-1], values[1:])
    return bisect_brackets(los, his, owner, lambda _: func, lambda _: func).tolist()


def bisect_many(
    func: Callable[[np.ndarray], np.ndarray],
    los: np.ndarray,
    his: np.ndarray,
) -> np.ndarray:
    """Vectorized bisection of many brackets at once; `refine_root`'s rule as arrays.

    Up to 80 halvings shrink any bracket to well below one ulp of its
    endpoints, so the midpoint returned is the float nearest the root that
    the sign structure allows.  The loop stops early (after about 40
    halvings on the orbit scans) once a halving moves no bracket: func is
    deterministic and elementwise, so flos is always func(los), every
    further halving would repeat that one, and the result equals that of
    all 80.  Brackets are not checked for a sign change.
    """
    los = los.astype(float).copy()
    his = his.astype(float).copy()
    flos = func(los)
    for _ in range(_BISECT_MAX_ITERS):
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
