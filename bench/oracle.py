"""Checks on chaoslab's outputs, made apart from chaoslab's own code paths.

The verdict oracle works in exact rational arithmetic: every float input is
converted with ``Fraction(x)``, which is exact, so the only approximation
is in the program under test.  With ``mu = 8*lam*(1-alpha)**2/beta`` the
point lies in the admissibility window when ``1 < mu < 4``, has an odd
cycle when ``mu > 25/9`` and a turbulent second iterate when
``mu >= 25/9`` (both inside the window).

Certificates are re-checked with this module's own price map and trapping
interval.  The map is written with the same operations in the same order
as ``f(p) = p + lam*(2*beta/p - 4*(1-alpha))``, so the residuals it gives
are the residuals of the exact float orbit, not of a re-ordered formula.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

#: chaos onset in the normal form: odd cycles for mu > 25/9
MU_ONSET = Fraction(25, 9)
#: window bounds in the normal form
MU_LOW, MU_HIGH = Fraction(1), Fraction(4)
#: relative band around MU_ONSET that floating point cannot resolve
BAND = Fraction(1, 10**6)
#: residual bound of a root certificate (chaoslab's documented EPS_ROOT)
EPS_ROOT = 1e-10


@dataclass(frozen=True)
class Verdict:
    """The exact classification of one (alpha, beta, lambda) point."""

    mu: Fraction
    in_window: bool
    odd_cycle: bool
    turbulent: bool


def exact_mu(alpha: float, beta: float, lam: float) -> Fraction:
    return 8 * Fraction(lam) * (1 - Fraction(alpha)) ** 2 / Fraction(beta)


def oracle(alpha: float, beta: float, lam: float) -> Verdict:
    mu = exact_mu(alpha, beta, lam)
    in_window = MU_LOW < mu < MU_HIGH
    return Verdict(
        mu=mu,
        in_window=in_window,
        odd_cycle=in_window and mu > MU_ONSET,
        turbulent=in_window and mu >= MU_ONSET,
    )


def in_band(mu: Fraction) -> bool:
    """True inside the relative 1e-6 band around the onset 25/9."""
    return abs(mu - MU_ONSET) <= BAND * MU_ONSET


def lam_for_mu(alpha: float, beta: float, mu: float) -> float:
    """The adjustment speed that puts (alpha, beta) at normal-form parameter mu."""
    return mu * beta / (8.0 * (1.0 - alpha) ** 2)


# ---------------------------------------------------------------- verdicts


def check_verdicts(
    alpha: float,
    beta: float,
    lam: float,
    in_class_g,
    odd_cf,
    turbulent_cf,
    odd_num,
    turbulent_num,
) -> list[str]:
    """Both routes' verdicts against the oracle, and gate membership."""
    want = oracle(alpha, beta, lam)
    where = f"alpha={alpha!r} beta={beta!r} lambda={lam!r}"
    problems = []
    if not want.in_window:
        return [f"{where}: outside the window (mu={float(want.mu)!r}), not a valid input"]
    if in_class_g is not True:
        problems.append(f"{where}: in_class_g={in_class_g!r}, want True")
    for route, odd, turbulent in (("closed_form", odd_cf, turbulent_cf),
                                  ("numerical", odd_num, turbulent_num)):
        if odd is not want.odd_cycle or turbulent is not want.turbulent:
            problems.append(
                f"{where}: {route} odd_cycle={odd!r} turbulent={turbulent!r}, oracle "
                f"odd_cycle={want.odd_cycle} turbulent={want.turbulent} (mu={float(want.mu)!r})"
            )
    return problems


def check_classify(alpha: float, beta: float, lam: float, gate, cf, num) -> list[str]:
    """One `classify` result: a GateReport and two ChaosVerdicts."""
    return check_verdicts(
        alpha, beta, lam, gate.in_class_g,
        cf.odd_cycle, cf.turbulent_second_iterate,
        num.odd_cycle, num.turbulent_second_iterate,
    )


# ---------------------------------------------------------------- sweeps


def axis(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _close(x: float, want: float, rel: float = 1e-12) -> bool:
    return abs(x - want) <= rel * abs(want)


def check_sweep_rows(
    rows,
    alpha_range: tuple[float, float, int],
    beta_range: tuple[float, float, int],
    lambda_count: int,
) -> list[str]:
    """A window-mode sweep with both methods: size, order, verdicts, thresholds."""
    alphas = axis(*alpha_range)
    betas = axis(*beta_range)
    expected = len(alphas) * len(betas) * lambda_count
    if len(rows) != expected:
        return [f"sweep has {len(rows)} rows, want {expected}"]
    problems = []
    i = 0
    for alpha in alphas:
        for beta in betas:
            for j in range(lambda_count):
                row = rows[i]
                i += 1
                if not (_close(row.alpha, alpha) and _close(row.beta, beta)):
                    problems.append(
                        f"row {i - 1}: (alpha, beta)=({row.alpha!r}, {row.beta!r}), "
                        f"want ({alpha!r}, {beta!r}) in alpha/beta/lambda order"
                    )
                    continue
                denom = 8 * (1 - Fraction(row.alpha)) ** 2
                low = Fraction(row.beta) / denom
                high = 4 * low
                want_lam = low + (high - low) * Fraction(2 * j + 1, 2 * lambda_count)
                if abs(Fraction(row.lam) - want_lam) > Fraction(1, 10**12) * want_lam:
                    problems.append(
                        f"row {i - 1}: lambda={row.lam!r} is not window position "
                        f"({j} + 1/2)/{lambda_count}"
                    )
                    continue
                for name, want in (("lambda_g_low", low),
                                   ("lambda_pi", Fraction(9, 4) * low),
                                   ("lambda_chaos", MU_ONSET * low),
                                   ("lambda_max", high)):
                    got = getattr(row, name)
                    if abs(Fraction(got) - want) > Fraction(1, 10**12) * want:
                        problems.append(f"row {i - 1}: {name}={got!r}, want {float(want)!r}")
                problems += check_verdicts(
                    row.alpha, row.beta, row.lam, row.in_class_g,
                    row.odd_cycle_cf, row.turbulent_cf, row.odd_cycle_num, row.turbulent_num,
                )
                if row.agree is not True:
                    problems.append(f"row {i - 1}: agree={row.agree!r}, want True")
    return problems


def _parse_cell(text: str, value):
    """The CSV spelling of one SweepRow field must read back as the field."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    return text != "" and float(text) == value


def check_sweep_csv(text: str, rows, columns: tuple[str, ...]) -> list[str]:
    """The CSV parses back with `columns` and every value round-trips."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(lines))))
    if not table or tuple(table[0]) != tuple(columns):
        return [f"CSV header {table[0] if table else None!r}, want {list(columns)!r}"]
    body = table[1:]
    if len(body) != len(rows):
        return [f"CSV has {len(body)} data rows, sweep returned {len(rows)}"]
    fields = ["lam" if c == "lambda" else c for c in columns]
    problems = []
    for k, (cells, row) in enumerate(zip(body, rows)):
        if len(cells) != len(columns):
            problems.append(f"CSV row {k}: {len(cells)} cells, want {len(columns)}")
            continue
        for column, field, cell in zip(columns, fields, cells):
            if not _parse_cell(cell, getattr(row, field)):
                problems.append(
                    f"CSV row {k}: {column}={cell!r} does not read back as "
                    f"{getattr(row, field)!r}"
                )
    return problems


# ---------------------------------------------------------------- certificates


class PriceMap:
    """The price map and its trapping interval, written out independently."""

    def __init__(self, alpha: float, beta: float, lam: float):
        self.alpha, self.beta, self.lam = alpha, beta, lam
        m = math.sqrt(2.0 * lam * beta)
        self.m = m
        self.a = self(m)
        self.b = self(self.a) + m

    def __call__(self, p: float) -> float:
        return p + self.lam * (2.0 * self.beta / p - 4.0 * (1.0 - self.alpha))

    def inside(self, x: float) -> bool:
        return self.a - EPS_ROOT <= x <= self.b + EPS_ROOT


def check_cycle(fmap: PriceMap, period: int, points, label: str) -> list[str]:
    """A cycle certificate: residual bound, minimal period, points in E."""
    pts = [float(x) for x in points]
    if len(pts) != period or period < 1:
        return [f"{label}: {len(pts)} points for period {period}"]
    problems = []
    for k, x in enumerate(pts):
        nxt = pts[(k + 1) % period]
        if not abs(fmap(x) - nxt) <= EPS_ROOT:
            problems.append(f"{label}: |f(x{k}) - x{(k + 1) % period}| = {abs(fmap(x) - nxt)!r}")
        if not fmap.inside(x):
            problems.append(f"{label}: point {x!r} outside E=[{fmap.a!r}, {fmap.b!r}]")
    ordered = sorted(pts)
    for lo, hi in zip(ordered, ordered[1:]):
        if hi - lo <= 10.0 * EPS_ROOT:
            problems.append(f"{label}: points {lo!r} and {hi!r} coincide, period is not minimal")
    return problems


def check_witness(fmap: PriceMap, witness) -> list[str]:
    """g = f∘f with g(x1)=x1, g(x2)=x1, g(x3)=x2 and x3 strictly between x1, x2."""
    def g(x):
        return fmap(fmap(x))

    x1, x2, x3 = witness.x1, witness.x2, witness.x3
    problems = []
    for name, got, want in (("g(x1) - x1", g(x1), x1),
                            ("g(x2) - x1", g(x2), x1),
                            ("g(x3) - x2", g(x3), x2)):
        if not abs(got - want) <= EPS_ROOT:
            problems.append(f"witness: |{name}| = {abs(got - want)!r}")
    if not abs(x2 - x1) > 10.0 * EPS_ROOT:
        problems.append(f"witness: x2={x2!r} coincides with x1={x1!r}")
    if not min(x1, x2) < x3 < max(x1, x2):
        problems.append(f"witness: x3={x3!r} not strictly between x1={x1!r} and x2={x2!r}")
    for x in (x1, x2, x3):
        if not fmap.inside(x):
            problems.append(f"witness: point {x!r} outside E=[{fmap.a!r}, {fmap.b!r}]")
    return problems


def check_certify(
    alpha: float, beta: float, lam: float, max_period: int, odd, witness, three
) -> list[str]:
    """The three certificates of `certify` at one point.

    Above the onset an odd cycle and a witness must be found (the inputs
    keep a margin above onset that every period <= max_period search
    reaches); below it none of the three may exist.  The three-cycle is
    exploratory above onset: absent is fine, present must be valid.
    """
    want = oracle(alpha, beta, lam)
    where = f"alpha={alpha!r} beta={beta!r} lambda={lam!r} (mu={float(want.mu)!r})"
    if not want.in_window:
        return [f"{where}: outside the window, not a valid input"]
    fmap = PriceMap(alpha, beta, lam)
    problems = []
    if want.odd_cycle:
        if odd is None:
            problems.append("odd cycle: none found above onset")
        elif odd.period % 2 == 0 or odd.period < 3 or odd.period > max_period:
            problems.append(f"odd cycle: period {odd.period} is not odd in [3, {max_period}]")
        else:
            problems += check_cycle(fmap, odd.period, odd.points, "odd cycle")
        if witness is None:
            problems.append("witness: none found above onset")
        else:
            problems += check_witness(fmap, witness)
        if three is not None:
            problems += check_cycle(fmap, 3, three.points, "three-cycle")
    elif not want.turbulent:
        for label, cert in (("odd cycle", odd), ("witness", witness), ("three-cycle", three)):
            if cert is not None:
                problems.append(f"{label}: found below onset, where none exists")
    return [f"{where}: {p}" for p in problems]


# ---------------------------------------------------------------- verify


def band_cells(alpha_count: int, beta_count: int, lambda_count: int) -> int:
    """Grid cells of `run_verify` inside the onset band, counted exactly.

    Verify puts lambda at window position (j + 1/2)/lambda_count, i.e. at
    mu = 1 + 3*(j + 1/2)/lambda_count for every (alpha, beta).
    """
    per_cell = sum(
        1 for j in range(lambda_count)
        if in_band(1 + 3 * Fraction(2 * j + 1, 2 * lambda_count))
    )
    return alpha_count * beta_count * per_cell


def check_verify(result, shape: tuple[int, int, int], triples: int) -> list[str]:
    """A VerifyResult: passed, every cell accounted for, band count exact."""
    na, nb, nl = shape
    problems = []
    if not result.passed:
        problems.append("verify: passed is False")
    if tuple(result.grid_shape) != shape:
        problems.append(f"verify: grid_shape {result.grid_shape!r}, want {shape!r}")
    if result.cells_checked + result.cells_skipped_band != na * nb * nl:
        problems.append(
            f"verify: {result.cells_checked} checked + {result.cells_skipped_band} skipped "
            f"!= {na * nb * nl} cells"
        )
    want_band = band_cells(na, nb, nl)
    if result.cells_skipped_band != want_band:
        problems.append(f"verify: {result.cells_skipped_band} cells skipped in band, want {want_band}")
    if result.disagreements:
        problems.append(f"verify: {len(result.disagreements)} disagreements")
    if result.factor_checks != triples or result.oracle_checks != triples:
        problems.append(
            f"verify: {result.factor_checks} factor and {result.oracle_checks} oracle checks, "
            f"want {triples} each"
        )
    return problems
