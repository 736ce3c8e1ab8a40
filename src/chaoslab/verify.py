"""Cross-validation suite: the checks behind the `verify` subcommand.

Four groups of evidence:

1. verdict agreement of the closed-form and numerical classifiers over a
   dense parameter grid by distinct mu, as sweeps run (excluding a thin
   relative band around lambda_chaos, where floating point cannot resolve
   the boundary), and on the raw cells of random window triples;
2. the second-iterate sign note: the transcribed piecewise rule for
   sign(f^2(m) - m) has its direction flipped, so the suite reports rule
   vs. direct evaluation side by side without asserting agreement;
3. the third-iterate factored identity, which must hold to 1e-9;
4. low-period oracle equivalence: scan-found fixed points and two-cycles
   must match their closed forms to 1e-9.

Everything runs from a fixed internal seed; two runs produce identical
reports byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .economy import (
    EPS_CMP,
    EPS_ROOT,
    EconomyParams,
    cell_thresholds,
    critical_point,
    price_map,
    thresholds,
    trapping_interval,
)
from .gate import (
    Method,
    SecondIterateSignReport,
    classify_closed_form,
    classify_numerical,
    fixed_point,
    gate_check,
    period2_points,
    second_iterate_sign_report,
)
from .orbits import GRID_BASE, periodic_orbit_lists
from .sweep import LambdaSpec, SweepConfig, _cells, _eval_cells, mu_of

#: showcase parameters used for the informational note
NOTE_POINT = (0.75, 0.5, 3.61)
#: relative exclusion band around lambda_chaos for the agreement grid
EPS_BAND = 1e-6
#: fixed seed; determinism of the report depends on it
_SEED = 20260810


@dataclass(frozen=True)
class Disagreement:
    alpha: float
    beta: float
    lam: float
    odd_cf: bool
    odd_num: bool
    turb_cf: bool
    turb_num: bool


@dataclass
class VerifyResult:
    """Outcome of the full suite; passed covers the asserted groups only."""

    grid_shape: tuple[int, int, int]
    cells_checked: int = 0
    mu_checked: int = 0
    cells_skipped_band: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)
    raw_checks: int = 0
    raw_failures: list[str] = field(default_factory=list)
    sign_note_point: tuple[float, float, float] = NOTE_POINT
    sign_note: SecondIterateSignReport | None = None
    factor_checks: int = 0
    factor_max_err: float = 0.0
    oracle_checks: int = 0
    oracle_max_err: float = 0.0
    oracle_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            not self.disagreements
            and not self.raw_failures
            and not self.oracle_failures
            and self.factor_max_err <= 1e-9
            and self.oracle_max_err <= 1e-9
        )


def _window_triples(rng: np.random.Generator, count: int) -> list[EconomyParams]:
    triples = []
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.05, 0.95))
        frac = float(rng.uniform(0.05, 0.95))
        th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
        lam = th.lambda_g_low + frac * (th.lambda_max - th.lambda_g_low)
        triples.append(EconomyParams(alpha=alpha, beta=beta, lam=lam))
    return triples


def check_agreement(
    result: VerifyResult,
    alpha_count: int,
    beta_count: int,
    lambda_count: int,
    *,
    eps_band: float = EPS_BAND,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
) -> None:
    """Closed-form vs numerical verdicts over the grid; disagreements collected.

    The grid is a window-relative sweep over [0.05, 0.95]^2; its cells
    outside the onset band are classified by the sweep's code.  That code
    runs the numerical route once per distinct mu = 8*lam*(1-alpha)^2/beta,
    on the normal form g(x) = x + mu*(1/x - 1) of every cell with that mu
    (f(p) = z*g(p/z) at the fixed point z).  The closed-form verdicts still
    come from each cell's own thresholds, so agreement still compares two
    routes.
    """
    config = SweepConfig(
        alpha_range=(0.05, 0.95, alpha_count),
        beta_range=(0.05, 0.95, beta_count),
        lambda_spec=LambdaSpec(kind="window", count=lambda_count),
    )
    cells = _cells(config)
    lambda_chaos = cell_thresholds(cells)[2]
    kept = cells._make(v[~(np.abs(cells.lam - lambda_chaos) <= eps_band * lambda_chaos)] for v in cells)
    result.cells_skipped_band += len(cells.lam) - len(kept.lam)
    table = _eval_cells(kept, (Method.CLOSED_FORM, Method.NUMERICAL), eps_cmp, eps_root)
    result.cells_checked += len(table)
    result.mu_checked += len(set(mu_of(kept).tolist()))
    # a row is built only for a cell where the routes disagree
    for r in (table[i] for i, agree in enumerate(table.columns["agree"]) if not agree):
        verdicts = r.odd_cycle_cf, r.odd_cycle_num, r.turbulent_cf, r.turbulent_num
        result.disagreements.append(Disagreement(r.alpha, r.beta, r.lam, *verdicts))


def check_raw_cells(
    result: VerifyResult,
    triples: list[EconomyParams],
    *,
    eps_band: float = EPS_BAND,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
) -> None:
    """The gate and both verdicts of `classify` on each raw triple off the lambda_chaos band.

    The raw gate cross-checks the normal form; the grid classifies per mu only.
    """
    for params in triples:
        lambda_chaos = thresholds(params).lambda_chaos
        if abs(params.lam - lambda_chaos) <= eps_band * lambda_chaos:
            continue
        interval = trapping_interval(params)
        cf = classify_closed_form(params, eps_cmp=eps_cmp)
        num = classify_numerical(params, interval, eps_cmp=eps_cmp, eps_root=eps_root)
        tag = f"alpha={params.alpha!r} beta={params.beta!r} lambda={params.lam!r}"
        if not gate_check(params, interval, eps_cmp=eps_cmp).in_class_g:
            result.raw_failures.append(f"{tag}: the gate rejects the trapping interval")
        cf_pair = (cf.odd_cycle, cf.turbulent_second_iterate)
        if cf_pair != (num.odd_cycle, num.turbulent_second_iterate):
            result.raw_failures.append(
                f"{tag}: odd {cf.odd_cycle}/{num.odd_cycle} "
                f"turbulent {cf.turbulent_second_iterate}/{num.turbulent_second_iterate}"
            )
        result.raw_checks += 1


def check_factor_identity(result: VerifyResult, triples: list[EconomyParams]) -> None:
    """Direct f^3(m) - z against the factored form on random window triples."""
    for params in triples:
        f = price_map(params)
        m = critical_point(params)
        z = fixed_point(params)
        f2m = float(f(f(m)))
        direct = float(f(f2m)) - z
        factored = (f2m - z) * (1.0 - 2.0 * params.beta * params.lam / (f2m * z))
        err = abs(direct - factored)
        result.factor_checks += 1
        result.factor_max_err = max(result.factor_max_err, err)


def check_low_period_oracle(
    result: VerifyResult,
    triples: list[EconomyParams],
    *,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> None:
    """Scan-found orbits of period <= 2 must match the closed forms to 1e-9.

    The orbits of all triples come from one `periodic_orbit_lists` call:
    the laps of f^n of all triples are scanned together, their increasing
    laps split down to the spacing of grid_base*n points, and the brackets
    of all triples are bisected together, period by period.  The
    two-cycle is only demanded from the scan when its points are
    comfortably separated from the fixed point (a zero discriminant makes
    the crossing tangent, which a sign scan legitimately cannot see).
    """
    intervals = [trapping_interval(params) for params in triples]
    found = periodic_orbit_lists(triples, intervals, 2, eps_root=eps_root, grid_base=grid_base)
    for params, interval, orbits in zip(triples, intervals, found):
        z = fixed_point(params)
        pair = period2_points(params)
        by_period = {1: [], 2: []}
        for orb in orbits:
            by_period[orb.period].append(orb)
        tag = f"alpha={params.alpha!r} beta={params.beta!r} lambda={params.lam!r}"

        if len(by_period[1]) != 1:
            result.oracle_failures.append(f"{tag}: expected exactly one fixed orbit")
        else:
            err = abs(by_period[1][0].points[0] - z)
            result.oracle_max_err = max(result.oracle_max_err, err)

        separation = 0.0 if pair is None else pair[1] - pair[0]
        two_cycle_in_e = pair is not None and interval.a <= pair[0] and pair[1] <= interval.b
        expect_pair = two_cycle_in_e and separation > 1e-5 * interval.b
        if expect_pair and not by_period[2]:
            result.oracle_failures.append(f"{tag}: two-cycle not found by scan")
        for orb in by_period[2]:
            if pair is None:
                result.oracle_failures.append(f"{tag}: scan found a two-cycle, closed form has none")
                continue
            err = max(abs(orb.points[0] - pair[0]), abs(orb.points[1] - pair[1]))
            result.oracle_max_err = max(result.oracle_max_err, err)
        result.oracle_checks += 1


def run_verify(
    alpha_count: int = 20,
    beta_count: int = 20,
    lambda_count: int = 50,
    *,
    triples: int = 100,
    eps_band: float = EPS_BAND,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
    grid_base: int = GRID_BASE,
) -> VerifyResult:
    """Run all four groups and return the collected evidence.

    grid_base sets the smallest lap piece of the low-period oracle's orbit scans.
    """
    result = VerifyResult(grid_shape=(alpha_count, beta_count, lambda_count))
    check_agreement(
        result, alpha_count, beta_count, lambda_count,
        eps_band=eps_band, eps_cmp=eps_cmp, eps_root=eps_root,
    )
    note_params = EconomyParams(alpha=NOTE_POINT[0], beta=NOTE_POINT[1], lam=NOTE_POINT[2])
    result.sign_note = second_iterate_sign_report(note_params)
    rng = np.random.default_rng(_SEED)
    sample = _window_triples(rng, triples)
    check_raw_cells(result, sample, eps_band=eps_band, eps_cmp=eps_cmp, eps_root=eps_root)
    check_factor_identity(result, sample)
    check_low_period_oracle(result, sample, eps_root=eps_root, grid_base=grid_base)
    return result


def format_report(result: VerifyResult) -> str:
    """Human-readable, byte-stable report."""
    lines = []
    na, nb, nl = result.grid_shape
    status = "FAIL" if result.disagreements else "PASS"
    lines.append(
        f"[{status}] cross-method agreement: {na}x{nb}x{nl} grid by distinct mu, "
        f"{result.cells_checked} cells ({result.mu_checked} distinct mu) checked, "
        f"{result.cells_skipped_band} skipped inside the lambda_chaos band, "
        f"{len(result.disagreements)} disagreements"
    )
    for d in result.disagreements[:10]:
        lines.append(
            f"    disagree at alpha={d.alpha!r} beta={d.beta!r} lambda={d.lam!r}: "
            f"odd {d.odd_cf}/{d.odd_num} turbulent {d.turb_cf}/{d.turb_num}"
        )
    raw_status = "FAIL" if result.raw_failures else "PASS"
    lines.append(
        f"[{raw_status}] one-point routes on raw cells: {result.raw_checks} triples, "
        f"{len(result.raw_failures)} failures"
    )
    for msg in result.raw_failures[:10]:
        lines.append(f"    {msg}")
    if result.sign_note is not None:
        a, b, l = result.sign_note_point
        n = result.sign_note
        rule = "f2(m) - m < 0" if n.rule_predicts_drop else "f2(m) - m >= 0"
        lines.append(
            f"[INFO] second-iterate sign rule at alpha={a!r} beta={b!r} lambda={l!r}: "
            f"rule predicts {rule}; direct evaluation gives "
            f"f2(m) - m = {n.f2_minus_m!r} "
            "(rule direction flipped; direct evaluation is authoritative)"
        )
    factor_status = "PASS" if result.factor_max_err <= 1e-9 else "FAIL"
    lines.append(
        f"[{factor_status}] third-iterate factored identity: {result.factor_checks} "
        f"triples, max |direct - factored| = {result.factor_max_err!r}"
    )
    oracle_status = "PASS" if (not result.oracle_failures and result.oracle_max_err <= 1e-9) else "FAIL"
    lines.append(
        f"[{oracle_status}] low-period oracle equivalence: {result.oracle_checks} "
        f"triples, max |scan - closed form| = {result.oracle_max_err!r}"
    )
    for msg in result.oracle_failures[:10]:
        lines.append(f"    {msg}")
    lines.append(f"verdict: {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)
