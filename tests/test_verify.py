"""The verify suite: the low-period oracle against a per-triple loop, and the raw-cell check."""

import numpy as np
import pytest

import chaoslab.orbits
import chaoslab.sweep
from chaoslab import (
    GRID_BASE,
    EconomyParams,
    LambdaSpec,
    find_periodic_orbits,
    fixed_point,
    Method,
    SweepConfig,
    evaluate_cell,
    period2_points,
    run_sweep,
    thresholds,
    trapping_interval,
)
from chaoslab.cli import main
from chaoslab.verify import (
    Disagreement,
    VerifyResult,
    check_agreement,
    check_factor_identity,
    check_low_period_oracle,
    check_raw_cells,
    format_report,
)

from conftest import random_window_params


def _reference_oracle(result, triples, eps_root, grid_base):
    """The oracle as a loop of one `find_periodic_orbits` call per triple."""
    for params in triples:
        interval = trapping_interval(params)
        orbits = find_periodic_orbits(params, interval, 2, eps_root=eps_root, grid_base=grid_base)
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


def _oracle_fields(result):
    return result.oracle_checks, repr(result.oracle_max_err), result.oracle_failures


@pytest.mark.parametrize("grid_base", [GRID_BASE, 64, 3, 1])
def test_oracle_matches_per_triple_loop(grid_base, anchor, quiet):
    # the quiet point sits where the two-cycle is born; at grid_base 1 pieces
    # of increasing laps are never split, and the fixed point, which lies on
    # a decreasing lap of f, is still found
    triples = random_window_params(seed=909, count=40) + [
        anchor, quiet, EconomyParams(alpha=0.75, beta=0.5, lam=1.5),
    ]
    got, want = VerifyResult(grid_shape=(1, 1, 1)), VerifyResult(grid_shape=(1, 1, 1))
    check_low_period_oracle(got, triples, grid_base=grid_base)
    _reference_oracle(want, triples, 1e-10, grid_base)
    assert _oracle_fields(got) == _oracle_fields(want)
    assert got.oracle_checks == len(triples)
    assert not [f for f in got.oracle_failures if "fixed orbit" in f]


@pytest.mark.parametrize("argv,want", [
    ([], {(1, GRID_BASE), (2, 2 * GRID_BASE)}),
    (["--grid-density", "64"], {(1, 64), (2, 128)}),
])
def test_grid_density_reaches_the_oracle(monkeypatch, capsys, argv, want):
    scans = []
    real = chaoslab.orbits._minimal_period_rows

    def spy(z, mu, a, b, n, n_points, eps_root):
        scans.append((n, n_points, len(mu)))
        return real(z, mu, a, b, n, n_points, eps_root)

    monkeypatch.setattr(chaoslab.orbits, "_minimal_period_rows", spy)
    main(["verify", "--alpha-count", "2", "--beta-count", "2", "--lambda-count", "3",
          "--triples", "7", *argv])
    capsys.readouterr()
    # one pass per period over all seven triples
    assert sorted(scans) == sorted((n, points, 7) for n, points in want)


def test_raw_cells_catch_a_one_point_fault():
    # mu = 3.6, beta = 1e-12: lambda_chaos + EPS_CMP exceeds lambda_max, so the raw
    # thresholds deny the odd cycle that the numerical route, on the normal form, finds
    fault = EconomyParams(alpha=0.5, beta=1e-12, lam=1.8e-12)
    assert evaluate_cell(0.5, 1e-12, 1.8e-12, (Method.NUMERICAL,)).odd_cycle_num
    result = VerifyResult(grid_shape=(1, 1, 1))
    check_raw_cells(result, [EconomyParams(alpha=0.75, beta=0.5, lam=3.61), fault])
    assert result.raw_checks == 2 and not result.passed
    assert result.raw_failures == [
        "alpha=0.5 beta=1e-12 lambda=1.8e-12: odd False/True turbulent True/True"
    ]
    assert "[FAIL] one-point routes on raw cells: 2 triples, 1 failures" in format_report(result)


def test_raw_cells_skip_the_onset_band():
    lam = thresholds(EconomyParams(alpha=0.75, beta=0.5, lam=1.0)).lambda_chaos
    result = VerifyResult(grid_shape=(1, 1, 1))
    check_raw_cells(result, [EconomyParams(alpha=0.75, beta=0.5, lam=lam)])
    assert result.raw_checks == 0 and result.passed


def test_agreement_counts_distinct_mu():
    result = VerifyResult(grid_shape=(4, 4, 7))
    check_agreement(result, 4, 4, 7)
    config = SweepConfig(alpha_range=(0.05, 0.95, 4), beta_range=(0.05, 0.95, 4),
                         lambda_spec=LambdaSpec(kind="window", count=7))
    rows = run_sweep(config)
    mu = [8.0 * r.lam * (1.0 - r.alpha) ** 2 / r.beta for r in rows]
    assert result.cells_checked == len(rows) == 112 and result.cells_skipped_band == 0
    assert result.mu_checked == len(np.unique(mu))
    assert 7 <= result.mu_checked < 112
    assert f"112 cells ({result.mu_checked} distinct mu) checked" in format_report(result)


def test_forced_disagreements_match_the_row_loop(monkeypatch):
    # check_agreement reads the agree column and builds rows only where it is false;
    # with every third closed-form odd-cycle verdict flipped it must report what a
    # loop over every row of the same sweep reports
    real = chaoslab.sweep.closed_form_rule

    def flipped(lam, *args):
        odd_cycle, turbulent = real(lam, *args)
        return odd_cycle ^ (np.arange(len(lam)) % 3 == 0), turbulent

    monkeypatch.setattr(chaoslab.sweep, "closed_form_rule", flipped)
    result = VerifyResult(grid_shape=(4, 4, 7))
    check_agreement(result, 4, 4, 7)
    config = SweepConfig(alpha_range=(0.05, 0.95, 4), beta_range=(0.05, 0.95, 4),
                         lambda_spec=LambdaSpec(kind="window", count=7))
    want = []
    for row in list(run_sweep(config)):
        if not row.agree:
            want.append(Disagreement(
                alpha=row.alpha, beta=row.beta, lam=row.lam,
                odd_cf=row.odd_cycle_cf, odd_num=row.odd_cycle_num,
                turb_cf=row.turbulent_cf, turb_num=row.turbulent_num,
            ))
    assert result.cells_checked == 112 and len(want) == 38
    assert result.disagreements == want and not result.passed


def test_factor_identity_shares_the_sign_of_the_direct_gap():
    # direct and factored f^3(m) - z differ by float noise below 1e-12, so they
    # have the same sign wherever the gap is larger than that
    result = VerifyResult(grid_shape=(1, 1, 1))
    check_factor_identity(result, random_window_params(seed=333, count=50))
    assert result.factor_checks == 50
    assert result.factor_max_err < 1e-12
