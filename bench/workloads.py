"""The four workloads: seeded inputs, the timed operation and its checks.

Each workload yields rounds of inputs from `random.Random(f"{name}:{seed}")`;
a round always has the same make-up, so a run of whole rounds attempts the
same share of every kind of input whatever its seed and length.  The
operation calls chaoslab's public functions through the package namespace
at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import chaoslab as cl

import oracle

# chaoslab's CLI defaults (--grid-density 8192, --max-period 15)
CLASSIFY_GATE_GRID = 512
CLASSIFY_PI_SCAN = 4096
CERTIFY_MAX_PERIOD = 15


@dataclass(frozen=True)
class Point:
    alpha: float
    beta: float
    lam: float
    #: the known fault this fixed input reproduces; None for seeded inputs
    fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[list]]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    #: items one operation completes: points, sweep cells or checked verify cells
    items: Callable[[Any], int]


def _evenly_spread(rng: random.Random, lo: float, hi: float) -> Iterator[float]:
    """Endless values in [lo, hi): the golden-ratio sequence from a seeded start.

    Any run of consecutive values covers [lo, hi) almost evenly, so a run's
    sample of costs hardly depends on the seed.
    """
    u = rng.random()
    step = (math.sqrt(5.0) - 1.0) / 2.0
    while True:
        yield lo + u * (hi - lo)
        u = (u + step) % 1.0


def _point_at_mu(rng: random.Random, mu: float, alpha_range, log_beta_range) -> Point:
    """A seeded (alpha, beta) with lambda placed at mu, off the onset band."""
    while True:
        alpha = rng.uniform(*alpha_range)
        beta = math.exp(rng.uniform(*log_beta_range))
        lam = oracle.lam_for_mu(alpha, beta, mu)
        want = oracle.oracle(alpha, beta, lam)
        if want.in_window and not oracle.in_band(want.mu):
            return Point(alpha, beta, lam)
        mu = mu * (1.0 + 4e-6) if mu > oracle.MU_ONSET else mu * (1.0 - 4e-6)


# ---------------------------------------------------------------- classify_points

#: seeded points per round; each is fresh, so no two share their mu
CLASSIFY_SEEDED = 36
CLASSIFY_MU = (1.02, 3.98)
CLASSIFY_ALPHA = (0.02, 0.98)
CLASSIFY_LOG_BETA = (math.log(1e-3), math.log(0.98))

#: fixed inputs in every round, each failing at every call through a known fault
CLASSIFY_FAULTS = (
    # closed form: lambda_chaos + EPS_CMP > lambda_max when beta ~ 1e-12 (mu = 3.6)
    Point(0.5, 1e-12, 1.8e-12, "small-beta closed-form verdict"),
    # numerical: absolute EPS_CMP/EPS_ROOT against a price scale ~ beta (mu = 2.5)
    Point(0.5, 1e-10, 1.25e-10, "small-beta numerical verdict"),
    # pi_set finds no confined point and raises ConsistencyError (mu ~ 3.2)
    Point(0.9999999, 0.5, 2.0e13, "ConsistencyError near alpha -> 1"),
    Point(0.9999999, 0.25, 1.0e13, "ConsistencyError near alpha -> 1"),
)


def classify_rounds(seed: int) -> Iterator[list[Point]]:
    rng = random.Random(f"classify_points:{seed}")
    mus = _evenly_spread(rng, *CLASSIFY_MU)
    while True:
        points = [_point_at_mu(rng, next(mus), CLASSIFY_ALPHA, CLASSIFY_LOG_BETA)
                  for _ in range(CLASSIFY_SEEDED)]
        points += CLASSIFY_FAULTS
        rng.shuffle(points)
        yield points


def classify(point: Point):
    """What `chaoslab classify` computes at its defaults, minus argument parsing."""
    params = cl.EconomyParams(alpha=point.alpha, beta=point.beta, lam=point.lam)
    cl.thresholds(params)
    interval = cl.trapping_interval(params)
    gate = cl.gate_check(params, interval, CLASSIFY_GATE_GRID)
    cf = cl.classify_closed_form(params)
    num = cl.classify_numerical(params, interval, n_scan=CLASSIFY_PI_SCAN)
    return gate, cf, num


def check_classify(point: Point, out) -> list[str]:
    return oracle.check_classify(point.alpha, point.beta, point.lam, *out)


# ---------------------------------------------------------------- sweep_window

SWEEP_COUNTS = (5, 5, 10)  # alpha, beta, lambda: 250 cells, 10 distinct mu


@dataclass(frozen=True)
class Grid:
    alpha_range: tuple[float, float, int]
    beta_range: tuple[float, float, int]
    lambda_count: int


def sweep_rounds(seed: int) -> Iterator[list[Grid]]:
    rng = random.Random(f"sweep_window:{seed}")
    na, nb, nl = SWEEP_COUNTS
    while True:
        yield [Grid(
            alpha_range=(rng.uniform(0.05, 0.35), rng.uniform(0.65, 0.95), na),
            beta_range=(rng.uniform(0.05, 0.35), rng.uniform(0.65, 0.95), nb),
            lambda_count=nl,
        )]


def sweep(grid: Grid):
    config = cl.SweepConfig(
        alpha_range=grid.alpha_range,
        beta_range=grid.beta_range,
        lambda_spec=cl.LambdaSpec(kind="window", count=grid.lambda_count),
    )
    rows = cl.run_sweep(config, jobs=1)
    buf = io.StringIO()
    cl.write_rows_csv(rows, buf, ["benchmark sweep, window-relative lambda"])
    return rows, buf.getvalue()


def check_sweep(grid: Grid, out) -> list[str]:
    rows, text = out
    problems = oracle.check_sweep_rows(rows, grid.alpha_range, grid.beta_range, grid.lambda_count)
    return problems + oracle.check_sweep_csv(text, rows, cl.CSV_COLUMNS)


# ---------------------------------------------------------------- certify_points

#: per round: chaotic points over the band above onset, quiet points below it
CERTIFY_CHAOTIC = 6
CERTIFY_QUIET = 2
CERTIFY_CHAOTIC_MU = (2.85, 3.95)  # onset is 25/9 = 2.778
CERTIFY_QUIET_MU = (1.05, 2.70)
CERTIFY_ALPHA = (0.05, 0.95)
CERTIFY_LOG_BETA = (math.log(0.05), math.log(0.95))


def certify_rounds(seed: int) -> Iterator[list[Point]]:
    rng = random.Random(f"certify_points:{seed}")
    chaotic = _evenly_spread(rng, *CERTIFY_CHAOTIC_MU)
    quiet = _evenly_spread(rng, *CERTIFY_QUIET_MU)
    while True:
        mus = ([next(chaotic) for _ in range(CERTIFY_CHAOTIC)]
               + [next(quiet) for _ in range(CERTIFY_QUIET)])
        points = [_point_at_mu(rng, mu, CERTIFY_ALPHA, CERTIFY_LOG_BETA) for mu in mus]
        rng.shuffle(points)
        yield points


def certify(point: Point):
    """What `chaoslab certify` computes at its defaults."""
    params = cl.EconomyParams(alpha=point.alpha, beta=point.beta, lam=point.lam)
    interval = cl.trapping_interval(params)
    odd = cl.find_odd_cycle(params, interval, CERTIFY_MAX_PERIOD)
    witness = cl.find_turbulence_witness(params, interval)
    three = cl.search_period3(params, interval)
    return odd, witness, three


def check_certify(point: Point, out) -> list[str]:
    return oracle.check_certify(point.alpha, point.beta, point.lam, CERTIFY_MAX_PERIOD, *out)


# ---------------------------------------------------------------- verify_suite

#: grid shapes of 240 cells each; a round runs every shape once, in seeded order
VERIFY_SHAPES = ((4, 5, 12), (5, 4, 12), (4, 6, 10), (6, 4, 10),
                 (5, 6, 8), (6, 5, 8), (3, 8, 10), (8, 3, 10))
VERIFY_TRIPLES = 24


def verify_rounds(seed: int) -> Iterator[list[tuple[int, int, int]]]:
    rng = random.Random(f"verify_suite:{seed}")
    while True:
        yield rng.sample(VERIFY_SHAPES, len(VERIFY_SHAPES))


def verify(shape: tuple[int, int, int]):
    return cl.run_verify(*shape, triples=VERIFY_TRIPLES)


def check_verify(shape: tuple[int, int, int], result) -> list[str]:
    return oracle.check_verify(result, shape, VERIFY_TRIPLES)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify_points", classify_rounds, classify, check_classify, lambda p: 1),
        Workload("sweep_window", sweep_rounds, sweep, check_sweep,
                 lambda g: g.alpha_range[2] * g.beta_range[2] * g.lambda_count),
        Workload("certify_points", certify_rounds, certify, check_certify, lambda p: 1),
        Workload("verify_suite", verify_rounds, verify, check_verify,
                 lambda s: s[0] * s[1] * s[2] - oracle.band_cells(*s)),
    )
}
