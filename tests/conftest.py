"""Shared fixtures and the exact-arithmetic oracle.

The oracle iterates the price map in Fraction arithmetic, completely
independent of the float code paths under test.  Feeding it the exact
decimal parameters (e.g. Fraction("3.61")) reproduces hand iteration;
feeding it Fraction(float_value) tracks the library's own double inputs
without any rounding during iteration.
"""

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chaoslab import EconomyParams, thresholds

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def exact_step(alpha: Fraction, beta: Fraction, lam: Fraction, p: Fraction) -> Fraction:
    return p + lam * (2 * beta / p - 4 * (1 - alpha))


def exact_orbit(alpha, beta, lam, p0, n_steps: int) -> list[Fraction]:
    alpha, beta, lam = Fraction(alpha), Fraction(beta), Fraction(lam)
    pts = [Fraction(p0)]
    for _ in range(n_steps):
        pts.append(exact_step(alpha, beta, lam, pts[-1]))
    return pts


def exact_thresholds(alpha, beta) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    alpha, beta = Fraction(alpha), Fraction(beta)
    denom = (1 - alpha) ** 2
    return (
        beta / (8 * denom),
        9 * beta / (32 * denom),
        25 * beta / (72 * denom),
        beta / (2 * denom),
    )


def random_window_params(seed: int, count: int, frac_range=(0.05, 0.95)) -> list[EconomyParams]:
    """Seeded in-window parameter triples for property checks."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.05, 0.95))
        frac = float(rng.uniform(*frac_range))
        th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
        lam = th.lambda_g_low + frac * (th.lambda_max - th.lambda_g_low)
        out.append(EconomyParams(alpha=alpha, beta=beta, lam=lam))
    return out


def grid_brackets(values: np.ndarray, xs: np.ndarray) -> list[tuple[float, float]]:
    """Dense-grid reference brackets: consecutive sorted points over which the values change sign.

    Exact zeros at the points are returned as width-zero brackets.  Written
    apart from `rootfind.piece_brackets`, so the tests that scan a dense grid
    with it check the library's lap scans against an independent rule.
    """
    out: list[tuple[float, float]] = []
    sign = np.sign(values)
    for i in np.nonzero(sign == 0.0)[0]:
        out.append((float(xs[i]), float(xs[i])))
    for i in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]:
        out.append((float(xs[i]), float(xs[i + 1])))
    out.sort()
    return out


@pytest.fixture
def anchor() -> EconomyParams:
    """The showcase parameter point used throughout the docs and demos."""
    return EconomyParams(alpha=0.75, beta=0.5, lam=3.61)


@pytest.fixture
def quiet() -> EconomyParams:
    """In the window but below the chaos threshold."""
    return EconomyParams(alpha=0.75, beta=0.5, lam=2.0)


@pytest.fixture
def src_env() -> dict[str, str]:
    """Environment for a child Python that must import chaoslab from ``src``.

    ``SRC_DIR`` is absolute and goes first on ``PYTHONPATH``, so the child
    finds the package whatever its working directory is; a relative entry
    such as ``PYTHONPATH=src`` resolves against the child's cwd instead.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), inherited]) if inherited else str(SRC_DIR)
    return env
