"""Parameter sweeps over (alpha, beta, lambda) with CSV/JSON emission.

A sweep walks a rectangular grid in deterministic order (alpha-major, then
beta, then lambda) and classifies each cell with the requested methods.
Lambda values are either absolute or window-relative: the interesting
window (lambda_g_low, lambda_max) moves with (alpha, beta), so relative
spacing puts every cell where the classification is defined instead of
wasting grid on inadmissible speeds.  Cells outside the window keep their
threshold columns but leave every verdict column blank -- blank, not
false -- so downstream plots stay honest.

The criterion depends on a cell only through mu = 8*lam*(1-alpha)^2/beta.
With z = beta/(2*(1-alpha)), the fixed point, f(p) = z*g(p/z) for
g(x) = x + mu*(1/x - 1), which is the price map of the canonical cell
(0.75, 0.5, mu): there 2*beta = 1 and 4*(1-alpha) = 1 exactly, so the map
code evaluates g bit for bit.  A sweep therefore classifies each distinct
mu of its in-window cells once, on the canonical cell: gate, intervals,
Pi set and numerical verdicts, CHUNK_CELLS canonical cells at a time as
arrays.  Each row takes in_class_g and the numerical verdicts from its
canonical cell, and z times the canonical f2_of_m, f3_of_m and pi_max.
The closed-form verdicts come from the row's own thresholds, so the two
routes stay independent.  z and mu are computed as arrays over all cells,
and every row is bit for bit the row its cell gets on its own
(`evaluate_cell` is a one-cell sweep).  A cell whose float mu rounds onto
a window edge has no proper canonical interval; its row is blank, as
outside the window.  Window-relative sweeps share mu across (alpha, beta);
absolute-lambda sweeps have about one mu per cell, and from POOL_MIN_CHUNKS
chunks of distinct mu on, `jobs` worker processes classify the chunks.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .economy import (
    EPS_CMP,
    EPS_ROOT,
    Cells,
    EconomyParams,
    cell_intervals,
    cell_thresholds,
    interval_arrays,
    thresholds,
)
from .gate import (
    Method,
    classify_numerical,  # unused; bench/test_oracle.py checks the traced run swaps it here
    closed_form_audits,
    closed_form_rule,
    fixed_point,
    gate_reports,
    numerical_verdicts,
    period2_points,
    pi_sets,
)

#: grid density used for the admissibility check inside sweeps
SWEEP_GATE_GRID = 256
#: cells evaluated together as arrays; bounds each gate grid at CHUNK_CELLS x (SWEEP_GATE_GRID + 1)
CHUNK_CELLS = 64

#: run_sweep starts worker processes only for this many chunks of distinct mu
#: (4096 canonical cells) or more; on fewer, two workers are no faster than one
POOL_MIN_CHUNKS = 64

#: (CSV column and JSON key, SweepRow field), in column order
COLUMN_FIELDS = (
    ("alpha", "alpha"),
    ("beta", "beta"),
    ("lambda", "lam"),
    ("lambda_g_low", "lambda_g_low"),
    ("lambda_pi", "lambda_pi"),
    ("lambda_chaos", "lambda_chaos"),
    ("lambda_max", "lambda_max"),
    ("in_class_g", "in_class_g"),
    ("f2_of_m", "f2_of_m"),
    ("f3_of_m", "f3_of_m"),
    ("pi_max", "pi_max"),
    ("odd_cycle_cf", "odd_cycle_cf"),
    ("turbulent_cf", "turbulent_cf"),
    ("odd_cycle_num", "odd_cycle_num"),
    ("turbulent_num", "turbulent_num"),
    ("agree", "agree"),
)
CSV_COLUMNS = tuple(column for column, _ in COLUMN_FIELDS)


@dataclass(frozen=True)
class LambdaSpec:
    """How to place lambda values: kind is "absolute" or "window"."""

    kind: str
    count: int
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in ("absolute", "window"):
            raise ValueError(f"lambda mode must be 'absolute' or 'window', got {self.kind!r}")
        if self.count < 1:
            raise ValueError(f"lambda count must be >= 1, got {self.count!r}")
        if self.kind == "absolute":
            if self.lo is None or self.hi is None:
                raise ValueError("absolute lambda mode needs lo and hi")
            if self.count > 1 and not self.lo < self.hi:
                raise ValueError("lambda lo must be < hi when count > 1")
            if not self.lo > 0.0:
                raise ValueError("lambda values must be positive")


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification plus output options for one sweep run."""

    alpha_range: tuple[float, float, int]
    beta_range: tuple[float, float, int]
    lambda_spec: LambdaSpec
    methods: tuple[Method, ...] = (Method.CLOSED_FORM, Method.NUMERICAL)
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        for name, (lo, hi, count) in (("alpha", self.alpha_range), ("beta", self.beta_range)):
            if count < 1:
                raise ValueError(f"{name} count must be >= 1, got {count!r}")
            if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
                raise ValueError(f"{name} range must lie within (0, 1), got ({lo!r}, {hi!r})")
            if count > 1 and not lo < hi:
                raise ValueError(f"{name} lo must be < hi when count > 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output format must be 'csv' or 'json', got {self.output_format!r}")


@dataclass(frozen=True)
class SweepRow:
    """One grid cell; None marks a column left blank for that cell."""

    alpha: float
    beta: float
    lam: float
    lambda_g_low: float
    lambda_pi: float
    lambda_chaos: float
    lambda_max: float
    in_class_g: bool
    f2_of_m: float | None
    f3_of_m: float | None
    pi_max: float | None
    odd_cycle_cf: bool | None
    turbulent_cf: bool | None
    odd_cycle_num: bool | None
    turbulent_num: bool | None
    agree: bool | None


def _axis_values(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [float(lo)]
    return [float(x) for x in np.linspace(lo, hi, count)]


def lambda_values(spec: LambdaSpec, lambda_g_low: float, lambda_max: float) -> list[float]:
    """Concrete lambda values for one (alpha, beta) cell.

    Window-relative mode places count midpoints strictly inside
    (lambda_g_low, lambda_max): fractions (j + 1/2)/count of the window
    width, which never touch the window edges.
    """
    if spec.kind == "absolute":
        return _axis_values(spec.lo, spec.hi, spec.count)
    width = lambda_max - lambda_g_low
    return [lambda_g_low + (j + 0.5) / spec.count * width for j in range(spec.count)]


def evaluate_cell(
    alpha: float,
    beta: float,
    lam: float,
    methods: tuple[Method, ...],
    *,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
    gate_grid: int = SWEEP_GATE_GRID,
) -> SweepRow:
    """Classify one grid cell; outside the window all verdict columns are None."""
    return _eval_cells([(alpha, beta, lam)], methods, eps_cmp, eps_root, gate_grid)[0]


def _cells(config: SweepConfig) -> list[tuple[float, float, float]]:
    out = []
    for alpha in _axis_values(*config.alpha_range):
        for beta in _axis_values(*config.beta_range):
            params = EconomyParams(alpha=alpha, beta=beta, lam=1.0)
            th = thresholds(params)
            for lam in lambda_values(config.lambda_spec, th.lambda_g_low, th.lambda_max):
                out.append((alpha, beta, lam))
    return out


def _eval_cells(cells, methods, eps_cmp, eps_root, gate_grid=SWEEP_GATE_GRID, jobs=1):
    """Rows for the cells, in order, each distinct mu classified once on its canonical cell."""
    params = [EconomyParams(alpha=alpha, beta=beta, lam=lam) for alpha, beta, lam in cells]
    raw = Cells.of(params)
    th = cell_thresholds(raw)
    # array expressions over all cells give a cell the bits it gets alone
    z = fixed_point(raw)
    mu = 8.0 * raw.lam * np.float_power(1.0 - raw.alpha, 2.0) / raw.beta
    # a cell whose float mu rounds onto a window edge has no proper canonical interval
    proper = interval_arrays(Cells(np.full_like(mu, 0.75), np.full_like(mu, 0.5), mu))[3]
    inside = (th[0] < raw.lam) & (raw.lam < th[3]) & proper
    mus, canonical_of = np.unique(mu[inside], return_inverse=True)
    mus = mus.tolist()
    chunks = [mus[i:i + CHUNK_CELLS] for i in range(0, len(mus), CHUNK_CELLS)]
    args = [[arg] * len(chunks) for arg in (methods, eps_cmp, eps_root, gate_grid)]
    if jobs > 1 and len(chunks) >= POOL_MIN_CHUNKS:
        # imported here so that serial sweeps and every other command skip the cost
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_window_verdicts, chunks, *args))
    else:
        done = map(_window_verdicts, chunks, *args)
    verdicts = [v for chunk in done for v in chunk]
    which = iter(canonical_of.tolist())
    odd_cf, turbulent_cf = closed_form_rule(raw.lam, th[2], th[3], eps_cmp)
    with_cf = Method.CLOSED_FORM in methods

    rows = []
    for p, ok, z_p, odd, turbulent, *limits in zip(
        params, inside.tolist(), z.tolist(), odd_cf.tolist(), turbulent_cf.tolist(),
        *(t.tolist() for t in th),
    ):
        in_class_g, audit, num = verdicts[next(which)] if ok else (False, None, None)
        scaled = (None,) * 3 if audit is None else tuple(z_p * x for x in audit)
        cf_pair = (odd, turbulent) if ok and with_cf else (None, None)
        num_pair = (None, None) if num is None else (num.odd_cycle, num.turbulent_second_iterate)
        rows.append(SweepRow(
            p.alpha, p.beta, p.lam, *limits, in_class_g, *scaled, *cf_pair, *num_pair,
            agree=cf_pair == num_pair if ok and with_cf and num is not None else None,
        ))
    return rows


def _window_verdicts(mus, methods, eps_cmp, eps_root, gate_grid):
    """(in_class_g, audit floats, numerical verdict or None) per canonical cell (0.75, 0.5, mu).

    The audit floats are f2_of_m, f3_of_m and pi_max: the numerical
    verdict's, or the closed form's when only the closed form runs.
    """
    params = [EconomyParams(alpha=0.75, beta=0.5, lam=mu) for mu in mus]
    a, m, b = cell_intervals(Cells.of(params))
    gates = gate_reports(params, a, m, b, gate_grid, eps_cmp)
    pairs = [period2_points(p) for p in params]
    if Method.NUMERICAL not in methods:
        audits = closed_form_audits(params, m, pairs)
        return [(g.in_class_g, audit[:3], None) for g, audit in zip(gates, audits)]
    nums = numerical_verdicts(params, m, pi_sets(params, a, m, pairs, eps_root), eps_cmp)
    return [(g.in_class_g, (n.f2_of_m, n.f3_of_m, n.pi_max), n) for g, n in zip(gates, nums)]


def run_sweep(
    config: SweepConfig,
    *,
    jobs: int = 1,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
) -> list[SweepRow]:
    """Evaluate every grid cell, in deterministic alpha/beta/lambda order.

    With jobs > 1 and at least POOL_MIN_CHUNKS chunks of distinct mu,
    worker processes classify the CHUNK_CELLS slices of canonical cells;
    pool.map returns them in order, so the rows (and any emitted file) are
    identical to a serial run.
    """
    return _eval_cells(_cells(config), config.methods, eps_cmp, eps_root, jobs=jobs)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _row_cells(row: SweepRow) -> list[str]:
    return [_fmt(getattr(row, field)) for _, field in COLUMN_FIELDS]


def write_rows_csv(rows: list[SweepRow], stream: io.TextIOBase, metadata: list[str]) -> None:
    """CSV with '#' metadata lines, a header row, and 17-significant-digit floats."""
    for line in metadata:
        stream.write(f"# {line}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(_row_cells(row))


def row_dict(row: SweepRow) -> dict:
    """The row as a JSON-ready mapping; keys mirror the CSV columns 1:1."""
    return {column: getattr(row, field) for column, field in COLUMN_FIELDS}


def write_rows_json(rows: list[SweepRow], stream: io.TextIOBase, metadata: list[str]) -> None:
    doc = {
        "tool": {"name": "chaoslab", "version": __version__},
        "metadata": metadata,
        "rows": [row_dict(r) for r in rows],
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")
