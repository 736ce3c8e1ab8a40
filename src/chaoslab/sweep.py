"""Parameter sweeps over (alpha, beta, lambda) with CSV/JSON emission.

A sweep walks a rectangular grid in deterministic order (alpha-major, then
beta, then lambda) and classifies each cell with the requested methods.
Lambda values are either absolute or window-relative: the interesting
window (lambda_g_low, lambda_max) moves with (alpha, beta), so relative
spacing puts every cell where the classification is defined instead of
wasting grid on inadmissible speeds.  Cells outside the window keep their
threshold columns but leave every verdict column blank -- blank, not
false -- so downstream plots stay honest.

Cells are evaluated CHUNK_CELLS at a time: thresholds, intervals and gate
grids as arrays over the chunk, and the Pi-set brackets of all its cells
refined in one pass.  Every row is bit for bit the row its cell gets on
its own (`evaluate_cell` is a one-cell chunk), so chunking never shows in
the output.
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
    thresholds,
)
from .gate import (
    PI_SCAN_POINTS,
    Method,
    classify_numerical,  # unused; bench/test_oracle.py checks the traced run swaps it here
    closed_form_verdicts,
    gate_reports,
    numerical_verdicts,
    period2_points,
    pi_sets,
)

#: grid density used for the admissibility check inside sweeps
SWEEP_GATE_GRID = 256
#: cells evaluated together as arrays; bounds each gate grid at CHUNK_CELLS x (SWEEP_GATE_GRID + 1)
CHUNK_CELLS = 64

#: run_sweep starts worker processes only for grids of this many full chunks
#: (4096 cells) or more; on smaller grids, two workers are no faster than one
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
    pi_scan: int = PI_SCAN_POINTS,
) -> SweepRow:
    """Classify one grid cell; outside the window all verdict columns are None."""
    return _eval_chunk([(alpha, beta, lam)], methods, eps_cmp, eps_root, pi_scan, gate_grid)[0]


def _cells(config: SweepConfig) -> list[tuple[float, float, float]]:
    out = []
    for alpha in _axis_values(*config.alpha_range):
        for beta in _axis_values(*config.beta_range):
            params = EconomyParams(alpha=alpha, beta=beta, lam=1.0)
            th = thresholds(params)
            for lam in lambda_values(config.lambda_spec, th.lambda_g_low, th.lambda_max):
                out.append((alpha, beta, lam))
    return out


def _eval_chunk(cells, methods, eps_cmp, eps_root, pi_scan, gate_grid=SWEEP_GATE_GRID):
    """Rows for the cells, in order, evaluated CHUNK_CELLS at a time as arrays."""
    rows: list[SweepRow] = []
    for start in range(0, len(cells), CHUNK_CELLS):
        rows += _eval_cells(
            cells[start:start + CHUNK_CELLS], methods, eps_cmp, eps_root, pi_scan, gate_grid
        )
    return rows


def _eval_cells(cells, methods, eps_cmp, eps_root, pi_scan, gate_grid) -> list[SweepRow]:
    params = [EconomyParams(alpha=alpha, beta=beta, lam=lam) for alpha, beta, lam in cells]
    chunk = Cells.of(params)
    th = cell_thresholds(chunk)
    inside = ((th[0] < chunk.lam) & (chunk.lam < th[3])).tolist()
    window = [p for p, ok in zip(params, inside) if ok]
    verdicts = iter(_window_verdicts(window, methods, eps_cmp, eps_root, pi_scan, gate_grid))

    rows = []
    for p, ok, *limits in zip(params, inside, *(t.tolist() for t in th)):
        in_class_g, cf, num = next(verdicts) if ok else (False, None, None)
        audit = num if num is not None else cf
        rows.append(SweepRow(
            p.alpha, p.beta, p.lam, *limits,
            in_class_g=in_class_g,
            f2_of_m=None if audit is None else audit.f2_of_m,
            f3_of_m=None if audit is None else audit.f3_of_m,
            pi_max=None if audit is None else audit.pi_max,
            odd_cycle_cf=None if cf is None else cf.odd_cycle,
            turbulent_cf=None if cf is None else cf.turbulent_second_iterate,
            odd_cycle_num=None if num is None else num.odd_cycle,
            turbulent_num=None if num is None else num.turbulent_second_iterate,
            agree=None if cf is None or num is None else (
                cf.odd_cycle == num.odd_cycle
                and cf.turbulent_second_iterate == num.turbulent_second_iterate
            ),
        ))
    return rows


def _window_verdicts(params, methods, eps_cmp, eps_root, pi_scan, gate_grid):
    """(in_class_g, closed-form verdict or None, numerical verdict or None) per cell."""
    if not params:
        return []
    a, m, b = cell_intervals(Cells.of(params))
    gates = gate_reports(params, a, m, b, gate_grid, eps_cmp)
    pairs = [period2_points(p) for p in params]
    none = [None] * len(params)
    cfs = closed_form_verdicts(params, m, pairs, eps_cmp) if Method.CLOSED_FORM in methods else none
    nums = (
        numerical_verdicts(params, m, pi_sets(params, a, m, pairs, eps_root, pi_scan), eps_cmp)
        if Method.NUMERICAL in methods
        else none
    )
    return [(g.in_class_g, cf, num) for g, cf, num in zip(gates, cfs, nums)]


def run_sweep(
    config: SweepConfig,
    *,
    jobs: int = 1,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
    pi_scan: int = PI_SCAN_POINTS,
) -> list[SweepRow]:
    """Evaluate every grid cell, in deterministic alpha/beta/lambda order.

    pi_scan is the confined-set scan density handed to the numerical
    classifier of every cell.  With jobs > 1 and at least POOL_MIN_CHUNKS
    full chunks of cells, worker processes evaluate the grid's CHUNK_CELLS
    slices; pool.map returns them in order, so the rows (and any emitted
    file) are identical to a serial run.
    """
    cells = _cells(config)
    if jobs <= 1 or len(cells) < POOL_MIN_CHUNKS * CHUNK_CELLS:
        return _eval_chunk(cells, config.methods, eps_cmp, eps_root, pi_scan)
    # imported here so that serial sweeps and every other command skip the cost
    from concurrent.futures import ProcessPoolExecutor

    chunks = [cells[i:i + CHUNK_CELLS] for i in range(0, len(cells), CHUNK_CELLS)]
    n = len(chunks)
    rows: list[SweepRow] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for chunk_rows in pool.map(
            _eval_chunk, chunks, [config.methods] * n, [eps_cmp] * n, [eps_root] * n,
            [pi_scan] * n,
        ):
            rows += chunk_rows
    return rows


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
