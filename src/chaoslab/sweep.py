"""Parameter sweeps over (alpha, beta, lambda) with CSV/JSON emission.

A sweep walks a rectangular grid in deterministic order (alpha-major, then
beta, then lambda) and classifies each cell with the requested methods.
Lambda values are either absolute or window-relative: the interesting
window (lambda_g_low, lambda_max) moves with (alpha, beta), so relative
spacing puts every cell where the classification is defined instead of
wasting grid on inadmissible speeds.  Cells outside the window keep their
threshold columns but leave every verdict column blank -- blank, not
false -- so downstream plots stay honest.

The criterion depends on a cell only through mu, the parameter of its
normal form g (`economy.normal_form`).  A sweep therefore classifies each
distinct mu of its in-window cells once, in one `classify_mus` pass over
all of them: gate, intervals, Pi set and numerical verdicts of g as array
expressions.  Each row takes in_class_g and the numerical verdicts from
its mu, and z times g's f2_of_m, f3_of_m and pi_max.  The closed-form
verdicts come from the row's own thresholds, so the two routes stay
independent.  Everything per cell is a column: the cells are arrays built
from the axes and checked in one pass, the per-mu results are gathered to
them by index and scaled by z as arrays, and kept as the columns of a
`SweepTable`, which the writers read.  Every row is bit for bit the row
its cell gets on its own (`evaluate_cell` is a one-cell sweep).  A cell
whose float mu rounds onto a window edge has no proper interval of g and a blank row.
"""

from __future__ import annotations

import io
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import __version__
from .economy import (
    EPS_CMP,
    EPS_ROOT,
    Cells,
    cell_thresholds,
    normal_form,
    normal_interval,
)
from .gate import (
    Method,
    classify_mus,
    classify_numerical,  # unused; bench/test_oracle.py checks the traced run swaps it here
    closed_form_rule,
)

#: CSV columns and JSON keys, in order: the SweepRow fields, with lam written as lambda
CSV_COLUMNS = (
    "alpha", "beta", "lambda", "lambda_g_low", "lambda_pi", "lambda_chaos", "lambda_max",
    "in_class_g", "f2_of_m", "f3_of_m", "pi_max",
    "odd_cycle_cf", "turbulent_cf", "odd_cycle_num", "turbulent_num", "agree",
)
#: (CSV column and JSON key, SweepRow field), in column order
COLUMN_FIELDS = tuple(zip(CSV_COLUMNS, ("lam" if c == "lambda" else c for c in CSV_COLUMNS)))
#: CSV text of the bool and blank cells
_WORDS = {None: "", True: "true", False: "false"}


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


#: SweepRow fields that hold a float or None; the others hold a bool or None
FLOAT_FIELDS = frozenset(k for k, kind in SweepRow.__annotations__.items() if kind.startswith("float"))


@dataclass(frozen=True)
class SweepTable(Sequence):
    """Sweep rows as one list per SweepRow field; a SweepRow is built only when indexed."""

    columns: dict[str, list]

    @classmethod
    def of(cls, rows: Sequence[SweepRow]) -> SweepTable:
        """rows if it is a table, else its rows transposed once into columns."""
        if isinstance(rows, cls):
            return rows
        return cls({field: [getattr(r, field) for r in rows] for _, field in COLUMN_FIELDS})

    def __len__(self):
        return len(self.columns["alpha"])

    def __getitem__(self, index):
        cells = [c[index] for c in self.columns.values()]
        return list(map(SweepRow, *cells)) if isinstance(index, slice) else SweepRow(*cells)


def lambda_values(spec: LambdaSpec, lambda_g_low: float, lambda_max: float) -> list[float]:
    """Concrete lambda values for one (alpha, beta) cell.

    Window-relative mode places count midpoints strictly inside
    (lambda_g_low, lambda_max): fractions (j + 1/2)/count of the window
    width, which never touch the window edges.
    """
    return _lambda_rows(spec, np.array([lambda_g_low]), np.array([lambda_max]))[0].tolist()


def _lambda_rows(spec: LambdaSpec, lambda_g_low: np.ndarray, lambda_max: np.ndarray) -> np.ndarray:
    """`lambda_values` of each window edge pair, one row of spec.count values per pair."""
    if spec.kind == "absolute":
        return np.broadcast_to(np.linspace(spec.lo, spec.hi, spec.count), (len(lambda_max), spec.count))
    low = lambda_g_low[:, None]
    return low + (np.arange(spec.count) + 0.5) / spec.count * (lambda_max[:, None] - low)


def evaluate_cell(
    alpha: float,
    beta: float,
    lam: float,
    methods: tuple[Method, ...],
    *,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
) -> SweepRow:
    """Classify one grid cell; outside the window all verdict columns are None."""
    return _eval_cells(Cells.checked([alpha], [beta], [lam]), methods, eps_cmp, eps_root)[0]


def _cells(config: SweepConfig) -> Cells:
    """The grid's cells, alpha-major, then beta, then lambda."""
    count = config.lambda_spec.count
    grid = np.meshgrid(np.linspace(*config.alpha_range), np.linspace(*config.beta_range), indexing="ij")
    alpha, beta = (v.ravel() for v in grid)
    th = cell_thresholds(Cells(alpha, beta, np.ones_like(alpha)))
    lam = _lambda_rows(config.lambda_spec, th[0], th[3]).ravel()
    return Cells(np.repeat(alpha, count), np.repeat(beta, count), lam)


def mu_of(cells: Cells) -> np.ndarray:
    """mu = 8*lam*(1-alpha)^2/beta of every cell, as `normal_form` gives it."""
    return normal_form(cells)[1]


def _eval_cells(cells: Cells, methods, eps_cmp, eps_root):
    """The table of the cells, in order, each distinct mu classified once in the normal form.

    Raises the ValueError of EconomyParams for the first invalid cell.
    """
    raw = Cells.checked(*cells)
    th = cell_thresholds(raw)
    # array expressions over all cells give a cell the bits it gets alone
    z, mu = normal_form(raw)
    # a cell whose float mu rounds onto a window edge has no proper interval of g
    a, m, b = normal_interval(mu)
    inside = (th[0] < raw.lam) & (raw.lam < th[3]) & (0.0 < a) & (a < m) & (m < b)
    mus, mu_index = np.unique(mu[inside], return_inverse=True)
    per_mu = classify_mus(mus, methods, eps_cmp, eps_root)
    # gather the per-mu columns to the inside cells; the audit floats are f2_of_m,
    # f3_of_m and pi_max: the numerical verdict's, or the closed form's when only it runs
    in_class_g = np.zeros(len(mu), dtype=bool)
    in_class_g[inside] = per_mu.gate[0][mu_index]
    audits = [z[inside] * v[mu_index] for v in (per_mu.numerical or per_mu.closed_form)[2:5]]
    cf = num = (None, None)
    if Method.CLOSED_FORM in methods:
        cf = [v[inside] for v in closed_form_rule(raw.lam, th[2], th[3], eps_cmp)]
    if Method.NUMERICAL in methods:
        num = [v[mu_index] for v in per_mu.numerical[:2]]
    agree = None if cf[0] is None or num[0] is None else (cf[0] == num[0]) & (cf[1] == num[1])
    columns = [v.tolist() for v in (*raw, *th, in_class_g)]
    # None blanks the cells outside, and every cell of a method not run
    for values in (*audits, *cf, *num, agree):
        column = np.full(len(mu), None, dtype=object)
        column[inside] = values
        columns.append(column.tolist())
    return SweepTable(dict(zip(SweepRow.__dataclass_fields__, columns)))


def run_sweep(
    config: SweepConfig,
    *,
    jobs: int = 1,
    eps_cmp: float = EPS_CMP,
    eps_root: float = EPS_ROOT,
) -> SweepTable:
    """Evaluate every grid cell, in deterministic alpha/beta/lambda order.

    Sweeps run in one process: jobs is accepted for callers that pass
    jobs=1, and any other value raises ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1: sweeps run in one process, got {jobs!r}")
    return _eval_cells(_cells(config), config.methods, eps_cmp, eps_root)


def write_rows_csv(rows: Sequence[SweepRow], stream: io.TextIOBase, metadata: list[str]) -> None:
    """CSV with '#' metadata lines, a header row, and 17-significant-digit floats.

    One ",%.17g" template formats a column's distinct floats, its empty first field
    standing for None.  No cell needs quoting: each is a float, true, false or empty.
    """
    text = []
    for field, column in SweepTable.of(rows).columns.items():
        words = _WORDS
        if field in FLOAT_FIELDS:
            floats = [v for v in dict.fromkeys(column) if v is not None]
            words = dict(zip([None, *floats], (",%.17g" * len(floats) % tuple(floats)).split(",")))
        text.append(map(words.__getitem__, column))
    lines = [*(f"# {line}" for line in metadata), ",".join(CSV_COLUMNS), *map(",".join, zip(*text))]
    stream.write("\n".join(lines) + "\n")


def write_rows_json(rows: Sequence[SweepRow], stream: io.TextIOBase, metadata: list[str]) -> None:
    doc = {
        "tool": {"name": "chaoslab", "version": __version__},
        "metadata": metadata,
        "rows": [dict(zip(CSV_COLUMNS, v)) for v in zip(*SweepTable.of(rows).columns.values())],
    }
    json.dump(doc, stream, indent=2)
    stream.write("\n")
