import csv
import dataclasses
import io
import json
import math
from collections.abc import Sequence

import numpy as np
import pytest

import chaoslab.sweep

from chaoslab import (
    CSV_COLUMNS,
    EPS_CMP,
    EPS_ROOT,
    EconomyParams,
    LambdaSpec,
    Method,
    SweepConfig,
    classify_closed_form,
    classify_numerical,
    evaluate_cell,
    gate_check,
    lambda_values,
    run_sweep,
    thresholds,
    trapping_interval,
    write_rows_csv,
    write_rows_json,
)
from chaoslab.economy import Cells
from chaoslab.gate import MuColumns
from chaoslab.sweep import SweepRow, SweepTable


def _config(**overrides):
    base = dict(
        alpha_range=(0.6, 0.8, 3),
        beta_range=(0.4, 0.6, 2),
        lambda_spec=LambdaSpec(kind="window", count=4),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestLambdaValues:
    def test_window_midpoints_stay_inside(self):
        th = thresholds(EconomyParams(alpha=0.75, beta=0.5, lam=1.0))
        values = lambda_values(LambdaSpec(kind="window", count=7), th.lambda_g_low, th.lambda_max)
        assert len(values) == 7
        assert all(th.lambda_g_low < v < th.lambda_max for v in values)
        assert values == sorted(values)

    def test_single_window_value_is_midpoint(self):
        values = lambda_values(LambdaSpec(kind="window", count=1), 1.0, 4.0)
        assert values == [2.5]

    def test_absolute_values(self):
        spec = LambdaSpec(kind="absolute", count=3, lo=1.0, hi=2.0)
        assert lambda_values(spec, 0.0, 0.0) == pytest.approx([1.0, 1.5, 2.0])

    @pytest.mark.parametrize("count", [1, 2, 7, 50])
    def test_window_values_follow_the_scalar_formula_bit_for_bit(self, count):
        spec = LambdaSpec(kind="window", count=count)
        for low, width in np.random.default_rng(count).uniform(1e-3, 10.0, (20, 2)).tolist():
            high = low + width
            want = [low + (j + 0.5) / count * (high - low) for j in range(count)]
            got = lambda_values(spec, low, high)
            assert [type(v) for v in got] == [float] * count
            assert [v.hex() for v in got] == [v.hex() for v in want]


class TestConfigValidation:
    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            _config(alpha_range=(0.0, 0.5, 2))

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            _config(alpha_range=(0.8, 0.2, 5))

    def test_allows_point_range_with_count_one(self):
        config = _config(alpha_range=(0.5, 0.5, 1))
        assert config.alpha_range == (0.5, 0.5, 1)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            _config(beta_range=(0.4, 0.6, 0))
        with pytest.raises(ValueError):
            LambdaSpec(kind="window", count=0)

    def test_rejects_unknown_lambda_mode(self):
        with pytest.raises(ValueError):
            LambdaSpec(kind="log", count=3)

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError):
            _config(methods=())

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            _config(output_format="xml")


class TestEvaluateCell:
    def test_single_cell_matches_classifiers(self):
        row = evaluate_cell(0.75, 0.5, 3.61, (Method.CLOSED_FORM, Method.NUMERICAL))
        params = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)
        cf = classify_closed_form(params)
        num = classify_numerical(params, trapping_interval(params))
        assert row.in_class_g
        assert row.odd_cycle_cf == cf.odd_cycle
        assert row.turbulent_cf == cf.turbulent_second_iterate
        assert row.odd_cycle_num == num.odd_cycle
        assert row.turbulent_num == num.turbulent_second_iterate
        assert row.f2_of_m == pytest.approx(num.f2_of_m, abs=1e-12)
        assert row.f3_of_m == pytest.approx(num.f3_of_m, abs=1e-12)
        assert row.pi_max == pytest.approx(num.pi_max, abs=1e-12)
        assert row.agree is True

    def test_out_of_window_cell_is_blank(self):
        row = evaluate_cell(0.75, 0.5, 0.5, (Method.CLOSED_FORM, Method.NUMERICAL))
        assert row.in_class_g is False
        assert row.lambda_g_low == pytest.approx(1.0)
        for name in ("f2_of_m", "f3_of_m", "pi_max", "odd_cycle_cf",
                     "turbulent_cf", "odd_cycle_num", "turbulent_num", "agree"):
            assert getattr(row, name) is None

    def test_single_method_leaves_other_blank(self):
        row = evaluate_cell(0.75, 0.5, 3.61, (Method.CLOSED_FORM,))
        assert row.odd_cycle_cf is True
        assert row.odd_cycle_num is None
        assert row.agree is None


class TestRunSweep:
    def test_row_order_is_alpha_major(self):
        rows = run_sweep(_config())
        assert len(rows) == 3 * 2 * 4
        keys = [(r.alpha, r.beta, r.lam) for r in rows]
        assert keys == sorted(keys)

    def test_window_mode_rows_all_inside(self):
        rows = run_sweep(_config())
        assert all(r.in_class_g for r in rows)
        assert all(r.agree for r in rows)

    def test_absolute_mode_blanks_outside(self):
        config = _config(
            alpha_range=(0.75, 0.75, 1),
            beta_range=(0.5, 0.5, 1),
            lambda_spec=LambdaSpec(kind="absolute", count=3, lo=0.5, hi=3.61),
        )
        rows = run_sweep(config)
        assert [r.in_class_g for r in rows] == [False, True, True]
        assert rows[0].odd_cycle_cf is None

    def test_parallel_equals_serial(self, monkeypatch):
        # 144 cells whose distinct mu go to one array pass; the removed worker pool split them
        # into chunks, and the pass must give each mu the columns it gets alone
        config = _config(lambda_spec=LambdaSpec(kind="window", count=24))
        rows = run_sweep(config)
        assert len(rows) == 144
        _classify_one_mu_at_a_time(monkeypatch)
        assert run_sweep(config) == rows

    def test_parallel_equals_serial_with_blank_cells(self, monkeypatch):
        # 3 x 2 x 12 absolute lambdas, of which some fall outside each window
        config = _config(lambda_spec=LambdaSpec(kind="absolute", count=12, lo=0.2, hi=4.0))
        rows = run_sweep(config)
        assert len(rows) >= 64
        assert any(r.agree is None for r in rows) and any(r.agree for r in rows)
        _classify_one_mu_at_a_time(monkeypatch)
        assert run_sweep(config) == rows

    def test_only_one_job_is_accepted(self):
        # sweeps run in one process; jobs stays a keyword for callers that pass jobs=1
        config = _config(lambda_spec=LambdaSpec(kind="absolute", count=12, lo=0.2, hi=4.0))
        assert run_sweep(config, jobs=1) == run_sweep(config)
        for jobs in (0, 2):
            with pytest.raises(ValueError, match="jobs must be 1"):
                run_sweep(config, jobs=jobs)

    @pytest.mark.parametrize("kind", ["window", "absolute"])
    @pytest.mark.parametrize(
        "methods",
        [(Method.CLOSED_FORM, Method.NUMERICAL), (Method.CLOSED_FORM,), (Method.NUMERICAL,)],
    )
    def test_chunked_rows_equal_single_cells(self, kind, methods):
        spec = (LambdaSpec(kind="window", count=12) if kind == "window"
                else LambdaSpec(kind="absolute", count=12, lo=0.05, hi=3.0))
        config = _config(alpha_range=(0.2, 0.9, 4), beta_range=(0.1, 0.9, 3),
                         lambda_spec=spec, methods=methods)
        rows = run_sweep(config)
        assert len(rows) > 130
        want = [evaluate_cell(r.alpha, r.beta, r.lam, methods) for r in rows]
        assert list(rows) == want
        if kind == "absolute":
            assert any(r.f2_of_m is None for r in rows) and any(r.f2_of_m for r in rows)

    def test_onset_ratio_constant_across_alpha(self):
        # lambda_chaos / lambda_max = 25/36 independently of (alpha, beta)
        config = _config(alpha_range=(0.1, 0.9, 5), beta_range=(0.5, 0.5, 1))
        for row in run_sweep(config):
            assert row.lambda_chaos / row.lambda_max == pytest.approx(25 / 36, abs=1e-12)


class TestSweepTable:
    """run_sweep's result: one list per SweepRow field, a row built only when indexed."""

    def test_sequence_of_the_rows_of_its_cells(self):
        config = _WRITER_CONFIGS["absolute_with_blanks"]
        table = run_sweep(config)
        cells = zip(*(table.columns[field] for field in ("alpha", "beta", "lam")))
        rows = [evaluate_cell(*cell, config.methods) for cell in cells]
        assert isinstance(table, Sequence) and len(table) == len(rows) == 72
        assert any(r.agree is None for r in rows) and any(r.agree for r in rows)
        for i in (0, 5, 71, -1, -72):
            assert type(table[i]) is SweepRow and table[i] == rows[i]
        for cut in (slice(3, 9), slice(None, None, -5), slice(70, 99), slice(72, None)):
            assert table[cut] == rows[cut]
        assert list(table) == [row for row in table] == rows
        assert table.index(rows[7]) == 7 and rows[7] in table
        with pytest.raises(IndexError):
            table[72]
        with pytest.raises(IndexError):
            table[-73]

    def test_tables_with_equal_rows_are_equal(self):
        table = run_sweep(_config())
        assert table == run_sweep(_config())
        assert table != run_sweep(_config(lambda_spec=LambdaSpec(kind="window", count=5)))
        assert SweepTable.of(table) is table
        assert SweepTable.of(list(table)) == table and SweepTable.of(table[:5]) != table
        assert len(SweepTable.of([])) == 0

    def test_run_sweep_and_the_writers_build_no_rows(self, monkeypatch):
        built = []

        class CountedRow(SweepRow):
            def __init__(self, *values):
                built.append(values)
                super().__init__(*values)

        monkeypatch.setattr(chaoslab.sweep, "SweepRow", CountedRow)
        table = run_sweep(_WRITER_CONFIGS["absolute_with_blanks"])
        write_rows_csv(table, io.StringIO(), [])
        write_rows_json(table, io.StringIO(), [])
        assert built == []
        row = table[3]
        assert type(row) is CountedRow and built == [tuple(vars(row).values())]


def _pair(verdict):
    return verdict.odd_cycle, verdict.turbulent_second_iterate


def _off_band_cells(seed: int, count: int) -> list[tuple[float, float, float]]:
    """Seeded window cells with mu at least 0.02 from the onset 25/9, beta log-uniform."""
    rng = np.random.default_rng(seed)
    cells = []
    while len(cells) < count:
        alpha = float(rng.uniform(0.05, 0.95))
        beta = math.exp(rng.uniform(math.log(1e-3), math.log(0.95)))
        mu = float(rng.uniform(1.05, 3.95))
        if abs(mu - 25 / 9) >= 0.02:
            cells.append((alpha, beta, mu * beta / (8.0 * (1.0 - alpha) ** 2)))
    return cells


class TestCanonicalCells:
    """Sweeps classify each distinct mu once, on the cell (0.75, 0.5, mu), and scale by z."""

    def test_each_distinct_mu_is_classified_once(self, monkeypatch):
        calls = _spy_on_classify_mus(monkeypatch)
        config = _config(alpha_range=(0.1, 0.9, 5), beta_range=(0.1, 0.9, 5),
                         lambda_spec=LambdaSpec(kind="window", count=10))
        rows = run_sweep(config)
        assert len(rows) == 250
        alpha, beta, lam = (np.array(v) for v in zip(*((r.alpha, r.beta, r.lam) for r in rows)))
        distinct = np.unique(8.0 * lam * np.float_power(1.0 - alpha, 2.0) / beta).tolist()
        assert len(distinct) < 40
        assert calls == [distinct]

    def test_rows_match_the_raw_classifiers(self):
        for alpha, beta, lam in _off_band_cells(7, 40):
            row = evaluate_cell(alpha, beta, lam, (Method.CLOSED_FORM, Method.NUMERICAL))
            params = EconomyParams(alpha=alpha, beta=beta, lam=lam)
            cf = classify_closed_form(params)
            num = classify_numerical(params, trapping_interval(params))
            assert row.in_class_g and row.agree
            assert (row.odd_cycle_cf, row.turbulent_cf) == _pair(cf)
            assert (row.odd_cycle_num, row.turbulent_num) == _pair(num)
            for field in ("f2_of_m", "f3_of_m", "pi_max"):
                assert getattr(row, field) == pytest.approx(getattr(num, field), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "methods", [(Method.CLOSED_FORM, Method.NUMERICAL), (Method.CLOSED_FORM,)]
    )
    def test_cell_that_is_its_own_canonical_cell_is_unchanged(self, methods):
        # at (0.75, 0.5) z = 1 and mu = lam exactly: rows equal the raw one-cell routes bit for bit
        config = _config(alpha_range=(0.75, 0.75, 1), beta_range=(0.5, 0.5, 1),
                         lambda_spec=LambdaSpec(kind="window", count=24), methods=methods)
        for row in run_sweep(config):
            params = EconomyParams(alpha=0.75, beta=0.5, lam=row.lam)
            interval = trapping_interval(params)
            cf = classify_closed_form(params)
            num = classify_numerical(params, interval) if Method.NUMERICAL in methods else None
            audit = num or cf
            gate = gate_check(params, interval)
            assert row.in_class_g == gate.in_class_g
            assert (row.f2_of_m, row.f3_of_m, row.pi_max) == (
                audit.f2_of_m, audit.f3_of_m, audit.pi_max
            )
            assert (row.odd_cycle_cf, row.turbulent_cf) == _pair(cf)
            if num is not None:
                assert (row.odd_cycle_num, row.turbulent_num) == _pair(num)

    @pytest.mark.parametrize("alpha, beta, lam, odd_cycle", [
        # mu = 2.5, z = 1e-10: on the raw cell the 1e-9 merge width folds z into a lower Pi point
        (0.5, 1e-10, 1.25e-10, False),
        # mu ~ 3.2, z = 2.5e6: on the raw cell the 1e-10 residual bound rejects every Pi point
        (0.9999999, 0.5, 2.0e13, True),
    ])
    def test_known_fault_inputs_agree_in_a_sweep(self, alpha, beta, lam, odd_cycle):
        config = _config(alpha_range=(alpha, alpha, 1), beta_range=(beta, beta, 1),
                         lambda_spec=LambdaSpec(kind="absolute", count=1, lo=lam, hi=lam))
        [row] = run_sweep(config)
        assert row.in_class_g and row.agree is True
        assert row.odd_cycle_num is odd_cycle and row.odd_cycle_cf is odd_cycle

    def test_cells_one_ulp_inside_the_window_edges(self):
        # a cell whose float mu rounds onto a window edge gets a blank row, not an exception
        rng = np.random.default_rng(1)
        cells = []
        for alpha, beta in [(0.75, 0.5), *rng.uniform(0.05, 0.95, (30, 2)).tolist()]:
            th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
            for lam in (math.nextafter(th.lambda_g_low, math.inf), math.nextafter(th.lambda_max, 0.0)):
                cells.append((alpha, beta, lam))
        methods = (Method.CLOSED_FORM, Method.NUMERICAL)
        rows = chaoslab.sweep._eval_cells(_as_cells(cells), methods, EPS_CMP, EPS_ROOT)
        assert list(rows) == [evaluate_cell(*cell, methods) for cell in cells]
        # at (0.75, 0.5) mu = lam: 1 + ulp has a = m in floats, 4 - ulp is proper
        assert rows[0].agree is None and not rows[0].in_class_g
        assert rows[1].agree is True and rows[1].odd_cycle_num
        assert {r.agree for r in rows} == {None, True}
        for row in rows:
            assert row.lambda_g_low < row.lam < row.lambda_max


def _as_cells(triples) -> Cells:
    return Cells(*(np.array(v, dtype=float) for v in zip(*triples)))


def _reference_cells(config: SweepConfig) -> list[tuple[float, float, float]]:
    """The grid as a nested loop over (alpha, beta), one EconomyParams and thresholds call each."""
    def axis(lo, hi, count):
        return [float(lo)] if count == 1 else [float(x) for x in np.linspace(lo, hi, count)]

    out = []
    for alpha in axis(*config.alpha_range):
        for beta in axis(*config.beta_range):
            th = thresholds(EconomyParams(alpha=alpha, beta=beta, lam=1.0))
            for lam in lambda_values(config.lambda_spec, th.lambda_g_low, th.lambda_max):
                out.append((alpha, beta, lam))
    return out


class TestArrayCells:
    """Sweeps build their cells, and check them, as arrays."""

    @pytest.mark.parametrize("alpha_range, beta_range", [
        ((0.6, 0.8, 3), (0.4, 0.6, 2)),
        ((0.05, 0.95, 7), (0.3, 0.3, 1)),
        ((0.5, 0.5, 1), (0.01, 0.99, 5)),
        ((0.9999, 0.9999, 1), (1e-9, 1e-9, 1)),
    ])
    @pytest.mark.parametrize("spec", [
        LambdaSpec(kind="window", count=1),
        LambdaSpec(kind="window", count=13),
        LambdaSpec(kind="absolute", count=1, lo=0.7, hi=0.7),
        LambdaSpec(kind="absolute", count=9, lo=0.05, hi=4.0),
    ])
    def test_cells_equal_the_nested_loop_bit_for_bit(self, alpha_range, beta_range, spec):
        config = _config(alpha_range=alpha_range, beta_range=beta_range, lambda_spec=spec)
        cells = chaoslab.sweep._cells(config)
        got = list(zip(*(v.tolist() for v in cells)))
        want = _reference_cells(config)
        assert [tuple(map(float.hex, c)) for c in got] == [tuple(map(float.hex, c)) for c in want]

    @pytest.mark.parametrize("bad", [
        (0.0, 0.5, 1.0), (1.0, 0.5, 1.0), (math.nan, 0.5, 1.0), (0.5, 1.5, 1.0),
        (0.5, 0.5, 0.0), (0.5, 0.5, -1.0), (0.5, 0.5, math.inf), (0.5, 0.5, math.nan),
    ])
    def test_bad_cells_raise_the_message_of_economy_params(self, bad):
        with pytest.raises(ValueError) as want:
            EconomyParams(*bad)
        methods = (Method.CLOSED_FORM, Method.NUMERICAL)
        with pytest.raises(ValueError) as got:
            evaluate_cell(*bad, methods)
        assert str(got.value) == str(want.value)
        # the first bad cell is reported, not a later one
        cells = _as_cells([(0.75, 0.5, 3.61), (0.6, 0.4, 1.0), bad, (0.5, 0.5, -5.0)])
        with pytest.raises(ValueError) as got:
            chaoslab.sweep._eval_cells(cells, methods, EPS_CMP, EPS_ROOT)
        assert str(got.value) == str(want.value)

    def test_numpy_scalar_inputs_give_native_fields(self):
        row = evaluate_cell(np.float64(0.75), np.float32(0.5), np.float64(3.61),
                            (Method.CLOSED_FORM, Method.NUMERICAL))
        assert type(row.lam) is float and type(row.alpha) is float
        assert row.agree is True and row.in_class_g is True
        for value in vars(row).values():
            assert type(value) in (float, bool)

    def test_blank_fields_are_none_and_the_rest_native(self):
        config = _config(lambda_spec=LambdaSpec(kind="absolute", count=12, lo=0.2, hi=4.0))
        rows = run_sweep(config)
        assert any(r.agree is None for r in rows) and any(r.agree for r in rows)
        for row in rows:
            for name, value in vars(row).items():
                assert value is None or type(value) is (
                    float if name in chaoslab.sweep.FLOAT_FIELDS else bool
                )

    def test_economy_params_are_built_per_distinct_mu_not_per_cell(self, monkeypatch):
        # the array pass takes the distinct mu as floats; no cell builds an EconomyParams
        built = []
        real = EconomyParams.__post_init__

        def counted(self):
            built.append(self.lam)
            real(self)

        monkeypatch.setattr(EconomyParams, "__post_init__", counted)
        calls = _spy_on_classify_mus(monkeypatch)
        config = _config(alpha_range=(0.1, 0.9, 5), beta_range=(0.1, 0.9, 5),
                         lambda_spec=LambdaSpec(kind="window", count=10))
        rows = run_sweep(config)
        assert len(rows) == 250
        distinct = {8.0 * r.lam * (1.0 - r.alpha) ** 2 / r.beta for r in rows}
        assert built == []
        assert len(calls) == 1 and calls[0] == sorted(distinct) and len(distinct) < 40


def _classify_one_mu_at_a_time(monkeypatch) -> None:
    """Make the sweep's array pass run on one mu per call and join the columns."""
    real = chaoslab.sweep.classify_mus

    def serial(mus, *args):
        parts = [real(mus[i:i + 1], *args) for i in range(len(mus))] or [real(mus, *args)]
        joined = []
        for field in dataclasses.fields(MuColumns):
            columns = [getattr(part, field.name) for part in parts]
            joined.append(None if columns[0] is None else tuple(map(np.concatenate, zip(*columns))))
        return MuColumns(*joined)

    monkeypatch.setattr(chaoslab.sweep, "classify_mus", serial)


def _spy_on_classify_mus(monkeypatch) -> list[list[float]]:
    """Record the mu of every call of the sweep's array pass."""
    calls = []
    real = chaoslab.sweep.classify_mus

    def spy(mus, *args):
        calls.append(np.asarray(mus).tolist())
        return real(mus, *args)

    monkeypatch.setattr(chaoslab.sweep, "classify_mus", spy)
    return calls


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv(rows, stream, metadata) -> None:
    """The CSV writer as csv.writer over one formatted cell per row field."""
    for line in metadata:
        stream.write(f"# {line}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    fields = [f for f in chaoslab.sweep.SweepRow.__dataclass_fields__]
    for row in rows:
        writer.writerow([_fmt(getattr(row, f)) for f in fields])


_WRITER_CONFIGS = {
    "window": _config(),
    "absolute_with_blanks": _config(
        lambda_spec=LambdaSpec(kind="absolute", count=12, lo=0.2, hi=4.0)),
    "closed_form_only": _config(methods=(Method.CLOSED_FORM,)),
    "numerical_only": _config(
        lambda_spec=LambdaSpec(kind="absolute", count=5, lo=0.3, hi=3.9), methods=(Method.NUMERICAL,)),
    "one_cell_out_of_window": _config(
        alpha_range=(0.75, 0.75, 1), beta_range=(0.5, 0.5, 1),
        lambda_spec=LambdaSpec(kind="absolute", count=1, lo=0.5, hi=0.5)),
}


class TestWriters:
    @pytest.mark.parametrize("name", sorted(_WRITER_CONFIGS))
    def test_csv_equals_the_csv_writer_reference(self, name):
        # the writers read a table's columns, and transpose a plain list of rows into them
        table = run_sweep(_WRITER_CONFIGS[name])
        want_csv = io.StringIO()
        _reference_csv(list(table), want_csv, ["chaoslab test", name])
        want_json = {
            "tool": {"name": "chaoslab", "version": chaoslab.__version__},
            "metadata": [name],
            "rows": [{column: getattr(r, field) for column, field in chaoslab.sweep.COLUMN_FIELDS}
                     for r in list(table)],
        }
        for rows in (table, list(table)):
            got, doc = io.StringIO(), io.StringIO()
            write_rows_csv(rows, got, ["chaoslab test", name])
            assert got.getvalue() == want_csv.getvalue()
            write_rows_json(rows, doc, [name])
            assert doc.getvalue() == json.dumps(want_json, indent=2) + "\n"

    def test_csv_of_no_rows_is_the_header(self):
        buf = io.StringIO()
        write_rows_csv([], buf, ["m"])
        assert buf.getvalue() == "# m\n" + ",".join(CSV_COLUMNS) + "\n"

    def test_csv_shape_and_header(self):
        rows = run_sweep(_config())
        buf = io.StringIO()
        write_rows_csv(rows, buf, ["chaoslab test", "grid 3x2x4"])
        lines = buf.getvalue().split("\n")
        assert lines[0] == "# chaoslab test"
        assert lines[1] == "# grid 3x2x4"
        assert lines[2] == ",".join(CSV_COLUMNS)
        assert len([ln for ln in lines if ln]) == 2 + 1 + len(rows)

    def test_csv_floats_roundtrip(self):
        rows = run_sweep(_config(alpha_range=(0.75, 0.75, 1), beta_range=(0.5, 0.5, 1),
                                 lambda_spec=LambdaSpec(kind="window", count=1)))
        buf = io.StringIO()
        write_rows_csv(rows, buf, [])
        header, data = [ln for ln in buf.getvalue().split("\n") if ln][:2]
        cells = dict(zip(header.split(","), data.split(",")))
        assert float(cells["lambda"]) == rows[0].lam
        assert float(cells["f2_of_m"]) == rows[0].f2_of_m
        assert cells["in_class_g"] == "true"
        assert cells["agree"] == "true"

    def test_csv_blank_cells_for_out_of_window(self):
        row = evaluate_cell(0.75, 0.5, 0.5, (Method.CLOSED_FORM, Method.NUMERICAL))
        buf = io.StringIO()
        write_rows_csv([row], buf, [])
        data = [ln for ln in buf.getvalue().split("\n") if ln][1]
        cells = dict(zip(CSV_COLUMNS, data.split(",")))
        assert cells["in_class_g"] == "false"
        assert cells["odd_cycle_cf"] == ""
        assert cells["agree"] == ""

    def test_json_mirrors_csv_columns(self):
        rows = run_sweep(_config(alpha_range=(0.75, 0.75, 1), beta_range=(0.5, 0.5, 1),
                                 lambda_spec=LambdaSpec(kind="window", count=2)))
        buf = io.StringIO()
        write_rows_json(rows, buf, ["meta line"])
        doc = json.loads(buf.getvalue())
        assert doc["metadata"] == ["meta line"]
        assert len(doc["rows"]) == 2
        assert set(doc["rows"][0]) == set(CSV_COLUMNS)

    def test_json_uses_null_for_blank(self):
        row = evaluate_cell(0.75, 0.5, 9.0, (Method.CLOSED_FORM, Method.NUMERICAL))
        buf = io.StringIO()
        write_rows_json([row], buf, [])
        doc = json.loads(buf.getvalue())
        assert doc["rows"][0]["odd_cycle_cf"] is None
        assert doc["rows"][0]["in_class_g"] is False

    def test_byte_stable(self):
        rows = run_sweep(_config())
        a, b = io.StringIO(), io.StringIO()
        write_rows_csv(rows, a, ["m"])
        write_rows_csv(rows, b, ["m"])
        assert a.getvalue() == b.getvalue()
