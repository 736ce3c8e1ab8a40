import io
import json
import subprocess
import sys

import pytest

import chaoslab.sweep

from chaoslab import (
    CSV_COLUMNS,
    EconomyParams,
    LambdaSpec,
    Method,
    SweepConfig,
    classify_closed_form,
    classify_numerical,
    evaluate_cell,
    lambda_values,
    run_sweep,
    thresholds,
    trapping_interval,
    write_rows_csv,
    write_rows_json,
)


@pytest.fixture
def pool_from_one_chunk(monkeypatch):
    """Let run_sweep start worker processes on grids of one chunk or more."""
    monkeypatch.setattr(chaoslab.sweep, "POOL_MIN_CHUNKS", 1)


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

    def test_parallel_equals_serial(self, pool_from_one_chunk):
        # 144 cells: two full chunks and a partial one
        config = _config(lambda_spec=LambdaSpec(kind="window", count=24))
        assert run_sweep(config, jobs=2) == run_sweep(config, jobs=1)

    def test_small_grid_with_jobs_stays_serial(self, src_env, tmp_path):
        # 144 cells are below the pool threshold: no process pool, not even its import
        script = (
            "import sys\n"
            "from chaoslab import LambdaSpec, SweepConfig, run_sweep\n"
            "config = SweepConfig(alpha_range=(0.6, 0.8, 3), beta_range=(0.4, 0.6, 2),\n"
            "                     lambda_spec=LambdaSpec(kind='window', count=24))\n"
            "assert len(run_sweep(config, jobs=2)) == 144\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=src_env, check=True)

    def test_parallel_equals_serial_with_blank_cells(self, pool_from_one_chunk):
        # 3 x 2 x 12 absolute lambdas, of which some fall outside each window
        config = _config(lambda_spec=LambdaSpec(kind="absolute", count=12, lo=0.2, hi=4.0))
        serial = run_sweep(config, jobs=1)
        assert len(serial) >= 64
        assert any(r.agree is None for r in serial) and any(r.agree for r in serial)
        assert run_sweep(config, jobs=2) == serial

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
        assert rows == want
        if kind == "absolute":
            assert any(r.f2_of_m is None for r in rows) and any(r.f2_of_m for r in rows)

    def test_pi_scan_reaches_every_cell(self, pool_from_one_chunk):
        # one full chunk takes the worker-process path when jobs > 1
        config = _config(
            alpha_range=(0.1, 0.1, 1),
            beta_range=(0.1, 0.1, 1),
            lambda_spec=LambdaSpec(kind="window", count=64),
        )
        rows = run_sweep(config, pi_scan=8)
        want = [evaluate_cell(r.alpha, r.beta, r.lam, config.methods, pi_scan=8) for r in rows]
        assert rows == want
        assert run_sweep(config, jobs=2, pi_scan=8) == want
        assert rows != run_sweep(config)

    def test_onset_ratio_constant_across_alpha(self):
        # lambda_chaos / lambda_max = 25/36 independently of (alpha, beta)
        config = _config(alpha_range=(0.1, 0.9, 5), beta_range=(0.5, 0.5, 1))
        for row in run_sweep(config):
            assert row.lambda_chaos / row.lambda_max == pytest.approx(25 / 36, abs=1e-12)


class TestWriters:
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
