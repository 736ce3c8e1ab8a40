"""The benchmark's own checks reject corrupted outputs and accept real ones."""

import copy
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

import chaoslab as cl

import oracle
import run
import spans
import workloads

ANCHOR = (0.75, 0.5, 3.61)  # mu = 3.61, chaotic
QUIET = (0.75, 0.5, 2.0)  # mu = 2.0


def test_oracle_thresholds():
    assert oracle.oracle(*ANCHOR).odd_cycle and oracle.oracle(*ANCHOR).turbulent
    quiet = oracle.oracle(*QUIET)
    assert quiet.in_window and not quiet.turbulent
    assert not oracle.oracle(0.75, 0.5, 0.4).in_window  # mu = 0.4
    assert oracle.in_band(Fraction(25, 9) * (1 + Fraction(1, 10**7)))
    assert not oracle.in_band(Fraction(25, 9) * (1 + Fraction(2, 10**6)))


def test_oracle_flags_small_beta_closed_form_verdict():
    point = workloads.Point(0.5, 1e-12, 1.8e-12)
    gate, cf, num = workloads.classify(point)
    problems = workloads.check_classify(point, (gate, cf, num))
    assert oracle.oracle(0.5, 1e-12, 1.8e-12).odd_cycle
    assert cf.odd_cycle is False
    assert any("closed_form odd_cycle=False" in p for p in problems)


def test_classify_check_rejects_flipped_verdicts():
    point = workloads.Point(*ANCHOR)
    gate, cf, num = workloads.classify(point)
    assert workloads.check_classify(point, (gate, cf, num)) == []
    flipped_cf = dataclasses.replace(cf, odd_cycle=not cf.odd_cycle)
    assert workloads.check_classify(point, (gate, flipped_cf, num))
    flipped_num = dataclasses.replace(num, turbulent_second_iterate=False)
    assert workloads.check_classify(point, (gate, cf, flipped_num))
    outside = dataclasses.replace(gate, in_class_g=False)
    assert workloads.check_classify(point, (outside, cf, num))


@pytest.fixture(scope="module")
def anchor_certificates():
    params = cl.EconomyParams(*ANCHOR)
    interval = cl.trapping_interval(params)
    return (cl.find_odd_cycle(params, interval, 3),
            cl.find_turbulence_witness(params, interval),
            cl.search_period3(params, interval))


def test_certify_check_accepts_real_certificates(anchor_certificates):
    assert oracle.check_certify(*ANCHOR, 3, *anchor_certificates) == []


def test_certify_check_rejects_moved_orbit_point(anchor_certificates):
    odd, witness, three = anchor_certificates
    pts = list(odd.points)
    pts[1] += 1e-6
    moved = dataclasses.replace(odd, points=tuple(pts))
    assert oracle.check_certify(*ANCHOR, 3, moved, witness, three)
    moved3 = dataclasses.replace(three, points=(three.points[0] + 1e-6,) + three.points[1:])
    assert oracle.check_certify(*ANCHOR, 3, odd, witness, moved3)


def test_certify_check_rejects_bad_witness(anchor_certificates):
    odd, witness, three = anchor_certificates
    outside = dataclasses.replace(witness, x3=max(witness.x1, witness.x2) + 1.0)
    assert oracle.check_certify(*ANCHOR, 3, odd, outside, three)
    moved = dataclasses.replace(witness, x2=witness.x2 + 1e-6)
    assert oracle.check_certify(*ANCHOR, 3, odd, moved, three)


def test_certify_check_rejects_missing_and_impossible_certificates(anchor_certificates):
    odd, witness, three = anchor_certificates
    assert oracle.check_certify(*ANCHOR, 3, None, witness, three)
    assert oracle.check_certify(*ANCHOR, 3, odd, None, three)
    assert oracle.check_certify(*QUIET, 3, None, None, None) == []
    assert oracle.check_certify(*QUIET, 3, odd, None, None)
    assert oracle.check_certify(*QUIET, 3, None, witness, None)
    assert oracle.check_certify(*QUIET, 3, None, None, three)


@pytest.fixture(scope="module")
def small_sweep():
    grid = workloads.Grid((0.3, 0.7, 2), (0.4, 0.6, 2), 3)
    return grid, workloads.sweep(grid)


def test_sweep_check_accepts_real_sweep(small_sweep):
    grid, out = small_sweep
    assert workloads.check_sweep(grid, out) == []


def test_sweep_check_rejects_dropped_and_reordered_rows(small_sweep):
    grid, (rows, text) = small_sweep
    assert workloads.check_sweep(grid, (rows[:-1], text))
    swapped = list(rows)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert workloads.check_sweep(grid, (swapped, text))
    cells = list(rows)
    cells[0], cells[3] = cells[3], cells[0]
    assert workloads.check_sweep(grid, (cells, text))


def test_sweep_check_rejects_flipped_verdict(small_sweep):
    grid, (rows, text) = small_sweep
    flipped = list(rows)
    flipped[2] = dataclasses.replace(rows[2], odd_cycle_num=not rows[2].odd_cycle_num)
    assert workloads.check_sweep(grid, (flipped, text))


def test_sweep_check_rejects_corrupted_csv(small_sweep):
    grid, (rows, text) = small_sweep
    lines = text.split("\n")
    header = next(i for i, ln in enumerate(lines) if ln.startswith("alpha,"))
    dropped = "\n".join(lines[:header + 1] + lines[header + 2:])
    assert workloads.check_sweep(grid, (rows, dropped))
    first = lines[header + 1].split(",")
    first[2] = format(float(first[2]) * (1 + 1e-15), ".6g")
    rounded = "\n".join(lines[:header + 1] + [",".join(first)] + lines[header + 2:])
    assert workloads.check_sweep(grid, (rows, rounded))


def test_verify_check_rejects_wrong_cell_count():
    shape = (2, 2, 3)
    result = cl.run_verify(*shape, triples=2)
    assert oracle.check_verify(result, shape, 2) == []
    short = copy.copy(result)
    short.cells_checked -= 1
    assert oracle.check_verify(short, shape, 2)
    banded = copy.copy(result)
    banded.cells_checked -= 1
    banded.cells_skipped_band += 1
    assert oracle.check_verify(banded, shape, 2)
    assert oracle.check_verify(result, (2, 3, 2), 2)


def test_band_cells_counts_onset_positions():
    # window position (j + 1/2)/L sits at mu = 25/9 exactly when L = 27*(2j+1)/32,
    # which no integer L meets, so small grids never touch the band
    assert all(oracle.band_cells(3, 4, nl) == 0 for nl in range(1, 60))


def test_rounds_are_seeded_and_keep_their_make_up():
    first = [next(workloads.classify_rounds(7)) for _ in range(2)]
    assert first[0] == first[1]
    assert next(workloads.classify_rounds(8)) != first[0]
    rnd = first[0]
    assert len(rnd) == workloads.CLASSIFY_SEEDED + len(workloads.CLASSIFY_FAULTS)
    assert sum(p.fault is not None for p in rnd) == len(workloads.CLASSIFY_FAULTS)
    for p in rnd:
        want = oracle.oracle(p.alpha, p.beta, p.lam)
        assert want.in_window and not oracle.in_band(want.mu)
    cert = next(workloads.certify_rounds(3))
    mus = [oracle.oracle(p.alpha, p.beta, p.lam).mu for p in cert]
    assert sum(mu > Fraction(285, 100) for mu in mus) == workloads.CERTIFY_CHAOTIC
    assert sum(mu < Fraction(270, 100) for mu in mus) == workloads.CERTIFY_QUIET


def test_traced_wraps_every_namespace_and_restores():
    import chaoslab.gate
    import chaoslab.sweep

    original = chaoslab.gate.classify_numerical
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert chaoslab.sweep.classify_numerical is chaoslab.gate.classify_numerical
        assert cl.classify_numerical is not original
        tracer.op = 0
        workloads.classify(workloads.Point(*ANCHOR))
    assert chaoslab.sweep.classify_numerical is original and cl.classify_numerical is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert "gate.pi_set" in names and "rootfind.refine_root" in names
    pi = names.index("gate.pi_set")
    assert tracer.spans[tracer.spans[pi][spans.PARENT]][spans.NAME] == "gate.classify_numerical"


def test_layer_metrics_self_time_subtracts_children():
    spans_ = [
        ["orbits.find_periodic_orbits", 0, 10_000_000, -1, 0, (3,)],
        ["rootfind.bisect_many", 1_000_000, 4_000_000, 0, 0, (4,)],
        ["rootfind.bisect_many", 5_000_000, 7_000_000, 0, 0, (2,)],
    ]
    out = spans.layer_metrics(spans_, 2)
    assert out["orbits.find_periodic_orbits.self_ms"] == pytest.approx(2.5)
    assert out["rootfind.bisect_many.self_ms"] == pytest.approx(2.5)
    assert out["rootfind.bisect_many.brackets"] == pytest.approx(3.0)
    assert out["orbits.roots_kept_per_bracket"] == pytest.approx(0.5)


def test_import_metrics_reads_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:      1000 |       1500 |     numpy",
        "import time:        50 |         50 |         concurrent",
        "import time:       200 |        250 |       concurrent.futures",
        "import time:       300 |        300 |       concurrent.futures.process",
        "import time:        20 |       2070 |     chaoslab.sweep",
        "import time:        10 |       3580 |   chaoslab",
    ])
    assert spans.import_metrics(text) == {
        "import.numpy_ms": 1.5,
        "import.chaoslab_self_ms": 0.03,
        "import.concurrent_futures_ms": 0.55,
    }


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 41))) == (75, 30)
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 113))) == (91, 102)  # 10 of 112 beyond
    assert run.tail(list(range(1, 1001))) == (99, 990)
    assert run.tail(list(range(1, 100001))) == (99, 99000)
    assert run.tail(list(range(1, 40)))[0] == 100


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
