"""chaoslab benchmark: classify, sweep, certify and verify workloads.

    python3 bench/run.py --workload classify_points --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30            # all four, one process each

A run imports chaoslab from the checkout's `src` (nothing is installed),
times each operation in process CPU time for `--seconds` seconds of whole
rounds, checks every output against `oracle.py`, and prints its metrics;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` gives the end-to-end
metrics, `--trace 1` the per-layer ones from a traced run.  See
README.md for the workloads and what each metric should move.
"""

import argparse
import array
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("classify_points", "sweep_window", "certify_points", "verify_suite")

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gate.pi_set.self_ms": "ms",
    "rootfind.scan_roots.self_ms": "ms",
    "rootfind.scan_roots.roots": "count",
    "rootfind.refine_root.self_ms": "ms",
    "rootfind.refine_root.calls": "count",
    "gate.gate_check.self_ms": "ms",
    "gate.classify_closed_form.self_ms": "ms",
    "gate.classify_numerical.self_ms": "ms",
    "economy.trapping_interval.self_ms": "ms",
    "economy.thresholds.calls": "count",
    "sweep.run_sweep.self_ms": "ms",
    "sweep.evaluate_cell.self_ms": "ms",
    "sweep.write_rows_csv.self_ms": "ms",
    "orbits.find_periodic_orbits.self_ms": "ms",
    "orbits.find_periodic_orbits.orbits": "count",
    "rootfind.bisect_many.self_ms": "ms",
    "rootfind.bisect_many.brackets": "count",
    "orbits.roots_kept_per_bracket": "ratio",
    "orbits.find_turbulence_witness.self_ms": "ms",
    "orbits.search_period3.self_ms": "ms",
    "verify.check_agreement.self_ms": "ms",
    "verify.check_low_period_oracle.self_ms": "ms",
    "verify.check_factor_identity.self_ms": "ms",
    "import.numpy_ms": "ms",
    "import.chaoslab_self_ms": "ms",
    "import.concurrent_futures_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: the tail is the highest whole percentile, at most this one, with >= 10 operations
#: beyond it.  Above p99 a classify_points tail moved by a third between identical
#: runs: that is machine noise, not the program.
TAIL_MAX_PERCENTILE = 99
#: fresh interpreters timed for setup_s, and for the import breakdown of a traced run
SETUP_STARTS = 7
IMPORTTIME_STARTS = 5
#: a traced run stops at the first round boundary past this many spans
TRACE_SPAN_CAP = 100_000

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chaoslab.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), inherited]) if inherited else str(SRC)
    return env


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=HERE.parent,
        capture_output=True, text=True, check=True, timeout=60,
    )


def measure_setup() -> float:
    """Median wall time of `import chaoslab.cli` over fresh interpreters."""
    fresh_python("-c", IMPORT_PROBE)  # writes the .pyc files a first start compiles
    return statistics.median(float(fresh_python("-c", IMPORT_PROBE).stdout)
                             for _ in range(SETUP_STARTS))


def measure_imports() -> dict:
    import spans

    runs = [spans.import_metrics(fresh_python("-X", "importtime", "-c", "import chaoslab.cli").stderr)
            for _ in range(IMPORTTIME_STARTS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


@dataclass
class Phase:
    """What one pass over whole rounds did; times are process CPU ns per operation.

    The times are kept as 8-byte integers: a list of Python ints would add
    several MB to the peak resident set of a fast run, growing with speed.
    """

    times_ns: array.array = field(default_factory=lambda: array.array("q"))
    rounds: int = 0
    items_ok: int = 0
    failed: int = 0
    known_faults: collections.Counter = field(default_factory=collections.Counter)
    unexpected: list = field(default_factory=list)


def run_round(workload, inputs: list, phase: Phase, tracer=None) -> None:
    """Run, time and check one round of operations, one at a time."""
    for item in inputs:
        if tracer is not None:
            tracer.op = len(phase.times_ns)
        t0 = time.process_time_ns()
        try:
            out = workload.run(item)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        phase.times_ns.append(time.process_time_ns() - t0)
        problems = ([f"raised {type(error).__name__}: {error}"] if error is not None
                    else workload.check(item, out))
        fault = getattr(item, "fault", None)
        if not problems:
            phase.items_ok += workload.items(item)
        elif fault is not None:
            phase.failed += 1
            phase.known_faults[fault] += 1
        else:
            phase.failed += 1
            phase.unexpected.append(problems)
    phase.rounds += 1


def run_rounds(workload, seed: int, budget_s: float) -> Phase:
    """Closed loop over whole rounds until the wall-clock budget is spent."""
    phase = Phase()
    start = time.perf_counter()
    for inputs in workload.rounds(seed):
        if phase.rounds and time.perf_counter() - start >= budget_s:
            break
        run_round(workload, inputs, phase)
    return phase


def run_traced(workload, seed: int, budget_s: float, tracer) -> tuple[Phase, Phase]:
    """Each round twice, untraced and under the tracer, in alternating order.

    The two passes of a round run back to back, so the tracing overhead is
    measured on the same inputs in the same state of a shared machine.
    """
    import spans

    untraced, traced = Phase(), Phase()
    start = time.perf_counter()
    for inputs in workload.rounds(seed):
        if untraced.rounds and (time.perf_counter() - start >= budget_s
                                or len(tracer.spans) >= TRACE_SPAN_CAP):
            break
        order = ("untraced", "traced") if untraced.rounds % 2 else ("traced", "untraced")
        for which in order:
            if which == "traced":
                with spans.traced(tracer):
                    run_round(workload, inputs, traced, tracer)
            else:
                run_round(workload, inputs, untraced)
    return untraced, traced


def tail(times_ms: list) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with >= 10 operations beyond it.

    Whole percentiles keep the figure steady when the operation count of a
    run changes by a round.  Fewer than 40 operations give no tail; the
    maximum is reported as p100 then.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    if n < 40:
        return 100, ordered[-1]
    q = min(TAIL_MAX_PERCENTILE, 100 - -(-1000 // n))  # 100 - ceil(1000 / n)
    return q, ordered[-(-n * q // 100) - 1]  # nearest rank


def end_to_end(phase: Phase, peak_rss_mb: float) -> tuple[dict, str]:
    times_ms = [t / 1e6 for t in phase.times_ns]
    q, tail_ms = tail(times_ms)
    values = {
        "setup_s": measure_setup(),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_tail": tail_ms,
        "items_per_s": phase.items_ok / (sum(phase.times_ns) / 1e9),
        "peak_rss_mb": peak_rss_mb,
    }
    note = f"op_ms_tail is p{q} of {len(times_ms)} operations"
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, note


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, list, str]:
    """Per-layer figures from a traced run; the spans go to bench/out/."""
    import spans

    tracer = spans.Tracer()
    untraced, traced = run_traced(workload, seed, seconds, tracer)
    n = len(traced.times_ns)
    values = spans.layer_metrics(tracer.spans, n)
    values["trace.overhead_ms"] = statistics.median(
        t - u for t, u in zip(traced.times_ns, untraced.times_ns)) / 1e6
    values.update(measure_imports())
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    note = f"{len(tracer.spans)} spans over {n} traced operations written to {path.relative_to(HERE.parent)}"
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}, [untraced, traced], note


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "chaoslab" / "__init__.py").is_file():
        print(f"chaoslab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    # one untimed operation first, so lazy set-up inside numpy and chaoslab is done
    try:
        workload.run(next(workload.rounds(seed))[0])
    except Exception:  # a fixed fault input raises here too
        pass

    if trace:
        metrics, phases, note = per_layer(workload, seed, seconds)
    else:
        phases = [run_rounds(workload, seed, seconds)]
        # read before the statistics below allocate their own lists
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, note = end_to_end(phases[0], peak_rss_mb)

    attempted = sum(len(p.times_ns) for p in phases)
    failed = sum(p.failed for p in phases)
    known = sum((p.known_faults for p in phases), collections.Counter())
    unexpected = [msg for p in phases for problems in p.unexpected for msg in problems]
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)}: "
          f"{attempted} operations attempted, {failed} failed")
    for fault, count in sorted(known.items()):
        print(f"  failed (known fault): {count} x {fault}")
    for msg in unexpected[:20]:
        print(f"  WRONG: {msg}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  {note}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; the last line maps workload to result."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all four, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # pin native thread pools before numpy loads: every measured path is single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
