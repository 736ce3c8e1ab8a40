"""In-memory spans around chaoslab's public functions, for the traced run.

`traced(tracer)` wraps each function in `TARGETS` and puts the wrapper in
every loaded chaoslab module namespace that binds the original (the
package, the defining module and every module that imported it by name),
so calls made inside chaoslab are recorded too.  Each call appends one
span: name, start, end, parent span, operation id and result counts.
Nothing is written until the run ends.

Span clocks are `time.perf_counter_ns`: the workload runs single-threaded
in closed loop, so a span's wall time is its own time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable

# function -> counts taken from (args, result); one tuple entry per count
TARGETS: dict[str, Callable | None] = {
    "economy.thresholds": None,
    "economy.trapping_interval": None,
    "gate.gate_check": None,
    "gate.pi_set": None,
    "gate.classify_closed_form": None,
    "gate.classify_numerical": None,
    "rootfind.scan_roots": lambda args, result: (len(result),),
    "rootfind.refine_root": None,
    "rootfind.bisect_many": lambda args, result: (len(args[1]),),
    "orbits.find_periodic_orbits": lambda args, result: (len(result),),
    "orbits.find_odd_cycle": None,
    "orbits.find_turbulence_witness": None,
    "orbits.search_period3": None,
    "sweep.run_sweep": None,
    "sweep.evaluate_cell": None,
    "sweep.write_rows_csv": None,
    "verify.run_verify": None,
    "verify.check_agreement": None,
    "verify.check_low_period_oracle": None,
    "verify.check_factor_identity": None,
}

# span fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Collects spans; `op` is the id of the operation being run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else -1, self.op, ()]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if counts is not None:
                span[COUNTS] = counts(args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """One JSON array per line: id, parent, op, name, start_ns, end_ns, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[PARENT], s[OP], s[NAME], s[START], s[END], list(s[COUNTS])]))
                fh.write("\n")


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Swap every target for its wrapper in all chaoslab namespaces; undo on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "chaoslab" or n.startswith("chaoslab."))]
    swapped = []
    for name, counts in TARGETS.items():
        module, attr = name.split(".")
        original = getattr(sys.modules[f"chaoslab.{module}"], attr)
        wrapper = tracer.wrap(name, original, counts)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    swapped.append((mod, key, original))
    try:
        yield tracer
    finally:
        for mod, key, original in swapped:
            setattr(mod, key, original)


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-operation self time, call counts and result counts by span name.

    Self time is a span's duration minus its direct children's durations;
    spans of one thread nest, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_ns: dict[str, int] = {name: 0 for name in TARGETS}
    calls: dict[str, int] = {name: 0 for name in TARGETS}
    totals: dict[str, list[int]] = {}
    for s, child in zip(spans, child_ns):
        self_ns[s[NAME]] += s[END] - s[START] - child
        calls[s[NAME]] += 1
        acc = totals.setdefault(s[NAME], [0] * len(s[COUNTS]))
        for k, c in enumerate(s[COUNTS]):
            acc[k] += c

    # brackets bisected on behalf of find_periodic_orbits against the orbits it
    # reports: a period-n orbit can be bracketed at each of its n points but is
    # kept once, as the row starting at its smallest price
    def under_periodic(i: int) -> bool:
        while i >= 0:
            if spans[i][NAME] == "orbits.find_periodic_orbits":
                return True
            i = spans[i][PARENT]
        return False

    orbit_brackets = sum(s[COUNTS][0] for s in spans
                         if s[NAME] == "rootfind.bisect_many" and under_periodic(s[PARENT]))
    kept = totals.get("orbits.find_periodic_orbits", [0])[0]

    per_op = 1.0 / max(n_ops, 1)
    out = {f"{name}.self_ms": self_ns[name] / 1e6 * per_op for name in TARGETS}
    out["rootfind.scan_roots.roots"] = totals.get("rootfind.scan_roots", [0])[0] * per_op
    out["rootfind.refine_root.calls"] = calls["rootfind.refine_root"] * per_op
    out["economy.thresholds.calls"] = calls["economy.thresholds"] * per_op
    out["orbits.find_periodic_orbits.orbits"] = (
        totals.get("orbits.find_periodic_orbits", [0])[0] * per_op)
    out["rootfind.bisect_many.brackets"] = totals.get("rootfind.bisect_many", [0])[0] * per_op
    out["orbits.roots_kept_per_bracket"] = kept / orbit_brackets if orbit_brackets else 0.0
    return out


def import_metrics(importtime_stderr: str) -> dict[str, float]:
    """numpy, chaoslab-self and concurrent.futures cost from `-X importtime` output.

    Lines read "import time: self [us] | cumulative | <indent>package"; a
    line's parent is the next line below it with less indent.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, pkg = line[len("import time:"):].split("|")
        depth = len(pkg) - len(pkg.lstrip(" "))
        entries.append((int(self_us), int(cum_us), depth, pkg.strip()))
    numpy_us = chaoslab_us = futures_us = 0
    ancestors: list[tuple[int, str]] = []
    for self_us, cum_us, depth, pkg in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        outer = [name for _, name in ancestors]
        if pkg == "numpy" and "numpy" not in outer:
            numpy_us += cum_us
        if pkg == "chaoslab" or pkg.startswith("chaoslab."):
            chaoslab_us += self_us
        if pkg.startswith("concurrent") and not any(n.startswith("concurrent") for n in outer):
            futures_us += cum_us
        ancestors.append((depth, pkg))
    return {
        "import.numpy_ms": numpy_us / 1e3,
        "import.chaoslab_self_ms": chaoslab_us / 1e3,
        "import.concurrent_futures_ms": futures_us / 1e3,
    }
