"""Command-line front end.

Subcommands: classify (single point), sweep (parameter grid to CSV/JSON),
certify (orbit and turbulence certificates as JSON), orbit (trajectory
CSV), verify (the cross-validation suite).  Numeric arguments accept
decimals or exact fractions ("361/100").  Exit codes: 0 success,
1 internal or invariant failure, 2 parameters outside the admissible
window or below double resolution, 64 usage error, 73 output not writable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import traceback
from fractions import Fraction

from . import __version__
from .economy import (
    EPS_CMP,
    EPS_ROOT,
    ConsistencyError,
    DomainError,
    EconomyParams,
    WindowError,
    thresholds,
    trapping_interval,
)
from .gate import (
    Method,
    classify_closed_form,
    classify_numerical,
    gate_check,
)
from .orbits import (
    GRID_BASE,
    find_odd_cycle,
    find_turbulence_witness,
    iterate,
    search_period3,
)
from .sweep import (
    LambdaSpec,
    SweepConfig,
    run_sweep,
    write_rows_csv,
    write_rows_json,
)
from .verify import format_report, run_verify

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_WINDOW = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73


class UsageError(Exception):
    """Raised instead of argparse's sys.exit so main() can map it to 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(text: str) -> float:
    """Decimal or exact fraction ('361/100') to float."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number or fraction: {text!r}")
    except OverflowError:
        raise argparse.ArgumentTypeError(f"too large for a float: {text!r}")


def _tolerance(text: str) -> float:
    """A tolerance: a `_number` (so finite) >= 0."""
    value = _number(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}: {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _fmt(x: float) -> str:
    return repr(x)


@contextlib.contextmanager
def _open_out(path: str | None):
    """stdout when path is None; OSError from open propagates to the caller."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _params_from(args) -> EconomyParams:
    try:
        return EconomyParams(alpha=args.alpha, beta=args.beta, lam=args.lam)
    except ValueError as exc:
        raise UsageError(str(exc))


def _methods_from(text: str) -> tuple[Method, ...]:
    if text == "both":
        return (Method.CLOSED_FORM, Method.NUMERICAL)
    if text == "closed_form":
        return (Method.CLOSED_FORM,)
    if text == "numerical":
        return (Method.NUMERICAL,)
    raise UsageError(f"unknown method selection: {text!r}")


def _add_param_flags(p: _Parser) -> None:
    p.add_argument("--alpha", type=_number, required=True, help="demand exponent in (0,1)")
    p.add_argument("--beta", type=_number, required=True, help="demand exponent in (0,1)")
    p.add_argument(
        "--lambda", dest="lam", type=_number, required=True,
        help="adjustment speed > 0 (decimal or fraction like 361/100)",
    )


def _add_tol_flags(p: _Parser, *, grid_density: bool = True, eps_cmp: bool = True) -> None:
    p.add_argument("--eps-root", type=_tolerance, default=EPS_ROOT, help="root residual tolerance")
    if grid_density:
        p.add_argument(
            "--grid-density", type=_int_at_least(2), default=GRID_BASE,
            help="base scan density (>= 2): sets the smallest lap piece of the odd-cycle"
            " and three-cycle scans (the spacing of density*n points at period n);"
            " the turbulence witness takes no scan",
        )
    if eps_cmp:
        p.add_argument(
            "--eps-cmp", type=_tolerance, default=EPS_CMP, help="threshold comparison tolerance"
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="chaoslab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chaoslab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("classify", help="classify one (alpha, beta, lambda) point")
    _add_param_flags(p)
    _add_tol_flags(p, grid_density=False)
    p.add_argument("--method", default="both", help="both | closed_form | numerical")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--out", default=None, help="write report to a file instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="classify a parameter grid, emit CSV or JSON")
    p.add_argument("--config", default=None, help="flat key-value JSON config file")
    p.add_argument("--alpha-lo", type=_number, default=None)
    p.add_argument("--alpha-hi", type=_number, default=None)
    p.add_argument("--alpha-count", type=_positive_int, default=None)
    p.add_argument("--beta-lo", type=_number, default=None)
    p.add_argument("--beta-hi", type=_number, default=None)
    p.add_argument("--beta-count", type=_positive_int, default=None)
    p.add_argument("--lambda-mode", default=None, help="window | absolute")
    p.add_argument("--lambda-lo", type=_number, default=None)
    p.add_argument("--lambda-hi", type=_number, default=None)
    p.add_argument("--lambda-count", type=_positive_int, default=None)
    p.add_argument("--methods", default=None, help="both | closed_form | numerical")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default=None, choices=("csv", "json"))
    _add_tol_flags(p, grid_density=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="emit orbit/turbulence certificates as JSON")
    _add_param_flags(p)
    _add_tol_flags(p, eps_cmp=False)
    p.add_argument("--max-period", type=_positive_int, default=15)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("orbit", help="emit a trajectory as CSV")
    _add_param_flags(p)
    p.add_argument("--p0", type=_number, required=True, help="initial price > 0")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--alpha-count", type=_positive_int, default=20)
    p.add_argument("--beta-count", type=_positive_int, default=20)
    p.add_argument("--lambda-count", type=_positive_int, default=50)
    p.add_argument("--triples", type=_positive_int, default=100)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _verdict_dict(v) -> dict:
    return {**vars(v), "method": v.method.value}


def cmd_classify(args) -> int:
    params = _params_from(args)
    methods = _methods_from(args.method)
    th = thresholds(params)
    doc = {
        "tool": {"name": "chaoslab", "version": __version__},
        "params": {"alpha": params.alpha, "beta": params.beta, "lambda": params.lam},
        "thresholds": dict(vars(th)),
    }
    try:
        interval = trapping_interval(params)
    except WindowError as exc:
        doc["in_window"] = False
        doc["reason"] = str(exc)
        text_lines = _classify_text(doc, None, None, None)
        _emit_report(args, doc, text_lines)
        print(f"outside admissible window: {exc}", file=sys.stderr)
        return EXIT_WINDOW

    doc["in_window"] = True
    doc["interval"] = dict(vars(interval))
    gate = gate_check(params, interval, eps_cmp=args.eps_cmp)
    doc["gate"] = dict(vars(gate))
    cf = num = None
    if Method.CLOSED_FORM in methods:
        cf = classify_closed_form(params, eps_cmp=args.eps_cmp)
        doc["closed_form"] = _verdict_dict(cf)
    if Method.NUMERICAL in methods:
        num = classify_numerical(params, interval, eps_cmp=args.eps_cmp, eps_root=args.eps_root)
        doc["numerical"] = _verdict_dict(num)
    if cf is not None and num is not None:
        doc["agree"] = (
            cf.odd_cycle == num.odd_cycle
            and cf.turbulent_second_iterate == num.turbulent_second_iterate
        )
    _emit_report(args, doc, _classify_text(doc, gate, cf, num))
    return EXIT_OK


def _classify_text(doc, gate, cf, num) -> list[str]:
    p = doc["params"]
    th = doc["thresholds"]
    lines = [
        f"parameters: alpha={_fmt(p['alpha'])} beta={_fmt(p['beta'])} lambda={_fmt(p['lambda'])}",
        "thresholds: "
        f"lambda_g_low={_fmt(th['lambda_g_low'])} lambda_pi={_fmt(th['lambda_pi'])} "
        f"lambda_chaos={_fmt(th['lambda_chaos'])} lambda_max={_fmt(th['lambda_max'])}",
    ]
    if not doc.get("in_window", False):
        lines.append(f"window: outside ({doc.get('reason', '')})")
        return lines
    iv = doc["interval"]
    lines.append(f"interval: a={_fmt(iv['a'])} m={_fmt(iv['m'])} b={_fmt(iv['b'])}")
    lines.append(
        f"gate: in_class_g={str(gate.in_class_g).lower()} "
        f"endpoints={str(gate.cond_endpoints).lower()} "
        f"below_diagonal={str(gate.cond_below_diagonal).lower()} "
        f"unimodal={str(gate.cond_unimodal).lower()} "
        f"self_map={str(gate.cond_self_map).lower()} margin={_fmt(gate.margin)}"
    )
    for label, v in (("closed_form", cf), ("numerical", num)):
        if v is None:
            continue
        lines.append(
            f"{label}: odd_cycle={str(v.odd_cycle).lower()} "
            f"turbulent_second_iterate={str(v.turbulent_second_iterate).lower()} "
            f"f2_of_m={_fmt(v.f2_of_m)} f3_of_m={_fmt(v.f3_of_m)} "
            f"pi_max={_fmt(v.pi_max)} pi_min={_fmt(v.pi_min)}"
        )
    if "agree" in doc:
        lines.append(f"agreement: {str(doc['agree']).lower()}")
    return lines


def _emit_report(args, doc: dict, text_lines: list[str]) -> None:
    with _open_out(args.out) as fh:
        if getattr(args, "format", "text") == "json":
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        else:
            fh.write("\n".join(text_lines) + "\n")


_SWEEP_CONFIG_KEYS = (
    "alpha_lo", "alpha_hi", "alpha_count",
    "beta_lo", "beta_hi", "beta_count",
    "lambda_mode", "lambda_lo", "lambda_hi", "lambda_count",
    "methods", "out", "format",
)


def _sweep_settings(args) -> dict:
    """Flat config-file values overridden by explicit flags."""
    settings = {key: None for key in _SWEEP_CONFIG_KEYS}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a flat JSON object")
        for key, value in raw.items():
            if key not in _SWEEP_CONFIG_KEYS:
                raise UsageError(f"unknown config key: {key!r}")
            settings[key] = value
    for key in _SWEEP_CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def cmd_sweep(args) -> int:
    s = _sweep_settings(args)

    def need(key):
        if s[key] is None:
            raise UsageError(f"missing sweep setting: {key.replace('_', '-')}")
        return s[key]

    mode = s["lambda_mode"] or "window"
    count = int(need("lambda_count"))
    if mode == "window":
        spec = LambdaSpec(kind="window", count=count)
    elif mode == "absolute":
        spec = LambdaSpec(kind="absolute", count=count,
                          lo=float(need("lambda_lo")), hi=float(need("lambda_hi")))
    else:
        raise UsageError(f"lambda-mode must be 'window' or 'absolute', got {mode!r}")
    methods = _methods_from(s["methods"] or "both")
    try:
        config = SweepConfig(
            alpha_range=(float(need("alpha_lo")), float(need("alpha_hi")), int(need("alpha_count"))),
            beta_range=(float(need("beta_lo")), float(need("beta_hi")), int(need("beta_count"))),
            lambda_spec=spec,
            methods=methods,
            output_path=s["out"],
            output_format=s["format"] or "csv",
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = run_sweep(config, eps_cmp=args.eps_cmp, eps_root=args.eps_root)
    metadata = [
        f"chaoslab {__version__}",
        f"sweep alpha=({config.alpha_range[0]!r},{config.alpha_range[1]!r},{config.alpha_range[2]}) "
        f"beta=({config.beta_range[0]!r},{config.beta_range[1]!r},{config.beta_range[2]}) "
        f"lambda_mode={spec.kind} lambda_count={spec.count} "
        f"methods={'+'.join(m.value for m in methods)}",
        f"eps_cmp={args.eps_cmp!r} eps_root={args.eps_root!r}",
    ]
    write = write_rows_json if config.output_format == "json" else write_rows_csv
    with _open_out(config.output_path) as fh:
        write(rows, fh, metadata)
    return EXIT_OK


def _orbit_doc(orbit) -> dict | None:
    if orbit is None:
        return None
    return {**vars(orbit), "points": list(orbit.points)}


def cmd_certify(args) -> int:
    params = _params_from(args)
    if args.max_period > 20:
        raise UsageError(f"--max-period must be <= 20, got {args.max_period}")
    interval = trapping_interval(params)
    odd = find_odd_cycle(
        params, interval, args.max_period, eps_root=args.eps_root, grid_base=args.grid_density
    )
    witness = find_turbulence_witness(params, interval, eps_root=args.eps_root)
    three = search_period3(params, interval, eps_root=args.eps_root, grid_base=args.grid_density)
    doc = {
        "tool": {"name": "chaoslab", "version": __version__},
        "params": {"alpha": params.alpha, "beta": params.beta, "lambda": params.lam},
        "interval": dict(vars(interval)),
        "search": {
            "max_period": args.max_period,
            "grid_base": args.grid_density,
            "eps_root": args.eps_root,
        },
        "odd_cycle": _orbit_doc(odd),
        "turbulence_witness": None if witness is None else {
            **vars(witness), "residuals": list(witness.residuals),
        },
        "period3": _orbit_doc(three),
        "note": "empty certificates mean 'not found within the stated search bounds', not non-existence",
    }
    with _open_out(args.out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_orbit(args) -> int:
    params = _params_from(args)
    if not args.p0 > 0.0:
        raise UsageError(f"--p0 must be positive, got {args.p0!r}")
    try:
        orbit = iterate(params, args.p0, args.steps)
    except (DomainError, ValueError) as exc:
        raise UsageError(str(exc))
    with _open_out(args.out) as fh:
        fh.write(f"# chaoslab {__version__}\n")
        fh.write(
            f"# orbit alpha={_fmt(params.alpha)} beta={_fmt(params.beta)} "
            f"lambda={_fmt(params.lam)} p0={_fmt(orbit.p0)} steps={args.steps}\n"
        )
        fh.write(f"# escaped={str(orbit.escaped).lower()}\n")
        fh.write("t,p\n")
        for t, p in enumerate(orbit.points):
            fh.write(f"{t},{format(p, '.17g')}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    result = run_verify(
        args.alpha_count,
        args.beta_count,
        args.lambda_count,
        triples=args.triples,
        eps_cmp=args.eps_cmp,
        eps_root=args.eps_root,
        grid_base=args.grid_density,
    )
    print(format_report(result))
    return EXIT_OK if result.passed else EXIT_INTERNAL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WindowError as exc:
        print(f"outside admissible window: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except DomainError as exc:
        print(f"parameters below double resolution: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    except Exception:  # exit contract: 1 means internal error
        traceback.print_exc()
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
