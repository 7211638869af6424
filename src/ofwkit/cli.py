"""Command line front end.

Subcommands: ``run`` (one experiment to CSV), ``sweep`` (doubling horizons
to CSV plus a fitted slope), ``verify`` (self-check battery as JSON),
``bounds`` (print the certified constants and bound values for a config).

Exit codes: 0 success, 1 a verified property failed (bound violated, a
check failed, or a reference minimizer failed its certificate) or an
internal error, numpy's ``RuntimeWarning``s included, 2 config or usage
error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .harness import (
    SCOPES,
    ConfigError,
    ExperimentSpec,
    certificate,
    csv_blocks,
    gap_bound,
    parse_config,
    run_experiment,
    sweep,
    sweep_csv,
    theorem_bound,
)
from .oracle import ConvergenceError

__all__ = ["main"]


def _load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            why = f"{exc.reason} at byte {exc.start}"
            raise ConfigError(f"{path} is not UTF-8 text: {why}") from None
    return parse_config(text)


def _write_text(path: str | None, pieces):
    """Write each piece of text as it comes, to ``path`` or else to stdout."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _cmd_run(args) -> int:
    spec = _load_spec(args.config)
    trace = run_experiment(spec)
    _write_text(args.out or spec.output, csv_blocks(trace))
    if trace.final_bound is not None:
        print(
            f"T={spec.horizon} regret={trace.final_regret:.6g} bound={trace.final_bound:.6g}",
            file=sys.stderr,
        )
        if trace.final_regret > trace.final_bound:
            print("regret bound violated", file=sys.stderr)
            return 1
    else:
        print(f"T={spec.horizon} regret={trace.final_regret:.6g}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.config)
    try:
        horizons = [int(h) for h in args.horizons.split(",") if h.strip()]
    except ValueError:
        raise ConfigError(f"--horizons must be a comma list of integers, got {args.horizons!r}")
    result = sweep(spec, horizons)
    _write_text(args.out or spec.output, [sweep_csv(result)])
    violated = False
    for h, r, b in zip(result.horizons, result.regrets, result.bounds):
        line = f"T={h} regret={r:.6g}"
        if b is not None:
            line += f" bound={b:.6g}"
            if r > b:
                line += " VIOLATED"
                violated = True
        print(line, file=sys.stderr)
    slope_text = "nan" if result.slope is None else f"{result.slope:.4f}"
    print(f"slope={slope_text}", file=sys.stderr)
    return 1 if violated else 0


def _cmd_verify(args) -> int:
    # Imported here: no other command needs the self-check battery.
    from .verify import verify_suite

    report = verify_suite(args.scope)
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_bounds(args) -> int:
    spec = _load_spec(args.config)
    cert = certificate(spec)
    print(f"algo = {spec.algo}")
    print(f"T = {spec.horizon}")
    print(f"G = {cert.G:.17g}")
    print(f"lambda = {cert.lam:.17g}")
    print(f"diameter = {cert.diameter:.17g}")
    print(f"set_modulus = {cert.alpha:.17g}")
    print(f"C = {cert.C:.17g}" if cert.C is not None else "C = none")
    if cert.eta is not None:
        print(f"eta = {cert.eta:.17g}")
    rb = theorem_bound(spec, spec.horizon)
    print(
        f"regret_bound(T={spec.horizon}) = {rb:.17g}"
        if rb is not None
        else f"regret_bound(T={spec.horizon}) = none"
    )
    for t in (1, 2, spec.horizon):
        gb = gap_bound(spec, t)
        print(f"gap_bound(t={t}) = {gb:.17g}" if gb is not None else f"gap_bound(t={t}) = none")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ofwkit",
        description="Projection-free online convex optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, write the round-by-round CSV")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", help="CSV path (default: config's output key, else stdout)")

    p_sweep = sub.add_parser("sweep", help="run one experiment per horizon, fit a log-log slope")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--horizons", required=True, help="comma-separated strictly increasing horizons"
    )
    p_sweep.add_argument("--out", help="CSV path (default: config's output key, else stdout)")

    p_verify = sub.add_parser("verify", help="run the self-check battery, print JSON")
    p_verify.add_argument("--scope", choices=SCOPES, default="all")

    p_bounds = sub.add_parser("bounds", help="print certified constants and bound values")
    p_bounds.add_argument("config")

    return parser


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    0 success; 1 a verified property failed, or an internal error: any
    exception other than a config, self-check or I/O error, reported as one
    ``internal error: <type>: <message>`` line on stderr; 2 a config, usage
    or I/O error, reported as one line on stderr.

    The subcommand runs with ``RuntimeWarning`` raised as an error, so
    numeric trouble such as a numpy overflow is an internal error that
    names the warning, not a stray stderr line. The library's own
    fallbacks, which catch these errors, then run silently.
    """
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
    }
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
