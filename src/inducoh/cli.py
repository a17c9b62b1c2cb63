"""Command-line interface: sweeps, figure data, optimization, validation.

Exit codes: 0 on success (including a reported-but-infeasible
optimization), 1 on usage errors, on inputs the closed forms cannot
evaluate and on an unwritable output path, 2 when a validation suite
fails.

Identical arguments (and seed) give byte-identical stdout.  sweep,
figure and optimize print every number with 12 significant digits;
validate prints its residuals with four (`.3e`) and its wall times on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import model, validation
from .fock import LeakageError

_FLOAT_FMT = "{:.12g}"

_SWEEP_COLUMNS = (
    "n1_det",
    "n2_det",
    "visibility",
    "gamma12",
    "n_minus_mean",
    "n_minus_var",
    "snr",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that to status 1 instead
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return _FLOAT_FMT.format(float(value))


def _config_types(commands: dict) -> dict:
    """Config keys and their converters: the optional flags of every
    subcommand, except --help and --config, with their argparse types."""
    return {
        action.dest: action.type or str
        for command in commands.values()
        for action in command._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _load_config(path: str, types: dict) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in types:
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = types[key](text.strip())
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _check_choices(config: dict, command: argparse.ArgumentParser) -> dict:
    """argparse checks only flags against their choices, not defaults."""
    for action in command._actions:
        if action.choices and action.dest in config and config[action.dest] not in action.choices:
            value, choices = config[action.dest], ", ".join(action.choices)
            raise _UsageError(f"bad value for {action.dest}: {value!r} (choose from {choices})")
    return config


def _pump_phase(phi: float) -> float:
    """theta_a = 2 phi, refused under the name the user typed when 2 phi
    overflows (`SetupParams` would blame theta_a)."""
    theta = 2.0 * phi
    if not math.isfinite(theta):
        raise ValueError(f"phi must be finite with a finite 2 * phi, got {phi}")
    return theta


def _setup_from_args(args: argparse.Namespace) -> model.SetupParams:
    return model.SetupParams(
        va=args.va,
        vb=args.vb,
        t=args.t,
        t2=args.t2,
        theta_a=_pump_phase(args.phi),
        pulses=args.pulses,
    )


def _parse_grid(text: str | None) -> np.ndarray:
    if text is None:
        raise _UsageError("sweep needs --grid start:stop:count (flag or config)")
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}: {exc}") from exc
    if count < 2:
        raise _UsageError(f"grid count must be >= 2, got {count}")
    # np.linspace would warn on its step and hand the points a NaN or an inf
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(stop - start)):
        raise _UsageError(f"grid {text!r} needs finite ends and a finite stop - start")
    return np.linspace(start, stop, count)


def _parse_gains(text: str) -> list[float]:
    tokens = [g.strip() for g in text.split(",") if g.strip() != ""]
    try:
        # + 0.0 turns -0 into 0, so that it names the files of gain 0
        gains = [float(g) + 0.0 for g in tokens]
    except ValueError as exc:
        raise _UsageError(f"bad gains list {text!r}: {exc}") from exc
    if not gains:
        raise _UsageError(f"gains list {text!r} is empty")
    # a gain names its curves' files by `va{gain:g}`; two alike would overwrite
    named = {}
    for token, gain in zip(tokens, gains):
        if not (math.isfinite(gain) and gain >= 0.0):
            raise _UsageError(f"gain {token!r} must be finite and >= 0")
        name = f"va{gain:g}"
        if name in named:
            raise _UsageError(f"gains {named[name]!r} and {token!r} would both write files {name}")
        named[name] = token
    return gains


def _emit_rows(header: list[str], rows: list[list[float]], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(map(_FLOAT_FMT.format, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        records = [
            {key: float(_fmt(value)) for key, value in zip(header, row)} for row in rows
        ]
        text = json.dumps(records, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _sweep_point(base: model.SetupParams, parameter: str, value: float, vary: str) -> model.SetupParams:
    if parameter == "phi":
        return replace(base, theta_a=2.0 * float(value))
    if parameter == "tau":
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {value}")
        if vary == "phase":
            # tau = cos^2(2 phi) at full transmittance
            return replace(base, t=1.0, theta_a=math.acos(math.sqrt(value)))
        # tau = T at zero phase
        return replace(base, t=float(value), theta_a=0.0)
    return replace(base, **{parameter: float(value)})


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _setup_from_args(args)
    grid = _parse_grid(args.grid)
    if args.parameter == "phi":
        # every point lies between the two ends, so they bound each 2 phi
        _pump_phase(float(grid[0]))
        _pump_phase(float(grid[-1]))
    rows = []
    for value in grid:
        point = _sweep_point(base, args.parameter, float(value), args.vary)
        obs = model.observables(point)
        rows.append(
            [
                float(value),
                obs.n1_det,
                obs.n2_det,
                obs.visibility,
                obs.gamma12,
                obs.n_minus_mean,
                obs.n_minus_var,
                obs.snr_multipulse,
            ]
        )
    _emit_rows([args.parameter, *_SWEEP_COLUMNS], rows, args.format, args.out)
    return 0


def _figure_path(out_dir: str, stem: str, fmt: str) -> str:
    return os.path.join(out_dir, f"{stem}.{fmt}")


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.resolution < 2:
        raise _UsageError(f"resolution must be >= 2, got {args.resolution}")
    default_gains = [0.0, 1.0, 10.0, 100.0] if args.figure == "coherence" else [1.0, 10.0, 100.0]
    gains = _parse_gains(args.gains) if args.gains is not None else default_gains
    # Python floats, not numpy scalars: an overflowing curve turns to inf
    # or NaN without a RuntimeWarning and is refused below
    grid = np.linspace(0.0, 1.0, args.resolution).tolist()
    curves = []  # (file stem, header, rows)

    if args.figure == "coherence":
        for gain in gains:
            rows = [[t, model.visibility_optimal(gain, t)] for t in grid]
            curves.append((f"coherence_va{gain:g}", ["t", "gamma12"], rows))
    elif args.figure == "visibility":
        for gain in gains:
            rows = [[t, model.visibility_equal_gain(gain, t)] for t in grid]
            curves.append((f"visibility_eg_va{gain:g}", ["t", "visibility"], rows))
            rows = [[t, model.visibility_optimal(gain, t)] for t in grid]
            curves.append((f"visibility_opt_va{gain:g}", ["t", "visibility"], rows))
    else:
        rows = [[tau, model.snr_low_gain(0.01, tau)] for tau in grid]
        curves.append(("snr_lg", ["tau", "snr"], rows))
        for gain in gains:
            rows = [[tau, model.snr_high_gain_source(gain, 0.01, tau)] for tau in grid]
            curves.append((f"snr_hgs_va{gain:g}", ["tau", "snr"], rows))
            rows = [[tau, model.snr_optimal(gain, tau)] for tau in grid]
            curves.append((f"snr_opt_va{gain:g}", ["tau", "snr"], rows))
    # every curve is checked before any file is written
    for stem, header, rows in curves:
        for x, y in rows:
            if not math.isfinite(y):
                raise ValueError(f"curve {stem} overflows at {header[0]} = {x:g}")
    os.makedirs(args.out, exist_ok=True)
    written = []
    for stem, header, rows in curves:
        path = _figure_path(args.out, stem, args.format)
        _emit_rows(header, rows, args.format, path)
        written.append(path)
    for path in written:
        sys.stdout.write(path + "\n")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    if args.va is None or args.t is None:
        raise _UsageError("optimize requires --va and --t")
    va, t = args.va, args.t
    vb_star = model.optimize_vb(va, t)
    optimal = model.SetupParams(
        va=va, vb=vb_star, t=t, theta_a=_pump_phase(args.phi), pulses=args.pulses
    )
    obs = model.observables(optimal)
    record: dict = {
        "va": va,
        "t": t,
        "vb_star": vb_star,
        "visibility": obs.visibility,
        "gamma12": obs.gamma12,
        "snr": obs.snr,
        "snr_multipulse": obs.snr_multipulse,
    }
    if args.vb is not None:
        t2_star = model.optimize_t2(va, args.vb, t)
        record["vb"] = args.vb
        record["t2_star"] = "infeasible" if t2_star is None else t2_star
    if args.format == "json":
        payload = {
            key: (float(_fmt(value)) if isinstance(value, float) else value)
            for key, value in record.items()
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for key, value in record.items():
            text = _fmt(value) if isinstance(value, float) else str(value)
            sys.stdout.write(f"{key} = {text}\n")
    return 0


def _print_suite(result: validation.SuiteResult) -> None:
    sys.stdout.write(result.summary() + "\n")
    sys.stderr.write(f"{result.name}: {result.runtime:.1f} s\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    validation.check_oracle_arguments(args.samples, args.cutoff, args.r_max)
    # each suite is printed as soon as it is done, so an oracle refusal
    # still leaves the closed-form result on stdout
    results = [validation.closed_form_suite(seed=args.seed)]
    _print_suite(results[0])
    try:
        results.append(
            validation.oracle_suite(args.samples, args.seed, args.cutoff, args.r_max)
        )
    except LeakageError as exc:
        sys.stdout.write(f"oracle vs engine: FAIL: {exc}\n")
        return 2
    _print_suite(results[1])
    if all(result.passed for result in results):
        sys.stdout.write("overall: PASS\n")
        return 0
    sys.stdout.write("overall: FAIL\n")
    return 2


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--va", type=float, help="brightness of crystal A, sinh^2(r_A)")
    parser.add_argument("--vb", type=float, help="brightness of crystal B, sinh^2(r_B)")
    parser.add_argument("--t", type=float, help="idler filter intensity transmittance")
    parser.add_argument(
        "--phi", type=float, default=0.0, help="interference phase phi (2 phi enters cos)"
    )
    parser.add_argument("--pulses", type=int, default=1, help="pulses averaged per measurement")


def _build_parser() -> tuple[_Parser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="inducoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    sweep = sub.add_parser("sweep", help="tabulate observables along one parameter")
    sweep.add_argument("parameter", choices=["va", "vb", "t", "t2", "phi", "tau"])
    sweep.add_argument("--grid", help="start:stop:count")
    sweep.add_argument(
        "--vary",
        choices=["transmission", "phase"],
        default="transmission",
        help="how a tau sweep is realized: vary T at phi=0, or vary phi at T=1",
    )
    _add_param_flags(sweep)
    sweep.add_argument(
        "--t2", type=float, default=1.0, help="signal-B arm attenuator transmittance"
    )
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.add_argument("--out", help="output file (default: stdout)")
    sweep.add_argument("--config", help="key=value config file; flags override it")
    sweep.set_defaults(run=_cmd_sweep, va=1.0, vb=1.0, t=1.0)

    figure = sub.add_parser("figure", help="emit curve families as CSV/JSON files")
    figure.add_argument("figure", choices=["coherence", "visibility", "snr"])
    figure.add_argument("--gains", help="comma-separated brightness list for the curves")
    figure.add_argument(
        "--resolution", type=int, default=200, help="points per curve (default %(default)s)"
    )
    figure.add_argument("--format", choices=["csv", "json"], default="csv")
    figure.add_argument("--out", default=".", help="output directory (default: current)")
    figure.add_argument("--config", help="key=value config file; flags override it")
    figure.set_defaults(run=_cmd_figure)

    optimize = sub.add_parser("optimize", help="optimal vb (and t2 when --vb is given)")
    _add_param_flags(optimize)
    optimize.add_argument("--format", choices=["text", "json"], default="text")
    optimize.add_argument("--config", help="key=value config file; flags override it")
    optimize.set_defaults(run=_cmd_optimize)

    val = sub.add_parser("validate", help="run the dual-path validation suites")
    val.add_argument(
        "--samples", type=int, default=validation.DEFAULT_SAMPLES,
        help="oracle suite sample count (default %(default)s)",
    )
    val.add_argument(
        "--seed", type=int, default=validation.DEFAULT_SEED, help="RNG seed (default %(default)s)"
    )
    val.add_argument(
        "--cutoff", type=int, default=validation.DEFAULT_CUTOFF,
        help="oracle Fock cutoff (default %(default)s)",
    )
    val.add_argument(
        "--r-max", type=float, dest="r_max", default=validation.DEFAULT_R_MAX,
        help="largest drawn gain (default %(default)s)",
    )
    val.add_argument("--config", help="key=value config file; flags override it")
    val.set_defaults(run=_cmd_validate)

    return parser, sub.choices


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every call without --config, built on first use."""
    return _build_parser()[0]


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            # config values become the running subcommand's defaults, so flags
            # win; they go on a parser of this call's own, never the shared one
            parser, commands = _build_parser()
            command = commands[args.command]
            config = _load_config(args.config, _config_types(commands))
            command.set_defaults(**_check_choices(config, command))
            args = parser.parse_args(argv)
        return args.run(args)
    except (_UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"inducoh: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
