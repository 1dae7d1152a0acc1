"""Command-line driver for the spectral-measure laboratory.

Subcommands: sample, sumrule, rate, mc, moments, probe, stats. Three input
files are read: the model of `sumrule` and `probe --family laguerre`
(TailJacobiModel), the `mc --experiment` file (McExperiment) and the
`moments --constraint` file (MomentConstraint); a key that a file's reader
does not know is refused. A mode of a command (a --family value, mc or
moments with or without its input file, or the command itself) reads its
options from one table: every other option of the command is refused, a
required one left out is named, and the rest take their defaults. Outputs
use the JSON schemas of the owning modules; `mc` emits CSV by default. Exit
codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .ensembles import (
    SPEC_PARAMS,
    EnsembleSpec,
    Kind,
    RngStream,
    sample_hermite,
    sample_jacobi_kn,
    sample_laguerre,
    spectral_measure,
)
from .errors import (
    BetaSpectraError,
    DegenerateMeasureError,
    DomainError,
    InvalidMatrixError,
    NotPositiveDefiniteError,
    ParameterError,
    PoleError,
    RangeError,
    integral,
    refuse_foreign,
)
from .jacobi import JacobiCoeffs, VerblunskyCoeffs
from .moments_opt import MomentConstraint, moment_opt_report
from .montecarlo import McExperiment, mc_tail_rate, stat_suite
from .rates import (
    hermite_rate,
    jacobi_ensemble_rate,
    laguerre_rate,
    rate_fg,
    rate_fj,
    rate_fl,
)
from .sumrule import (
    TailJacobiModel,
    conjecture_probe_jacobi,
    conjecture_probe_laguerre,
    sumrule_verify,
)

__all__ = ["main", "cli"]

VALIDATION_ERRORS = (ParameterError, RangeError, InvalidMatrixError, DomainError)
NUMERICAL_ERRORS = (NotPositiveDefiniteError, PoleError, DegenerateMeasureError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _parse_optional(self, arg_string):
        # argparse reads "-inf" or "-1e-3" as an unknown option, since only
        # "-2" and "-0.5" look like negative numbers to it; no option here
        # is a number, so whatever float() takes is a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _vector(text: str) -> np.ndarray:
    return np.asarray([float(t) for t in text.replace(",", " ").split()])


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2))


def _resolve_seed(args) -> int:
    env = os.environ.get("SPECTRA_SEED")
    if env is None:
        return args.seed
    try:
        return RngStream(int(env)).seed
    except ValueError:  # ParameterError is one
        raise ParameterError(f"SPECTRA_SEED must be a non-negative integer, got {env!r}") from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_json(path: str, cls):
    with open(path) as fh:
        return cls.from_json(json.load(fh))


# each mode's name maps to its table (every option it reads, to its default
# or to REQUIRED) and to the call that reads them
REQUIRED = object()


def _run_mode(args, modes: dict, mode: str):
    """The call of mode among modes, on the options of its table alone. An
    option of another mode that args sets is refused first, then the
    REQUIRED ones it leaves out are named; the others take their defaults."""
    table, call = modes[mode]
    options = dict.fromkeys(name for other, _ in modes.values() for name in other)
    refuse_foreign(mode, [_flag(name) for name in options if getattr(args, name) is not None],
                   [_flag(name) for name in table])
    read = {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in table.items()}
    missing = [_flag(name) for name, value in read.items() if value is REQUIRED]
    if missing:
        raise ParameterError(f"{mode} needs {', '.join(missing)}")
    return call(argparse.Namespace(**read))


def _spec_from_args(o, n: int) -> EnsembleSpec:
    params = {key: value for key, value in vars(o).items() if key in (*SPEC_PARAMS, "interval")}
    return EnsembleSpec(o.ensemble, n, o.beta, **params)


def _sample(o) -> dict:
    spec = _spec_from_args(o, o.n)
    stream = RngStream(seed=_resolve_seed(o))
    out = {"spec": spec.to_json()}
    if spec.kind is Kind.HERMITE:
        coeffs = sample_hermite(spec, stream)
    elif spec.kind is Kind.LAGUERRE:
        draw = sample_laguerre(spec, stream)
        coeffs = draw.coeffs
        out["d"] = draw.d.tolist()
        out["s"] = draw.s.tolist()
    else:
        alpha, coeffs = sample_jacobi_kn(spec, stream)
        out["alpha"] = alpha.alpha.tolist()
    out["coeffs"] = coeffs.to_json()
    out["measure"] = spectral_measure(coeffs, spec.interval).to_json()
    return out


# the ensemble options of sample and stats
_ENSEMBLE = {"ensemble": REQUIRED, "n": REQUIRED, "beta": 2.0, **dict.fromkeys(SPEC_PARAMS),
             "seed": 0}
_SAMPLE_MODES = {"sample": ({**_ENSEMBLE, "interval": "[-2,2]"}, _sample)}


def _cmd_sample(args) -> int:
    _emit_json(args, _run_mode(args, _SAMPLE_MODES, "sample"))
    return 0


_SUMRULE_MODES = {"sumrule": ({"model": REQUIRED},
                              lambda o: sumrule_verify(_read_json(o.model, TailJacobiModel)))}


def _cmd_sumrule(args) -> int:
    report = _run_mode(args, _SUMRULE_MODES, "sumrule")
    _emit_json(args, report.to_json())
    # a NaN gap compares false either way: only <= lets it fail; an infinite
    # gap passes against an infinite tolerance, so it fails by name
    gap = report.gap
    return 0 if math.isfinite(gap) and abs(gap) <= args.tol * (1.0 + abs(report.jacobi_side)) else 2


_RATE_MODES = {
    "rate --family fg": ({"x": REQUIRED}, lambda o: {"value": rate_fg(o.x)}),
    "rate --family fl": ({"x": REQUIRED, "tau": 1.0}, lambda o: {"value": rate_fl(o.x, o.tau)}),
    "rate --family fj": ({"x": REQUIRED, "u_minus": 0.0, "u_plus": 1.0},
                         lambda o: {"value": rate_fj(o.x, o.u_minus, o.u_plus)}),
    "rate --family hermite": ({"b": "", "a": ""}, lambda o: hermite_rate(
        JacobiCoeffs(_vector(o.b), _vector(o.a))).to_json()),
    "rate --family laguerre": ({"d": REQUIRED, "s": REQUIRED, "tau": 1.0}, lambda o: laguerre_rate(
        _vector(o.d), _vector(o.s), o.tau).to_json()),
    "rate --family jacobi": ({"alpha": REQUIRED, "kappa1": 0.0, "kappa2": 0.0},
                             lambda o: jacobi_ensemble_rate(
                                 VerblunskyCoeffs(_vector(o.alpha)), o.kappa1, o.kappa2).to_json()),
}


def _cmd_rate(args) -> int:
    _emit_json(args, _run_mode(args, _RATE_MODES, f"rate --family {args.family}"))
    return 0


def _experiment_from_flags(o) -> McExperiment:
    n_list = tuple(integral(v, "--n-list") for v in _vector(o.n_list).tolist())
    if not n_list:
        raise ParameterError("--n-list needs at least one matrix size")
    return McExperiment(spec=_spec_from_args(o, max(n_list)), x=o.x, n_list=n_list,
                        samples=o.samples, seed=_resolve_seed(o), direction=o.direction)


_MC_MODES = {
    "mc --experiment": ({"experiment": REQUIRED}, lambda o: _read_json(o.experiment, McExperiment)),
    "mc without --experiment": ({"ensemble": "hermite", "beta": 2.0, "interval": "[-2,2]",
                                 "n_list": "20,40,80", "samples": 10000, "direction": "max_above",
                                 "seed": 0, **dict.fromkeys(SPEC_PARAMS), "x": REQUIRED},
                                _experiment_from_flags),
}


def _cmd_mc(args) -> int:
    mode = "mc without --experiment" if args.experiment is None else "mc --experiment"
    result = mc_tail_rate(_run_mode(args, _MC_MODES, mode))
    if args.format == "json":
        _emit_json(args, result.to_json())
    else:
        _emit(args, result.to_csv())
    for flag in result.flags:
        print(f"warning: {flag}", file=sys.stderr)
    return 0


_MOMENTS_MODES = {
    "moments --constraint": ({"constraint": REQUIRED},
                             lambda o: _read_json(o.constraint, MomentConstraint)),
    "moments without --constraint": ({"c": REQUIRED}, lambda o: MomentConstraint(_vector(o.c))),
}


def _cmd_moments(args) -> int:
    mode = "moments without --constraint" if args.constraint is None else "moments --constraint"
    report = moment_opt_report(_run_mode(args, _MOMENTS_MODES, mode))
    _emit_json(args, report)
    if abs(report["primal"] - report["dual"]) > args.tol and not report["flags"]:
        return 2
    return 0


_PROBE_MODES = {
    "probe --family laguerre": ({"model": REQUIRED, "tau": 1.0}, lambda o: conjecture_probe_laguerre(
        _read_json(o.model, TailJacobiModel), o.tau)),
    "probe --family jacobi": ({"alpha": "", "kappa1": 0.0, "kappa2": 0.0},
                              lambda o: conjecture_probe_jacobi(_vector(o.alpha), o.kappa1, o.kappa2)),
}


def _cmd_probe(args) -> int:
    _emit_json(args, _run_mode(args, _PROBE_MODES, f"probe --family {args.family}").to_json())
    return 0


# no --interval: the affine map to [0, 1] changes no weight or correlation
_STATS_MODES = {"stats": ({**_ENSEMBLE, "reps": 300, "negative_control": False},
                          lambda o: stat_suite(_spec_from_args(o, o.n), seed=_resolve_seed(o),
                                               reps=o.reps, wrong_marginal=o.negative_control))}


def _cmd_stats(args) -> int:
    _emit_json(args, _run_mode(args, _STATS_MODES, "stats").to_json())
    return 0


# each command's modes, the options every mode reads (to their defaults)
# beside --out, and its call
_COMMANDS = {
    "sample": (_SAMPLE_MODES, {}, _cmd_sample),
    "sumrule": (_SUMRULE_MODES, {"tol": 1e-6}, _cmd_sumrule),
    "rate": (_RATE_MODES, {"family": REQUIRED}, _cmd_rate),
    "mc": (_MC_MODES, {"format": "csv"}, _cmd_mc),
    "moments": (_MOMENTS_MODES, {"tol": 1e-6}, _cmd_moments),
    "probe": (_PROBE_MODES, {"family": REQUIRED}, _cmd_probe),
    "stats": (_STATS_MODES, {}, _cmd_stats),
}

# the argparse type, choices or action of each option that is not a plain
# string, keyed by "command name" where one name means two things
_ARGUMENTS = {
    **dict.fromkeys(["n", "m", "seed", "samples", "reps"], {"type": int}),
    **dict.fromkeys(["beta", "tau", "a", "b", "kappa1", "kappa2", "x", "u_minus", "u_plus", "tol"],
                    {"type": float}),
    "rate a": {}, "rate b": {},
    "rate family": {"choices": [mode.split()[-1] for mode in _RATE_MODES]},
    "probe family": {"choices": [mode.split()[-1] for mode in _PROBE_MODES]},
    "ensemble": {"choices": [k.value for k in Kind]},
    "interval": {"choices": ["[-2,2]", "[0,1]"]},
    "direction": {"choices": ["max_above", "min_below"]},
    "format": {"choices": ["json", "csv"]},
    "negative_control": {"action": "store_true"},
}


def _help(tables: dict, name: str) -> str:
    return "; ".join(f"{mode}: " + ("required" if table[name] is REQUIRED
                                    else f"default {table[name]!r}")
                     for mode, table in tables.items() if name in table)


def build_parser() -> argparse.ArgumentParser:
    """One --flag per option of a command's mode tables, default None, and
    the options every mode of the command reads, to their defaults; each
    option's help names the modes that read it and their defaults."""
    parser = _Parser(prog="betaspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (modes, always, call) in _COMMANDS.items():
        # no abbreviations: a removed --n must not be read as --n-list
        p = sub.add_parser(command, allow_abbrev=False)
        p.set_defaults(func=call)
        tables = {mode: table for mode, (table, _) in modes.items()}
        tables[f"every {command} mode"] = {**always, "out": None}
        for name in dict.fromkeys(name for table in tables.values() for name in table):
            default = always.get(name)
            p.add_argument(_flag(name), default=None if default is REQUIRED else default,
                           required=default is REQUIRED, help=_help(tables, name),
                           **_ARGUMENTS.get(f"{command} {name}", _ARGUMENTS.get(name, {})))
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BetaSpectraError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
