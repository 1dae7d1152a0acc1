"""Command-line driver for the spectral-measure laboratory.

Subcommands: sample, sumrule, rate, mc, moments, probe, stats. Three input
files are read: the model of `sumrule` and `probe --family laguerre`
(TailJacobiModel), the `mc --experiment` file (McExperiment) and the
`moments --constraint` file (MomentConstraint). A key that a file's reader
does not know is refused, as is a flag that the chosen `rate` or `probe`
family does not read, every `mc` flag but `--format` and `--out` beside
`--experiment`, and `--c` beside `--constraint`. Outputs use the JSON
schemas of the owning modules; `mc` emits CSV by default. Exit codes: 0
success, 1 validation error, 2 numerical failure.
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


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


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
    if env is not None:
        return int(env)
    return args.seed


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(args, context: str, *names: str) -> None:
    """Options a subcommand needs only in some modes, so argparse cannot demand them."""
    missing = [_flag(name) for name in names if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"{context} needs {', '.join(missing)}")


# the options each family reads, and the defaults of those that have one
_RATE_FLAGS = {"fg": ("x",), "fl": ("x", "tau"), "fj": ("x", "u_minus", "u_plus"),
               "hermite": ("b", "a"), "laguerre": ("d", "s", "tau"),
               "jacobi": ("alpha", "kappa1", "kappa2")}
_PROBE_FLAGS = {"laguerre": ("model", "tau"), "jacobi": ("alpha", "kappa1", "kappa2")}
_FLAG_DEFAULTS = {"tau": 1.0, "u_minus": 0.0, "u_plus": 1.0}
# the mc options an experiment file replaces, and the defaults of those that have one
_MC_DEFAULTS = {"ensemble": "hermite", "beta": 2.0, "interval": "[-2,2]",
                "n_list": "20,40,80", "samples": 10000, "direction": "max_above", "seed": 0}
_MC_FLAGS = (*_MC_DEFAULTS, *SPEC_PARAMS, "x")


def _family_flags(args, table: dict) -> None:
    """Refuse each option of table that the call sets and its --family does
    not read, then give the unset ones their defaults."""
    names = dict.fromkeys(sum(table.values(), ()))
    given = [_flag(name) for name in names if getattr(args, name) is not None]
    refuse_foreign(f"{args.command} --family {args.family}", given,
                   [_flag(name) for name in table[args.family]])
    for name, value in _FLAG_DEFAULTS.items():
        if name in names and getattr(args, name) is None:
            setattr(args, name, value)


def _spec_from_args(args, n: int) -> EnsembleSpec:
    params = {key: getattr(args, key) for key in SPEC_PARAMS}
    return EnsembleSpec(Kind(args.ensemble), n, args.beta, interval=args.interval, **params)


def _cmd_sample(args) -> int:
    spec = _spec_from_args(args, args.n)
    stream = RngStream(seed=_resolve_seed(args))
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
    _emit_json(args, out)
    return 0


def _cmd_sumrule(args) -> int:
    with open(args.model) as fh:
        model = TailJacobiModel.from_json(json.load(fh))
    report = sumrule_verify(model)
    _emit_json(args, report.to_json())
    # a NaN gap compares false either way: only <= lets it fail; an infinite
    # gap passes against an infinite tolerance, so it fails by name
    gap = report.gap
    return 0 if math.isfinite(gap) and abs(gap) <= args.tol * (1.0 + abs(report.jacobi_side)) else 2


def _cmd_rate(args) -> int:
    fam = args.family
    context = f"rate --family {fam}"
    _family_flags(args, _RATE_FLAGS)
    if fam in ("fg", "fl", "fj"):
        _require(args, context, "x")
    if fam == "fg":
        _emit_json(args, {"value": rate_fg(args.x)})
        return 0
    if fam == "fl":
        _emit_json(args, {"value": rate_fl(args.x, args.tau)})
        return 0
    if fam == "fj":
        _emit_json(args, {"value": rate_fj(args.x, args.u_minus, args.u_plus)})
        return 0
    if fam == "hermite":
        coeffs = JacobiCoeffs(np.asarray(_float_list(args.b or "")),
                              np.asarray(_float_list(args.a or "")))
        report = hermite_rate(coeffs)
    elif fam == "laguerre":
        _require(args, context, "d", "s")
        report = laguerre_rate(
            np.asarray(_float_list(args.d)), np.asarray(_float_list(args.s)), args.tau
        )
    else:
        _require(args, context, "alpha")
        report = jacobi_ensemble_rate(
            VerblunskyCoeffs(np.asarray(_float_list(args.alpha))),
            args.kappa1 or 0.0, args.kappa2 or 0.0,
        )
    _emit_json(args, report.to_json())
    return 0


def _cmd_mc(args) -> int:
    if args.experiment:
        refuse_foreign("mc --experiment",
                       [_flag(name) for name in _MC_FLAGS if getattr(args, name) is not None], ())
        with open(args.experiment) as fh:
            exp = McExperiment.from_json(json.load(fh))
    else:
        for name, value in _MC_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
        _require(args, "mc without --experiment", "x")
        n_list = tuple(integral(v, "--n-list") for v in _float_list(args.n_list))
        if not n_list:
            raise ParameterError("--n-list needs at least one matrix size")
        exp = McExperiment(
            spec=_spec_from_args(args, max(n_list)),
            x=args.x,
            n_list=n_list,
            samples=args.samples,
            seed=_resolve_seed(args),
            direction=args.direction,
        )
    result = mc_tail_rate(exp)
    if args.format == "json":
        _emit_json(args, result.to_json())
    else:
        _emit(args, result.to_csv())
    for flag in result.flags:
        print(f"warning: {flag}", file=sys.stderr)
    return 0


def _cmd_moments(args) -> int:
    if args.constraint:
        refuse_foreign("moments --constraint", ["--c"] if args.c is not None else [], ())
        with open(args.constraint) as fh:
            constraint = MomentConstraint.from_json(json.load(fh))
    else:
        _require(args, "moments without --constraint", "c")
        constraint = MomentConstraint(np.asarray(_float_list(args.c)))
    report = moment_opt_report(constraint)
    _emit_json(args, report)
    if abs(report["primal"] - report["dual"]) > args.tol and not report["flags"]:
        return 2
    return 0


def _cmd_probe(args) -> int:
    _family_flags(args, _PROBE_FLAGS)
    if args.family == "laguerre":
        _require(args, "probe --family laguerre", "model")
        with open(args.model) as fh:
            model = TailJacobiModel.from_json(json.load(fh))
        report = conjecture_probe_laguerre(model, args.tau)
    else:
        alpha = np.asarray(_float_list(args.alpha)) if args.alpha else np.empty(0)
        report = conjecture_probe_jacobi(alpha, args.kappa1 or 0.0, args.kappa2 or 0.0)
    _emit_json(args, report.to_json())
    return 0


def _cmd_stats(args) -> int:
    spec = _spec_from_args(args, args.n)
    report = stat_suite(
        spec,
        seed=_resolve_seed(args),
        reps=args.reps,
        wrong_marginal=args.negative_control,
    )
    _emit_json(args, report.to_json())
    return 0


def _add_common(p, seed=True):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _add_ensemble_args(p):
    p.add_argument("--ensemble", required=True, choices=[k.value for k in Kind])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--kappa1", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="betaspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample")
    _add_ensemble_args(p)
    p.add_argument("--interval", choices=["[-2,2]", "[0,1]"], default="[-2,2]")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sumrule")
    p.add_argument("--model", required=True)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="exit 2 when |gap| exceeds tol * (1 + jacobi_side)")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_sumrule)

    p = sub.add_parser("rate")
    p.add_argument("--family", required=True,
                   choices=["fg", "fl", "fj", "hermite", "laguerre", "jacobi"])
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--tau", type=float, default=None, help="fl and laguerre (default 1)")
    p.add_argument("--u-minus", type=float, default=None, help="fj (default 0)")
    p.add_argument("--u-plus", type=float, default=None, help="fj (default 1)")
    p.add_argument("--b", default=None, help="comma-separated diagonal entries")
    p.add_argument("--a", default=None, help="comma-separated off-diagonal entries")
    p.add_argument("--d", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--kappa1", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_rate)

    # no abbreviations: a removed --n must not be read as --n-list
    p = sub.add_parser("mc", allow_abbrev=False)
    # defaults in _MC_DEFAULTS: beside --experiment, only --format and --out are taken
    p.add_argument("--experiment", default=None, help="experiment JSON file")
    p.add_argument("--ensemble", choices=[k.value for k in Kind], default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--m", type=int, default=None,
                   help="Laguerre m at the largest --n-list size, so tau = m / N")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--a", type=float, default=None, help="fixed Jacobi-KN exponent a")
    p.add_argument("--b", type=float, default=None, help="fixed Jacobi-KN exponent b")
    p.add_argument("--kappa1", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)
    p.add_argument("--interval", choices=["[-2,2]", "[0,1]"], default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--n-list", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--direction", choices=["max_above", "min_below"], default=None)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    _add_common(p, seed=False)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("moments")
    p.add_argument("--constraint", default=None, help="constraint JSON file")
    p.add_argument("--c", default=None, help="comma-separated moments c_1..c_{2l-1}")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="exit 2 when primal - dual exceeds tol without a flag")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("probe")
    p.add_argument("--family", required=True, choices=["laguerre", "jacobi"])
    p.add_argument("--model", default=None)
    p.add_argument("--tau", type=float, default=None, help="laguerre (default 1)")
    p.add_argument("--alpha", default=None)
    p.add_argument("--kappa1", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_probe)

    # no --interval: the affine map to [0, 1] changes no weight or correlation
    p = sub.add_parser("stats")
    _add_ensemble_args(p)
    p.set_defaults(interval="[-2,2]")
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--negative-control", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

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
