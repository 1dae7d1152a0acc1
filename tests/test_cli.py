"""Command-line interface: subcommands, formats, exit codes, seeding."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import betaspectra
from betaspectra import cli as cli_module
from betaspectra.cli import cli
from betaspectra.ensembles import EnsembleSpec, Kind
from betaspectra.jacobi import JacobiCoeffs
from betaspectra.montecarlo import McExperiment
from betaspectra.sumrule import SumRuleReport, TailJacobiModel


def run(capsys, *argv):
    code = cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def model_file(tmp_path, b, a, name="model.json"):
    model = TailJacobiModel(head=JacobiCoeffs(np.asarray(b, float), np.asarray(a, float)))
    path = tmp_path / name
    path.write_text(json.dumps(model.to_json()))
    return str(path)


def test_sample_hermite(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "hermite", "--n", "8",
                       "--beta", "2", "--seed", "5")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["coeffs"]["b"]) == 8
    assert len(obj["measure"]["atoms"]) == 8
    # determinism
    code, out2, _ = run(capsys, "sample", "--ensemble", "hermite", "--n", "8",
                        "--beta", "2", "--seed", "5")
    assert out2 == out


def test_sample_laguerre_and_jacobi(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "laguerre", "--n", "10",
                       "--beta", "1", "--m", "6", "--seed", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["d"]) == 6
    code, out, _ = run(capsys, "sample", "--ensemble", "jacobi_kn", "--n", "5",
                       "--beta", "2", "--a", "1.0", "--b", "0.5", "--seed", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["alpha"]) == 9


# sha256 of the stdout of sample --ensemble <kind> --n <n> --beta 2 --seed 7.
# Every one of these draws takes the dense route of _eigenvalues, whose
# eigenvalues are those of the dsterf loop bit for bit
SAMPLE_EXTRA = {"hermite": (), "laguerre": ("--tau", "0.5"),
                "jacobi_kn": ("--kappa1", "1", "--kappa2", "0.5")}
SAMPLE_DIGESTS = {
    ("hermite", 2): "48c66ab3171b056250a404ee17f0ec16e79686774573d2b5658cab9f0f40c774",
    ("hermite", 25): "797e78244170cf06fd7054f6cd7eeb038e32aca3109d008cf2e1b237d0f14fa4",
    ("hermite", 64): "153cdcb71e8dbf6cad575c24429f66d8700a879908141b4d714d2b691957f627",
    ("laguerre", 2): "b34e7d54d249722baaa51f1b42d82d513564f6120a00156a0323a189b906561c",
    ("laguerre", 25): "3b9eff1d222243092761eb603b638b676f80137fdcd7168f0e1ad6dcb6b37970",
    ("laguerre", 64): "a0d297abec48b43f793e9242a370fc040189c08c0831d5a30c53345933fff907",
    ("jacobi_kn", 2): "eed1e8381a5c938886159186c1da7be5f4524d2459382a3b5945aabb6b286ec2",
    ("jacobi_kn", 25): "49de700fa1a3148a0172e240099939969f4c6d15eabe29ddebc802608718a768",
    ("jacobi_kn", 64): "a43a84688cebe9f3108ec863054fd6cf848a5297c5a8ce99c90da440889b8386",
}


@pytest.mark.parametrize("kind, n", SAMPLE_DIGESTS, ids=lambda v: str(v))
def test_sample_stdout_golden_digests(capsys, kind, n):
    code, out, _ = run(capsys, "sample", "--ensemble", kind, "--n", str(n), "--beta", "2",
                       "--seed", "7", *SAMPLE_EXTRA[kind])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[kind, n]


def test_seed_env_override(capsys, monkeypatch):
    _, out1, _ = run(capsys, "sample", "--ensemble", "hermite", "--n", "4",
                     "--seed", "1")
    monkeypatch.setenv("SPECTRA_SEED", "1")
    _, out2, _ = run(capsys, "sample", "--ensemble", "hermite", "--n", "4",
                     "--seed", "999")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("sample", "--ensemble", "hermite", "--n", "4", "--seed", "-1"),
    ("stats", "--ensemble", "hermite", "--n", "4", "--reps", "10", "--seed", "-1"),
    ("mc", "--ensemble", "hermite", "--x", "2.1", "--n-list", "4", "--samples", "10",
     "--seed", "-1"),
], ids=lambda argv: argv[0])
def test_negative_seed_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: 'seed' must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_bad_seed_env_is_one_error_line(capsys, monkeypatch, value):
    monkeypatch.setenv("SPECTRA_SEED", value)
    code, out, err = run(capsys, "sample", "--ensemble", "hermite", "--n", "4")
    assert code == 1 and out == ""
    assert err == f"error: SPECTRA_SEED must be a non-negative integer, got {value!r}\n"


def test_sumrule_command(capsys, tmp_path):
    path = model_file(tmp_path, [0.3], [])
    code, out, _ = run(capsys, "sumrule", "--model", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["jacobi_side"] == pytest.approx(0.045, abs=1e-12)
    assert abs(obj["gap"]) < 1e-8


def test_sumrule_command_long_head(capsys, tmp_path):
    # L = 20 on the wide coefficient range: the sum rule holds to rounding
    rng = np.random.default_rng(20)
    path = model_file(tmp_path, rng.uniform(-1.5, 1.5, 20), rng.uniform(0.5, 1.8, 20))
    code, out, _ = run(capsys, "sumrule", "--model", path)
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["gap"]) < 1e-12 * (1.0 + obj["jacobi_side"])


def test_sumrule_missing_file(capsys):
    code, _, err = run(capsys, "sumrule", "--model", "/nonexistent.json")
    assert code == 1
    assert "error" in err


def test_rate_command(capsys):
    code, out, _ = run(capsys, "rate", "--family", "fg", "--x", "3.0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        0.5 * 3 * math.sqrt(5) - 2 * math.log(0.5 * (3 + math.sqrt(5))), abs=1e-12
    )
    code, out, _ = run(capsys, "rate", "--family", "hermite", "--b", "0.3,-0.2",
                       "--a", "1.4")
    assert code == 0
    assert json.loads(out)["value"] > 0.0
    code, out, _ = run(capsys, "rate", "--family", "jacobi", "--alpha", "0.1,0.2",
                       "--kappa1", "0.5", "--kappa2", "0.2")
    assert code == 0


def test_mc_command_csv_default(capsys):
    code, out, _ = run(capsys, "mc", "--ensemble", "hermite", "--x", "2.5",
                       "--n-list", "8,12", "--samples", "2000", "--seed", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("N,x,")
    assert len(lines) == 3


def test_mc_command_json_and_outfile(capsys, tmp_path):
    dest = tmp_path / "mc.json"
    code, out, _ = run(capsys, "mc", "--ensemble", "hermite", "--x", "2.5",
                       "--n-list", "8", "--samples", "1000", "--seed", "11",
                       "--format", "json", "--out", str(dest))
    assert code == 0
    obj = json.loads(dest.read_text())
    assert obj["rows"][0]["n"] == 8


def test_moments_command(capsys):
    code, out, _ = run(capsys, "moments", "--c", "0,1,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["primal"] == pytest.approx(0.0, abs=1e-12)
    assert obj["dual"] == pytest.approx(0.0, abs=1e-8)


def test_probe_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "probe", "--family", "jacobi", "--kappa1", "0",
                       "--kappa2", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "CONJECTURE"
    assert abs(obj["gap"]) < 1e-8
    model = TailJacobiModel(a_inf=math.sqrt(0.5), b_inf=1.5,
                            head=JacobiCoeffs(np.array([1.0]), np.empty(0)))
    path = tmp_path / "mp.json"
    path.write_text(json.dumps(model.to_json()))
    code, out, _ = run(capsys, "probe", "--family", "laguerre", "--model",
                       str(path), "--tau", "0.5")
    assert code == 0
    assert json.loads(out)["label"] == "CONJECTURE"


def test_stats_command(capsys):
    code, out, _ = run(capsys, "stats", "--ensemble", "hermite", "--n", "40",
                       "--beta", "2", "--seed", "42", "--reps", "300")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "sample", "--ensemble", "hermite", "--n", "0",
                       "--seed", "1")
    assert code == 1
    code, _, _ = run(capsys, "rate", "--family", "unknown", "--x", "1.0")
    assert code == 1


def test_numerical_exit_code(capsys, tmp_path):
    # boundary moments: Hankel matrix singular -> numerical failure (2)
    code, _, err = run(capsys, "moments", "--c", "0,0,0")
    assert code == 2
    assert "numerical" in err


MISUSE = [
    ("rate", "--family", "fg"),
    ("rate", "--family", "fl", "--tau", "0.5"),
    ("rate", "--family", "fj", "--u-minus", "0.2", "--u-plus", "0.6"),
    ("rate", "--family", "laguerre"),
    ("rate", "--family", "laguerre", "--d", "1.0"),
    ("rate", "--family", "jacobi"),
    ("probe", "--family", "laguerre", "--tau", "0.5"),
    ("mc", "--ensemble", "hermite", "--n-list", "8"),
    ("rate", "--family", "unknown"),
    ("rate",),
    ("moments", "--c", "0,1,0", "--format", "csv"),
    ("rate", "--family", "fg", "--x", "2.5", "--tol", "1e-3"),
    ("mc", "--x", "2.5", "--workers", "4"),
    ("mc", "--x", "2.5", "--n", "5"),
    ("stats", "--ensemble", "hermite", "--n", "5", "--reps", "0"),
    ("stats", "--ensemble", "hermite", "--n", "5", "--reps", "1"),
    ("moments",),
    ("stats", "--ensemble", "hermite", "--n", "1"),
    ("stats", "--ensemble", "laguerre", "--n", "5", "--m", "1"),
    ("mc", "--x", "2.5", "--n-list", ""),
    ("probe", "--family", "jacobi", "--kappa1", "-0.5", "--kappa2", "0.2"),
    ("rate", "--family", "jacobi", "--alpha", "0.1", "--kappa1", "-0.5"),
    ("probe", "--family", "jacobi", "--kappa1", "-3"),
    ("rate", "--family", "fg", "--x", "nan"),
    ("rate", "--family", "fl", "--tau", "0.5", "--x", "nan"),
    ("rate", "--family", "fj", "--u-minus", "0.2", "--u-plus", "0.6", "--x", "nan"),
    ("mc", "--x", "nan", "--n-list", "5", "--samples", "10"),
    ("moments", "--c", "inf"),
    ("mc", "--ensemble", "laguerre", "--m", "10", "--tau", "0.5", "--x", "3"),
    ("sample", "--ensemble", "hermite", "--n", "5", "--tau", "0.5"),
    ("sample", "--ensemble", "hermite", "--n", "5", "--interval", "[0,1]"),
    ("mc", "--ensemble", "laguerre", "--tau", "0.5", "--x", "3", "--interval", "[0,1]"),
    ("rate", "--family", "jacobi", "--alpha", "0.1", "--variant", "paper_literal"),
    ("mc", "--x", "2.5", "--n-list", "8.9"),
    ("stats", "--ensemble", "jacobi_kn", "--n", "5", "--interval", "[0,1]"),
    # a flag the chosen family does not read is refused, not ignored
    ("rate", "--family", "fg", "--x", "2.5", "--tau", "0.3", "--alpha", "0.5"),
    ("rate", "--family", "hermite", "--b", "1", "--x", "3", "--kappa1", "2"),
    ("rate", "--family", "fj", "--x", "0.5", "--tau", "0.3"),
    ("rate", "--family", "fl", "--x", "5", "--u-plus", "0.5"),
    ("rate", "--family", "jacobi", "--alpha", "0.1", "--d", "1"),
    ("probe", "--family", "jacobi", "--kappa1", "1", "--model", "nonexistent.json", "--tau", "0.2"),
    ("probe", "--family", "laguerre", "--alpha", "0.1"),
    # the experiment file replaces every mc option but --format and --out
    ("mc", "--experiment", "nonexistent.json", "--x", "5"),
    ("mc", "--experiment", "nonexistent.json", "--seed", "0"),
    ("mc", "--experiment", "nonexistent.json", "--ensemble", "hermite"),
    ("mc", "--experiment", "nonexistent.json", "--kappa1", "1", "--interval", "[0,1]"),
    # non-finite coefficients are refused when the value is built
    ("rate", "--family", "hermite", "--b", "nan"),
    ("rate", "--family", "hermite", "--b", "0.1", "--a", "inf"),
    ("rate", "--family", "jacobi", "--alpha", "nan"),
    ("rate", "--family", "jacobi", "--alpha", "0.1,nan", "--kappa1", "1"),
    # a required option left out is named by the mode, for every command
    ("sample", "--ensemble", "hermite"),
    ("stats", "--n", "5"),
    # no command reads an abbreviated flag
    ("rate", "--fam", "fg", "--x", "2.5"),
    ("probe", "--fam", "jacobi"),
]


@pytest.mark.parametrize("argv", MISUSE, ids=" ".join)
def test_missing_option_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flags", [
    (("rate", "--family", "fg", "--x", "2.5", "--tau", "0.3"), ["'--tau'"]),
    (("rate", "--family", "hermite", "--b", "1", "--x", "3", "--kappa1", "2"),
     ["'--x'", "'--kappa1'"]),
    (("probe", "--family", "jacobi", "--kappa1", "1", "--model", "m.json", "--tau", "0.2"),
     ["'--model'", "'--tau'"]),
], ids=["fg-tau", "hermite-x-kappa1", "probe-jacobi-model-tau"])
def test_ignored_flag_is_named(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {argv[0]} --family {argv[2]} takes no ")
    assert all(flag in err for flag in flags)


def test_mc_experiment_refuses_other_flags(capsys, tmp_path):
    exp = McExperiment(spec=EnsembleSpec(kind=Kind.HERMITE, n=10, beta=2.0),
                       x=2.5, n_list=(4, 10), samples=200, seed=3)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(exp.to_json()))
    code, out, err = run(capsys, "mc", "--experiment", str(path), "--x", "5", "--samples", "3",
                         "--n-list", "4")
    assert code == 1 and out == ""
    assert err == "error: mc --experiment takes no '--n-list', '--samples', '--x'\n"
    # --format and --out still apply
    code, out, _ = run(capsys, "mc", "--experiment", str(path), "--format", "json")
    assert code == 0 and [row["samples"] for row in json.loads(out)["rows"]] == [200, 200]
    code, out, _ = run(capsys, "mc", "--experiment", str(path), "--out", str(tmp_path / "o.csv"))
    assert code == 0 and out == ""
    assert (tmp_path / "o.csv").read_text().count("\n") == 3


def test_moments_refuses_c_beside_constraint(capsys, tmp_path):
    path = tmp_path / "constraint.json"
    path.write_text(json.dumps({"c": [0.0, 1.0, 0.0]}))
    code, out, _ = run(capsys, "moments", "--constraint", str(path))
    assert code == 0
    code, out, err = run(capsys, "moments", "--constraint", str(path), "--c", "0,1,0")
    assert code == 1 and out == ""
    assert err == "error: moments --constraint takes no '--c'\n"


# every mode of every command by name, from the mode tables
MODES = {command: modes for command, (modes, _, _) in cli_module._COMMANDS.items()}
# read by every mode of their command, so never refused
ALWAYS_READ = {"--out", "--format", "--tol", "--family"}


def parser_options(command):
    """Each option of the command's parser (but --help), its dest and a value it accepts."""
    (sub,) = [a for a in cli_module.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {action.option_strings[-1]: (action.dest, action.choices[0] if action.choices
                                        else "3" if action.type is int else "0.5")
            for action in sub.choices[command]._actions if action.option_strings[-1] != "--help"}


def input_files(tmp_path):
    """A valid file for each option that names one."""
    exp = McExperiment(spec=EnsembleSpec(kind=Kind.HERMITE, n=6, beta=2.0),
                       x=2.5, n_list=(6,), samples=50, seed=3)
    model = TailJacobiModel(a_inf=1.0, b_inf=2.0,
                            head=JacobiCoeffs(np.array([1.3]), np.array([0.8])))
    files = {"experiment": exp.to_json(), "model": model.to_json(), "constraint": {"c": [0, 1, 0]}}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(tmp_path / f"{name}.json") for name in files}


@pytest.mark.parametrize("command, mode", [(c, m) for c, modes in MODES.items() for m in modes])
def test_no_option_is_accepted_and_ignored(capsys, tmp_path, command, mode):
    table = MODES[command][mode][0]
    options = parser_options(command)
    values = {dest: value for dest, value in options.values()} | input_files(tmp_path)
    # an option in a mode's name (--family, --experiment, --constraint) selects the mode
    selectors = {token for name in MODES[command] for token in name.split() if token in options}
    base = [command] + (["--family", mode.split()[-1]] if "--family" in mode else [])
    required = [name for name, default in table.items() if default is cli_module.REQUIRED]
    argv = base + [arg for name in required for arg in (f"--{name.replace('_', '-')}", values[name])]

    def one_error_naming(flag, *args):
        code, out, err = run(capsys, *args)
        assert code == 1 and out == "", (args, err)
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and flag in err, (args, err)

    for flag, (dest, value) in options.items():
        if dest not in table and flag not in ALWAYS_READ | selectors:
            one_error_naming(f"'{flag}'", *argv, flag, value)
    for name in required:
        flag = f"--{name.replace('_', '-')}"
        if flag not in selectors:
            i = argv.index(flag)
            one_error_naming(flag, *argv[:i], *argv[i + 2:])


@pytest.mark.parametrize("command", MODES)
def test_every_option_is_read_by_a_mode(command):
    read = {name for table, _ in MODES[command].values() for name in table}
    assert [flag for flag, (dest, _) in parser_options(command).items()
            if dest not in read and flag not in ALWAYS_READ] == []


@pytest.mark.parametrize("command", MODES)
def test_help_names_each_mode_and_default(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option, unless its flag is long
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    entries, lines = {}, out[out.index("options:"):].splitlines()[1:]
    for line in lines:
        if line.startswith("  -"):
            flag = line.split()[0]
            entries[flag] = line
        elif line.strip():
            entries[flag] += line
    for mode, (table, _) in MODES[command].items():
        for name, default in table.items():
            expect = "required" if default is cli_module.REQUIRED else f"default {default!r}"
            assert f"{mode}: {expect}" in entries[f"--{name.replace('_', '-')}"], (mode, name)


def _refuse_nan(name):
    # Infinity is an honest side value; NaN is not a number any reader accepts
    if name == "NaN":
        raise ValueError(f"{name} in the output")
    return float(name)


def test_probe_laguerre_positivity_boundary_gap(capsys, tmp_path):
    # b_0 = tau: the coefficient side is +inf (every tail pivot stays at tau)
    # and so is the measure side (an outlier at 0); the gap printed NaN
    path = tmp_path / "mp.json"
    path.write_text(json.dumps({"tail": {"a": math.sqrt(0.5), "b": 1.5},
                                "head": {"b": [0.5], "a": []}}))
    code, out, err = run(capsys, "probe", "--family", "laguerre", "--model", str(path),
                         "--tau", "0.5")
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=_refuse_nan)
    assert report["coefficient_side"]["value"] == report["measure_side"]["value"] == math.inf
    assert report["gap"] == 0.0


@pytest.mark.parametrize("argv, tail", [
    (("sumrule",), {"a": 1.0, "b": 0.0}),
    (("probe", "--family", "laguerre", "--tau", "0.5"), {"a": math.sqrt(0.5), "b": 1.5}),
], ids=["sumrule", "probe-laguerre"])
@pytest.mark.parametrize("key", ["a", "b"])
def test_tail_within_1e12_of_the_reference(capsys, tmp_path, argv, tail, key):
    for offset, expect in ((1e-9, 1), (-1e-9, 1), (1e-13, 0), (-1e-13, 0)):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"tail": {**tail, key: tail[key] + offset},
                                    "head": {"b": [tail["b"] + 2.0], "a": [0.8]}}))
        code, out, err = run(capsys, *argv, "--model", str(path))
        assert code == expect, (offset, err)
        if expect:
            lines = err.strip().splitlines()
            assert out == "" and len(lines) == 1 and lines[0].startswith("error: model tail ")
        else:
            assert err == "" and json.loads(out)["gap"] == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("tau", ["-1", "0", "1.5"])
def test_probe_laguerre_checks_tau_first(capsys, tmp_path, tau):
    # a valid model file: tau is refused by name before sqrt(tau) is taken
    model = TailJacobiModel(a_inf=1.0, b_inf=2.0,
                            head=JacobiCoeffs(np.array([1.3]), np.array([0.8])))
    path = tmp_path / "mp.json"
    path.write_text(json.dumps(model.to_json()))
    code, out, err = run(capsys, "probe", "--family", "laguerre", "--model", str(path),
                         "--tau", tau)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tau ")


def test_rate_at_infinite_threshold(capsys):
    for argv in (("fg",), ("fl", "--tau", "0.5")):
        code, out, err = run(capsys, "rate", "--family", *argv, "--x", "inf")
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == math.inf


def test_rate_at_huge_arguments(capsys):
    # finite wherever the value fits in a double, +inf beyond, never NaN
    for argv, expect in ((("fg", "--x", "1e200"), math.inf),
                         (("fl", "--x", "1e200", "--tau", "0.5"), 1e200),
                         (("hermite", "--a", "1e160"), math.inf)):
        code, out, err = run(capsys, "rate", "--family", *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == expect


def test_sumrule_huge_heads(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "sumrule", "--model", model_file(tmp_path, [1e200], []))
    assert code == 0 and json.loads(out)["gap"] == 0.0
    # a_0^2 overflows: one error line, no traceback
    code, out, err = run(capsys, "sumrule", "--model", model_file(tmp_path, [0.0], [1e160]))
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    # so is a NaN entry, when the model file is read (no model can hold one)
    nan_model = tmp_path / "nan_model.json"
    nan_model.write_text(json.dumps({"tail": {"a": 1.0, "b": 0.0},
                                     "head": {"b": [0.3, math.nan], "a": []}}))
    code, out, err = run(capsys, "sumrule", "--model", str(nan_model))
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and "finite" in err
    # a NaN gap fails the check rather than passing it
    nan_report = SumRuleReport(jacobi_side=1.0, measure_side=math.nan, gap=math.nan,
                               outlier_list=[])
    monkeypatch.setattr(cli_module, "sumrule_verify", lambda model: nan_report)
    code, out, _ = run(capsys, "sumrule", "--model", model_file(tmp_path, [0.3], []))
    assert code == 2 and math.isnan(json.loads(out)["gap"])
    # so does an infinite one, which its tolerance tol (1 + |inf|) would pass
    inf_report = SumRuleReport(jacobi_side=math.inf, measure_side=1.0, gap=math.inf,
                               outlier_list=[])
    monkeypatch.setattr(cli_module, "sumrule_verify", lambda model: inf_report)
    code, out, _ = run(capsys, "sumrule", "--model", model_file(tmp_path, [0.3], []))
    assert code == 2 and json.loads(out)["gap"] == math.inf


@pytest.mark.parametrize("argv, tail, head_b, reason", [
    (("sumrule",), {"a": math.nan, "b": 0.0}, [0.3], "finite"),
    (("sumrule",), {"a": 1.0, "b": -math.inf}, [0.3], "finite"),
    # the tail (sqrt(tau), 1 + tau) at tau = 1e-300 reduces b_0 = 1e300 to 1e450
    (("probe", "--family", "laguerre", "--tau", "1e-300"), {"a": 1e-150, "b": 1.0}, [1e300],
     "overflows"),
], ids=["sumrule-a-nan", "sumrule-b-inf", "probe-reduced-overflow"])
def test_bad_model_refused_by_name(capsys, tmp_path, argv, tail, head_b, reason):
    # a non-finite tail was refused for not being the free one, and a head
    # entry that overflows once reduced by the tail reached numpy's LinAlgError
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"tail": tail, "head": {"b": head_b, "a": []}}))
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0]


def test_sumrule_tiny_off_diagonal(capsys, tmp_path):
    # a_0 = 1e-170 squares to 0 in doubles; G(a_0) = -1 - 2 log a_0 all the same
    code, out, _ = run(capsys, "sumrule", "--model", model_file(tmp_path, [0.0, 0.0], [1e-170]))
    report = json.loads(out)
    assert code == 0
    assert report["jacobi_side"] == pytest.approx(781.8789316179755326, rel=1e-14, abs=0.0)
    assert abs(report["gap"]) <= 1e-6 * (1.0 + report["jacobi_side"])


@pytest.mark.parametrize("value", ["-inf", "-1e-3", "-2.5"])
@pytest.mark.parametrize("command", [
    ("rate", "--family", "fg"),
    ("mc", "--direction", "min_below", "--n-list", "6", "--samples", "20"),
])
def test_negative_value_after_space_is_a_value(capsys, command, value):
    # argparse took "-inf" and "-1e-3" for unknown options ("expected one argument")
    spaced = run(capsys, *command, "--x", value)
    joined = run(capsys, *command, f"--x={value}")
    assert spaced == joined and spaced[0] == 0
    if command[0] == "rate" and value == "-inf":
        assert json.loads(spaced[1])["value"] == math.inf


def test_negative_slope_is_named(capsys):
    # kappa1 = -3 once reached the Geronimus map and blamed the Verblunsky
    # coefficients; the slopes are checked first
    code, _, err = run(capsys, "probe", "--family", "jacobi", "--kappa1", "-3")
    assert code == 1 and "kappa" in err


def source_env():
    src = os.path.dirname(os.path.dirname(betaspectra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "betaspectra.cli", "--help"],
        env=source_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: betaspectra")
    assert "Traceback" not in proc.stderr


def test_mc_sizes_come_from_n_list(capsys):
    # a Laguerre m is read at the largest size: tau = 6 / 12
    code, out, _ = run(capsys, "mc", "--ensemble", "laguerre", "--m", "6", "--x", "3.2",
                       "--n-list", "8,12", "--samples", "500", "--seed", "3",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [row["n"] for row in obj["rows"]] == [8, 12]
    _, expect, _ = run(capsys, "rate", "--family", "fl", "--x", "3.2", "--tau", "0.5")
    assert obj["theory"] == json.loads(expect)["value"]
    # an empty list is refused by name before any size is read from it
    code, _, err = run(capsys, "mc", "--x", "2.5", "--n-list", "")
    assert code == 1 and "--n-list" in err


def test_mc_fixed_jacobi_exponents_match_experiment(capsys, tmp_path):
    argv = ("--x", "1.9", "--n-list", "6,10", "--samples", "3000", "--seed", "4")
    code, out, _ = run(capsys, "mc", "--ensemble", "jacobi_kn", "--a", "1", "--b", "2",
                       *argv)
    assert code == 0
    exp = McExperiment(spec=EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, a=1.0, b=2.0),
                       x=1.9, n_list=(6, 10), samples=3000, seed=4)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(exp.to_json()))
    code, expect, _ = run(capsys, "mc", "--experiment", str(path))
    assert code == 0
    assert out == expect
    # the exponents reach the sampler: the default (a, b) = (0, 0) gives other hits
    _, default, _ = run(capsys, "mc", "--ensemble", "jacobi_kn", *argv)
    assert default != out


SCIPY_HEAVY = ("scipy.integrate", "scipy.stats", "scipy.linalg")
# the Monte Carlo thread pool's module and the logging it loads
POOL_MODULES = ("concurrent.futures", "logging")

IMPORT_PROBE = """
import json, sys
import betaspectra
after_import = sorted(m for m in {heavy!r} if m in sys.modules)
from betaspectra.cli import cli
code = cli(["rate", "--family", "fg", "--x", "2.5"])
after_rate = sorted(m for m in {heavy!r} if m in sys.modules)
code_sumrule = cli(["sumrule", "--model", {model!r}])
after_sumrule = sorted(m for m in {heavy!r} if m in sys.modules)
# the eigenvalues of a small draw come from numpy's LAPACK
codes_sample = [cli(["sample", *argv, "--n", "50", "--beta", "2"]) for argv in {samples!r}]
after_sample = sorted(m for m in {heavy!r} if m in sys.modules)
print(json.dumps([code, after_import, after_rate, code_sumrule, after_sumrule, codes_sample,
                  after_sample]))
"""


# the sample commands that the cli_cold benchmark workload runs, at the default seed
SAMPLE_50 = [["--ensemble", "hermite"], ["--ensemble", "laguerre", "--m", "25"],
             ["--ensemble", "jacobi_kn", "--kappa1", "1", "--kappa2", "0.5"]]


def test_import_and_rate_load_no_heavy_scipy(tmp_path):
    # nor the thread pool, which only mc uses
    model = model_file(tmp_path, [1.25, -0.4, 0.3], [1.6, 0.7])
    heavy = SCIPY_HEAVY + POOL_MODULES
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(heavy=heavy, model=model, samples=SAMPLE_50)],
        env=source_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    code, after_import, after_rate, code_sumrule, after_sumrule, codes_sample, after_sample = (
        json.loads(proc.stdout.strip().splitlines()[-1])
    )
    assert code == 0 and code_sumrule == 0 and codes_sample == [0, 0, 0]
    assert after_import == []
    assert after_rate == []
    assert after_sumrule == []
    assert after_sample == []


STATS_PROBE = """
import json, sys
from betaspectra import EnsembleSpec, Kind, stat_suite
from betaspectra.cli import cli
stat_suite(EnsembleSpec(kind=Kind.HERMITE, n=10, beta=2.0), seed=1, reps=50)
after_suite = "scipy.stats" in sys.modules
code = cli(["stats", "--ensemble", "hermite", "--n", "20", "--reps", "50"])
print(json.dumps([code, after_suite, "scipy.stats" in sys.modules]))
"""


def test_stats_load_no_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", STATS_PROBE],
        env=source_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    code, after_suite, after_stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert not after_suite
    assert not after_stats


JACOBI_INSIDE = ("mc", "--ensemble", "jacobi_kn", "--a", "1", "--b", "2", "--x", "1.5",
                 "--n-list", "6,10")


def test_mc_bulk_warning_in_edge_coordinates(capsys):
    # the Jacobi-KN edges live on [0, 1], where the threshold 1.5 on [-2, 2] is 0.875
    code, _, err = run(capsys, *JACOBI_INSIDE)
    assert code == 0
    assert "warning: threshold 0.875 lies inside the bulk (0, 1)" in err


def test_mc_all_hit_row_prints_unsigned_zero(capsys):
    code, out, _ = run(capsys, *JACOBI_INSIDE)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    (full,) = [row for row in rows if row[3] == row[2]]  # every sample hit
    assert full[5] == "0"


@pytest.mark.parametrize("argv", [
    ("--beta", "nan"),
    ("--beta", "inf"),
    ("--ensemble", "jacobi_kn", "--a", "nan", "--b", "1"),
], ids=["beta-nan", "beta-inf", "jacobi-a-nan"])
def test_mc_refuses_non_finite_parameters(capsys, argv):
    # these once printed every sample as a hit, rate_hat nan, and exit 0
    code, out, err = run(capsys, "mc", "--x", "2.1", "--n-list", "20", "--samples", "100", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "must be finite" in err


MISSING_KEY_CASES = [
    ("sumrule", "--model", {"head": {"b": [0.0], "a": []}}, "'tail'"),
    ("probe", "--model", {"head": {"b": [0.0], "a": []}}, "'tail'"),
    ("sumrule", "--model", {"tail": {"a": 1.0}}, "'b'"),
    ("sumrule", "--model", {"tail": {"a": 1.0, "b": 0.0}, "head": {"b": [0.0]}}, "'a'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite"}}, "'n'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": 2.5}, "'n_list'"),
    ("moments", "--constraint", {"coefficients": [1.0]}, "'c'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": None}}, "'beta'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": None,
                            "n_list": [4], "samples": 10, "seed": 1}, "'x'"),
    ("mc", "--experiment", [1, 2], "JSON object"),
    # a value of the wrong type is named like a missing one
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": [2.5],
                            "n_list": [4], "samples": 10, "seed": 1}, "'x'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": 2.5,
                            "n_list": 10, "samples": 10, "seed": 1}, "'n_list'"),
    ("sumrule", "--model", {"tail": {"a": [1.0], "b": 0.0}, "head": {"b": [0.0], "a": []}}, "'a'"),
    # a count with a fractional part is refused, not truncated
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": 2.5,
                            "n_list": [4], "samples": 10.9, "seed": 1}, "'samples'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": 2.5,
                            "n_list": [8.9], "samples": 10, "seed": 1}, "'n_list'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": 2.5,
                            "n_list": [4], "samples": 10, "seed": 1.5}, "'seed'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 10.7, "beta": 2.0}, "x": 2.5,
                            "n_list": [4], "samples": 10, "seed": 1}, "'n'"),
    ("mc", "--experiment", {"spec": {"kind": "laguerre", "n": 10, "beta": 2.0, "m": 2.5},
                            "x": 2.5, "n_list": [4], "samples": 10, "seed": 1}, "'m'"),
    # a key the reader does not know is refused at every level, not dropped
    ("sumrule", "--model", {"tail": {"a": 1.0, "b": 0.0}, "head": {"b": [0.0], "a": []},
                            "heads": {"b": [5.0], "a": []}}, "'heads'"),
    ("sumrule", "--model", {"tail": {"a": 1.0, "b": 0.0, "a_inf": 2.0}}, "'a_inf'"),
    ("probe", "--model", {"tail": {"a": 1.0, "b": 2.0},
                          "head": {"b": [1.3], "a": [0.8], "c": [0.5]}}, "'c'"),
    ("mc", "--experiment", {"spec": {"kind": "jacobi_kn", "n": 20, "beta": 2.0, "kapa1": 1.0},
                            "x": 0.9, "n_list": [20], "samples": 10, "seed": 1}, "'kapa1'"),
    ("mc", "--experiment", {"spec": {"kind": "hermite", "n": 4, "beta": 2.0}, "x": -2.5,
                            "n_list": [4], "samples": 10, "seed": 1, "directon": "min_below"},
     "'directon'"),
    ("moments", "--constraint", {"c": [0.0, 1.0, 0.0], "order": 3}, "'order'"),
]


@pytest.mark.parametrize("cmd, flag, obj, key", MISSING_KEY_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(MISSING_KEY_CASES)])
def test_input_file_missing_key_is_one_error_line(tmp_path, cmd, flag, obj, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = [cmd, flag, str(path)] + (["--family", "laguerre"] if cmd == "probe" else [])
    proc = subprocess.run(
        [sys.executable, "-m", "betaspectra.cli", *argv],
        env=source_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and key in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
