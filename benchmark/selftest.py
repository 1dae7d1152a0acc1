"""Self-test of the benchmark itself.

    python3 benchmark/run.py --self-test

1. Runs every workload at a tiny size, untraced and traced, and checks that
   the emitted metric names and units are exactly those in BENCHMARK.json.
2. Injects a wrong result into each kind of operation (a perturbed hit
   count, gap, primal value, atom, round trip or CLI output) and checks that
   the output check counts it as a failure, while the true result passes.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark files, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import run
import workloads as wl

failures: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def contract() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_metric_names(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS),
           "workload names match BENCHMARK.json")
    imports = run.import_times()
    for name, cls in {**wl.WORKLOADS, **wl.DIAGNOSTICS}.items():
        workload = cls(seed=3, out_dir=run.OUT_DIR, tiny=True)
        workload.setup()
        records, peak = run.timed_run(workload, 1e-3, wl)
        got = {k: run.E2E_UNITS[k] for k in run.e2e_metrics(records, 1.0, peak)}
        expect(got == e2e, f"{name}: end-to-end metric names and units")
        expect(not run.failures(records), f"{name}: tiny untraced run has no failures")
        records, traced, recorder, overhead, untraced = run.traced_run(workload, 1e-3, wl)
        values = run.layer_metrics(traced, recorder, overhead, untraced, imports)
        got = {k: run.layer_unit(k) for k in values}
        expect(got == layer, f"{name}: per-layer metric names and units")
        expect(not run.failures(records), f"{name}: tiny traced run has no failures")


def caught(op, result, corrupt) -> bool:
    bad = copy.deepcopy(result)
    corrupt(bad)
    return bool(op.check(bad)[0])


def check_injection() -> None:
    def mc_hits(res):
        res.rows[-1].hits = res.rows[-1].samples - res.rows[-1].hits

    def gap(res):
        res.gap += 1e-3

    def outlier(res):
        e, m = res.outlier_list[0]
        res.outlier_list[0] = (e + 1e-6, m)

    def probe_gap(res):
        res.gap = 1e-6

    def primal(res):
        res["primal"] += 1e-3

    def atom(res):
        coeffs, mu = res["big"]
        res["big"] = (coeffs, SimpleNamespace(
            locations=mu.locations + 1e-8 * np.arange(mu.n_atoms), weights=mu.weights,
            n_atoms=mu.n_atoms))

    def roundtrip(res):
        mid, mu, back = res["mid"]
        res["mid"] = (mid, mu, SimpleNamespace(b=back.b + 1e-6, a=back.a))

    def control(res):
        res["control"] = SimpleNamespace(all_passed=True)

    def stdout(res):
        res.stdout = res.stdout.replace("\n", " \n", 1)

    def exit_code(res):
        res.code = 2

    corruptions = {
        "mc_tail": [("hit count", mc_hits)],
        "short_head": [("sum-rule gap", gap)],
        "long_head": [("outlier location", outlier)],
        "laguerre_probe": [("probe gap", probe_gap)],
        "jacobi_probe": [("probe gap", probe_gap)],
        "moment_opt": [("primal value", primal)],
        # cycle 0 starts with the smallest round, which carries the control
        "round": [("atom", atom), ("round trip", roundtrip), ("negative control", control)],
        "cli": [("stdout", stdout), ("exit code", exit_code)],
    }
    seen = set()
    for name, cls in {**wl.WORKLOADS, **wl.DIAGNOSTICS}.items():
        workload = cls(seed=5, out_dir=run.OUT_DIR, tiny=True)
        ops = workload.cycle(0) if name != "cli_cold" else [
            op for k in range(len(wl.CLI_SUBCOMMANDS)) for op in workload.cycle(k)]
        for op in ops:
            group = ("mc_tail" if name == "mc_tail" else "cli" if name == "cli_cold"
                     else "round" if op.kind.startswith("round") else op.kind)
            if group in seen and name != "cli_cold":
                continue
            result = op.run()
            if group == "long_head" and not result.outlier_list:
                continue
            seen.add(group)
            expect(not op.check(result)[0], f"{name}/{op.kind}: true result passes")
            for label, corrupt in corruptions[group]:
                expect(caught(op, result, corrupt), f"{name}/{op.kind}: wrong {label} is a failure")
    expect(seen == set(corruptions), "every operation kind had a result injected")


def check_bare_directory(spec: dict) -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    spec = contract()
    check_injection()
    check_metric_names(spec)
    check_bare_directory(spec)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
