"""betaspectra benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S
    python3 benchmark/run.py --self-test

Runs one workload from workloads.py in a closed loop (one caller, one
operation at a time) against the library under src/ of this checkout, for
S seconds of timed operations. Every output is checked outside the timed
region. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The lines before it give
the environment and the workload's own figures. A record of the run goes
to benchmark/out/.

``--workload all`` runs the four workloads and the diagnostic
``sumrule_wide`` (sum-rule heads the library fails on at the commit that
defined the benchmark, so it is not in BENCHMARK.json) one after another,
each in its own process, and prints every workload's own figures with
failed/attempted.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 3
CALIB_REPS = 3
CALIB_EVERY_S = 1.0  # of timed work, at most, between two calibrations
# Median time of each calibration kernel on the machine the benchmark was
# defined on (2 shared vCPUs, Python 3.11, numpy 2.4, scipy 1.17). An
# operation's time is its wall time times CALIB_REF_S / (the kernel's time
# measured around it): the time it would take at that machine's speed.
CALIB_REF_S = {"python": 0.012, "lapack": 0.0145}
CALIB_LOOP = 120_000
CALIB_EIGH_N = 300
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 40.0
IMPORT_MODULES = ("betaspectra", "numpy", "scipy.linalg", "scipy.integrate", "scipy.stats")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
}

# per-layer metrics beyond the recorder's calls/self-time/counters
EXTRA_LAYER_UNITS = {
    "sumrule.sumrule_verify.max_rel_gap": "1",
    "sumrule.sumrule_verify.over_tol": "count",
    "jacobi.measure_to_jacobi.max_err": "1",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    **{f"import.{m}_s": "s" for m in IMPORT_MODULES},
}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_library() -> None:
    """Import betaspectra from src/ of this checkout, and from nowhere else."""
    init = os.path.join(SRC, "betaspectra", "__init__.py")
    if not os.path.isfile(init):
        fail(f"no library source at {os.path.relpath(init, ROOT)}")
    sys.path.insert(0, SRC)
    import betaspectra

    if os.path.dirname(os.path.abspath(betaspectra.__file__)) != os.path.dirname(init):
        fail(f"betaspectra was imported from {betaspectra.__file__}, not from src/")


def layer_unit(name: str) -> str:
    if name in EXTRA_LAYER_UNITS:
        return EXTRA_LAYER_UNITS[name]
    return "s" if name.endswith(".s") else "count"


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None where it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy
    import betaspectra

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "betaspectra": betaspectra.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args) -> float:
    """Median wall time of fresh processes that start the interpreter,
    import, generate the inputs and warm up, then stop before timing."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(times)


def import_times() -> dict:
    """Cumulative import time per module from -X importtime, median of runs;
    0 for a module that `import betaspectra` no longer imports."""
    from workloads import cli_env

    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import betaspectra"],
                              cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"import probe failed:\n{proc.stderr}")
        entries = []  # (depth, name, cumulative seconds)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                depth = len(name) - len(name.lstrip())
                entries.append((depth, name.strip(), int(cumulative) * 1e-6))
        runs.append({m: module_import_time(entries, m) for m in IMPORT_MODULES})
    return {f"import.{m}_s": statistics.median(r[m] for r in runs) for m in IMPORT_MODULES}


def module_import_time(entries, module: str) -> float:
    """The module's cumulative time. A package that scipy loads lazily
    (scipy.stats) has no line of its own; then its outermost submodules
    are summed."""
    for _, name, cumulative in entries:
        if name == module:
            return cumulative
    subs = [(d, c) for d, name, c in entries if name.startswith(module + ".")]
    if not subs:
        return 0.0
    top = min(d for d, _ in subs)
    return sum(c for d, c in subs if d == top)


def run_op(fn, op, records, wl, recorder=None):
    """Time one call (span recording only around the call), then check it."""
    if recorder is not None:
        recorder.install()
    start = time.perf_counter()
    error = result = None
    try:
        result = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    finally:
        latency = time.perf_counter() - start
        if recorder is not None:
            recorder.uninstall()
    if error is not None:
        problems, facts = [f"raised {type(error).__name__}: {error}"], {}
    else:
        try:
            problems, facts = op.check(result)
        except Exception as exc:
            problems, facts = [f"check raised {type(exc).__name__}: {exc}"], {}
    rec = wl.Record(op.kind, latency, problems, facts)
    records.append(rec)
    return rec, result


def python_kernel() -> None:
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i % 7


@functools.lru_cache(maxsize=1)
def calibration_matrix():
    import numpy as np

    a = np.random.default_rng(0).standard_normal((CALIB_EIGH_N, CALIB_EIGH_N))
    return a + a.T


def lapack_kernel() -> None:
    import scipy.linalg

    scipy.linalg.eigh(calibration_matrix())


def calibrate(kind: str) -> float:
    """Median time of a fixed kernel that calls no betaspectra code: a
    pure-Python loop ("python") or a dense LAPACK eigensolve ("lapack")."""
    kernel = {"python": python_kernel, "lapack": lapack_kernel}[kind]
    times = []
    for _ in range(CALIB_REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_scale(kind: str, before: float, after: float) -> float:
    return CALIB_REF_S[kind] / (0.5 * (before + after))


def timed_run(workload, seconds: float, wl):
    """Whole cycles until the timed operations add up to `seconds`. The
    workload's calibration kernel runs first, after every CALIB_EVERY_S of
    timed work (between operations) and last; the records in between get
    the speed scale of the two calibrations around them."""
    records = []
    busy, k, peak_child_kb = 0.0, 0, 0
    kind = workload.calibration
    before, first, since = calibrate(kind), 0, 0.0

    def close_span():
        nonlocal before, first, since
        after = calibrate(kind)
        for rec in records[first:]:
            rec.scale = speed_scale(kind, before, after)
        before, first, since = after, len(records), 0.0

    while busy < seconds:
        for op in workload.cycle(k):
            rec, result = run_op(op.run, op, records, wl)
            busy += rec.latency
            since += rec.latency
            peak_child_kb = max(peak_child_kb, getattr(result, "maxrss_kb", 0))
            if since >= CALIB_EVERY_S:
                close_span()
        k += 1
    if first < len(records):
        close_span()
    return records, peak_child_kb


def trace_cycles(workload, seconds: float) -> int:
    """A fixed cycle count for a given --seconds, so counts repeat exactly."""
    return max(1, math.ceil(seconds / (2.0 * workload.nominal_cycle_s)))


def traced_run(workload, seconds: float, wl):
    """Each operation runs untraced and traced on the same inputs, in
    alternating order; the difference is the tracing overhead. Returns all
    records (for failed/attempted) and those of the traced calls."""
    from spans import Recorder

    recorder = Recorder()
    records, traced_records = [], []
    untraced = traced = 0.0
    for k in range(trace_cycles(workload, seconds)):
        for op in workload.cycle(k):
            fn = op.trace_run or op.run
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                rec, _ = run_op(fn, op, records, wl, recorder if with_trace else None)
                if with_trace:
                    traced += rec.latency
                    traced_records.append(rec)
                else:
                    untraced += rec.latency
    return records, traced_records, recorder, traced - untraced, untraced


def layer_metrics(records, recorder, overhead_s, untraced_s, imports) -> dict:
    out = dict(recorder.layer_metrics())
    gaps = [r.facts["rel_gap"] for r in records if "rel_gap" in r.facts]
    errs = [r.facts["roundtrip_err"] for r in records if "roundtrip_err" in r.facts]
    import workloads as wl

    out["sumrule.sumrule_verify.max_rel_gap"] = max(gaps, default=0.0)
    out["sumrule.sumrule_verify.over_tol"] = int(sum(g > wl.SUMRULE_TOL for g in gaps))
    out["jacobi.measure_to_jacobi.max_err"] = max(errs, default=0.0)
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_pct"] = 100.0 * overhead_s / untraced_s
    out.update(imports)
    return out


def e2e_metrics(records, setup_s: float, peak_child_kb: int, scaled: bool = True) -> dict:
    """The end-to-end metrics; operation times at the reference speed
    unless `scaled` is false (setup_s is always wall time)."""
    lat = [r.latency * (r.scale if scaled else 1.0) for r in records]
    if peak_child_kb:
        peak_kb = peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
    }


def failures(records) -> list:
    return [f"{r.kind}: {p}" for r in records for p in r.problems]


def run_all(args) -> None:
    summary, table = {}, []
    for name in ("mc_tail", "sumrule_heads", "spectral_roundtrip", "cli_cold", "sumrule_wide"):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            fail(f"{name} failed:\n{proc.stderr}")
        lines = proc.stdout.splitlines()
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
        final = json.loads(lines[-1])
        table.append((name, final["attempted"], final["failed"]))
        summary[name] = {"attempted": final["attempted"], "failed": final["failed"]}
        for metric in ("setup_s", "peak_rss_mb"):
            entry = final["metrics"][metric]
            print(f"{name:20s} {metric:26s} {entry['value']:.6g} {entry['unit']}")
        for metric, entry in detail["figures"].items():
            extra = f"  (n={entry['n']})" if "n" in entry else ""
            print(f"{name:20s} {metric:26s} {entry['value']:.6g} {entry['unit']}{extra}")
            summary[name][metric] = entry
    for name, attempted, failed in table:
        print(f"{name:20s} failed/attempted {failed}/{attempted}")
    print(json.dumps(summary))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    load_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        import selftest

        raise SystemExit(selftest.main())
    if args.workload == "all":
        run_all(args)
        return
    import workloads as wl

    known = {**wl.WORKLOADS, **wl.DIAGNOSTICS}
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(known)}")
    cls = known[args.workload]
    if args.setup_only:
        cls(args.seed, OUT_DIR).setup()
        return
    setup_s = None if args.trace else measure_setup(args)
    workload = cls(args.seed, OUT_DIR)
    workload.setup()
    env = environment(args)
    if args.trace:
        records, traced_records, recorder, overhead_s, untraced_s = traced_run(
            workload, args.seconds, wl)
        values = layer_metrics(traced_records, recorder, overhead_s, untraced_s, import_times())
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        detail = {"trace_cycles": trace_cycles(workload, args.seconds),
                  "spans": len(recorder.spans)}
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": recorder.spans}, fh)
    else:
        records, peak_child_kb = timed_run(workload, args.seconds, wl)
        values = e2e_metrics(records, setup_s, peak_child_kb)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        detail = {
            "figures": workload.summary(records),
            "wall": e2e_metrics(records, setup_s, peak_child_kb, scaled=False),
            "calibration": {"kernel": workload.calibration,
                            "median_scale": statistics.median(r.scale for r in records)},
        }
    problems = failures(records)
    # child processes this run started: set-up or import probes, plus one
    # per operation whose timed part is a fresh interpreter (cli_cold)
    children = len(records) if isinstance(workload, wl.CliCold) and not args.trace else 0
    detail.update({
        "workload": args.workload,
        "processes_started": (IMPORT_PROBES if args.trace else SETUP_PROBES) + children,
        "ops_by_kind": {kind: sum(r.kind == kind for r in records)
                        for kind in sorted({r.kind for r in records})},
        "failures": problems[:20],
    })
    final = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(bool(r.problems) for r in records),
        "metrics": metrics,
    }
    record_file = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_file, "w") as fh:
        json.dump({"env": env, "detail": detail, "result": final}, fh, indent=1)
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
