"""Span recorder for traced benchmark runs.

The recorder wraps public library functions from outside: it rebinds every
module attribute that refers to the original function (the defining
module, the package namespace and each module that imported the name), so
calls made inside the library are seen too. Nothing under src/ changes.

Each call becomes a span (name, start, end, parent) kept in memory; the
benchmark writes them out when the run ends. A layer's self time is its
spans' duration minus the duration of their direct child spans.

Private paths cannot be split from outside and stay inside their public
caller's self time: the batch samplers and the Sturm count (in
``mc_tail_rate``), ``_scan_side``/``_secular`` and ``_residue_mass`` (in
``outliers``), and the private sampler helpers that ``stat_suite`` imports.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "betaspectra"

# (module, attribute path) of every wrapped public function. The metric
# prefix is "<module>.<attribute path>".
TARGETS = (
    ("ensembles", "sample_hermite"),
    ("ensembles", "sample_laguerre"),
    ("ensembles", "sample_jacobi_kn"),
    ("ensembles", "spectral_measure"),
    ("ensembles", "RngStream.generator"),
    ("montecarlo", "mc_tail_rate"),
    ("montecarlo", "theory_rate"),
    ("montecarlo", "stat_suite"),
    ("jacobi", "spectral_decompose"),
    ("jacobi", "measure_to_jacobi"),
    ("jacobi", "geronimus"),
    ("jacobi", "ds_assemble"),
    ("jacobi", "ds_factorize"),
    ("sumrule", "sumrule_verify"),
    ("sumrule", "outliers"),
    ("sumrule", "ac_density"),
    ("sumrule", "m_function"),
    ("sumrule", "measure_side_rate"),
    ("sumrule", "conjecture_probe_laguerre"),
    ("sumrule", "conjecture_probe_jacobi"),
    ("rates", "rate_fg"),
    ("rates", "rate_fl"),
    ("rates", "rate_fj"),
    ("rates", "hermite_rate"),
    ("rates", "laguerre_rate"),
    ("equilibria", "density"),
    ("equilibria", "ChebGrid.for_interval"),
    ("moments_opt", "moment_opt_report"),
    ("moments_opt", "moments_to_jacobi"),
    ("moments_opt", "constrained_rate_dual"),
    ("cli", "cli"),
)

# Counters recorded at the same boundaries as the spans.
COUNTERS = ("montecarlo.samples", "sumrule.ac_density.points", "moments_opt.dual_uncertified")


def _count_samples(rec, args, kwargs, result):
    exp = args[0] if args else kwargs["exp"]
    rec.counts["montecarlo.samples"] += exp.samples * len(exp.n_list)


def _count_points(rec, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    rec.counts["sumrule.ac_density.points"] += int(getattr(x, "size", 1))


def _count_uncertified(rec, args, kwargs, result):
    if not result.certified:
        rec.counts["moments_opt.dual_uncertified"] += 1


HOOKS = {
    "montecarlo.mc_tail_rate": _count_samples,
    "sumrule.ac_density": _count_points,
    "moments_opt.constrained_rate_dual": _count_uncertified,
}


class Recorder:
    """Collects spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._sites: list = []  # (owner, attribute, original, replacement)
        self._build_sites()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _build_sites(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, path in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    repl = staticmethod(self._wrap(name, raw.__func__))
                else:
                    repl = self._wrap(name, raw)
                self._sites.append((owner, attr, raw, repl))
                continue
            original = getattr(module, path)
            repl = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, attr, original, repl))

    def install(self) -> None:
        for owner, attr, _, repl in self._sites:
            setattr(owner, attr, repl)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """calls and self seconds for every target, plus the counters."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name] - child[name]
        for key in COUNTERS:
            out[key] = self.counts[key]
        return out
