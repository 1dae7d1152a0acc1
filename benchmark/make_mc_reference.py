"""Measure the reference tail probabilities the mc_tail check compares with.

    python3 benchmark/make_mc_reference.py

Writes benchmark/mc_reference.json: for each configuration in
workloads.MC_CONFIGS and each N, the hit fraction of mc_tail_rate with
REF_SAMPLES samples (seed REF_SEED), many more than one benchmark call uses.
The benchmark accepts a call whose hits lie within a wide binomial band of
these probabilities, so a legitimate change to the random draw order still
passes. Run it again only when the configurations change.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import betaspectra as bs  # noqa: E402
from workloads import MC_CONFIGS, MC_N_LIST, MC_REFERENCE_FILE  # noqa: E402

REF_SAMPLES = 1_000_000
REF_SEED = 2008


def main() -> None:
    configs = {}
    for cfg in MC_CONFIGS:
        start = time.perf_counter()
        exp = bs.McExperiment(spec=cfg.spec(), x=cfg.x, n_list=MC_N_LIST,
                              samples=REF_SAMPLES, seed=REF_SEED)
        result = bs.mc_tail_rate(exp)
        configs[cfg.name] = {
            "x": cfg.x,
            "beta": cfg.beta,
            "hits": {str(r.n): r.hits for r in result.rows},
            "p": {str(r.n): r.hits / REF_SAMPLES for r in result.rows},
        }
        print(cfg.name, configs[cfg.name]["hits"], f"{time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    with open(MC_REFERENCE_FILE, "w") as fh:
        json.dump({"samples": REF_SAMPLES, "seed": REF_SEED, "configs": configs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
