"""Inputs the package is known to get wrong, run apart from the timed loop.

The timed workloads hold only inputs on which every op succeeds, so a run's
failure count is a property of the program, not of how many ops fit into
the run.  The known defects still show: before its timed loop, each run
takes its workload's fixed list below through the same call and the same
check as a timed op, untimed and independent of the seed.  The outcome of
each case goes into the record line, and the number that fail into the
per-layer metric `known_defects.failed`.  A change that fixes a defect
lowers that number; one that breaks a timed input fails the run's ops.
"""

from collections import Counter

import numpy as np

import inputs

_KEY = 99


def _rng(*key):
    return np.random.default_rng([_KEY, *key])


def _spectrum(index, kind, args):
    if kind == "roadmap_triple":
        v = inputs.roadmap_triple()
    else:
        v = inputs.spectrum_of(kind, args, _rng(index))
    return inputs.Input(kind, v, params={"r": (v.size + 1) // 2, "alpha": 0.5})


def _cli_input(command, inp):
    return inputs.Input(command, inp.values, matrix=inp.matrix,
                        params={"command": command, "format": "json"})


# Jacobi stalls (NoConvergenceError) on some states at every dimension but 4.
STATE_CASES = tuple((n, i) for n in (2, 3, 6, 8, 12, 16, 24) for i in range(6))

# Near pairs and triples (the ROADMAP.md repro first), larger exact-pair
# products and a generic n = 24 spectrum: values beyond 1e-9, or an error.
SPECTRA_CASES = (
    ("roadmap_triple", ()),
    ("near_pair", (6, 1e-7)), ("near_pair", (10, 1e-8)), ("near_pair", (8, 3e-9)),
    ("near_triple", (6, 1e-7)), ("near_triple", (8, 3e-9)),
    ("product", (4, 3)), ("product", (4, 3)), ("product", (6, 2)), ("dirichlet", (24,)),
    ("dirichlet", (24,)),
)

# (seed, trials, mc_samples) of full run_suites passes.  At trials = 100 the
# sampler injects near pairs, and the first three then fail augmentation
# invariance; the last fails oracle agreement by chance, as about one pass in
# 700 does at 2000 samples.
VERIFY_CASES = ((0, 100, 500), (1, 100, 500), (3, 100, 500), (4254610635, 20, 2000))


def cases(workload):
    """(label, input) pairs of the workload's known-defect inputs, in a fixed order."""
    if workload == "states":
        return [(f"wishart:{n}:{i}", inputs.wishart_state(_rng(n, i), n))
                for n, i in STATE_CASES]
    if workload == "spectra":
        return [(f"{':'.join(map(str, (kind, *args)))}#{i}", _spectrum(i, kind, args))
                for i, (kind, args) in enumerate(SPECTRA_CASES)]
    if workload == "verify":
        return [(f"run_suites:seed={s}:trials={t}", {
                    **inputs.VERIFY_PASS, "suites": None, "seed": s, "trials": t,
                    "mc_samples": m, "spectra": [], "oracle_seeds": []})
                for s, t, m in VERIFY_CASES]
    # cli: contour loses accuracy past n = 64; compute exits 3 on two of the
    # states above on which Jacobi stalls
    contour = [(f"oracle_contour:{n}", _cli_input(
        "oracle_contour", inputs.Input("dirichlet", inputs.spectrum_of("dirichlet", (n,), _rng(n)))))
        for n in (128, 256)]
    stalls = [(f"compute_dm:{n}:{i}", _cli_input("compute_dm", inputs.wishart_state(_rng(n, i), n)))
              for n, i in ((6, 2), (24, 0))]
    return contour + stalls


def probe(wl, classify):
    """Run every known-defect case of workload `wl`; classify(inp) gives its failure or None."""
    outcomes = {label: classify(inp) or "ok" for label, inp in cases(wl.name)}
    failed = Counter(c for c in outcomes.values() if c != "ok")
    return {"attempted": len(outcomes), "failed": sum(failed.values()),
            "failures_by_class": dict(failed), "cases": outcomes}
