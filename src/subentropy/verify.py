"""Executable property suites with machine-readable verdicts.

Each suite samples spectra uniformly from the probability simplex (flat
Dirichlet via normalized exponentials) and deliberately replaces one trial
in twenty with a degenerate or near-degenerate spectrum - cycling through an
exact pair, a near pair at relative gap 1e-7 and a near triple (an exact
pair plus a value 5e-8 below) - so clustered spectra, on which closed forms
lose digits, are always exercised.  Suites are deterministic for a fixed
seed (PCG64, fixed sampling order, per-stage seeds derived from the master
seed).  Every suite validates its trial count (>= 1) and seed (None or an
integer >= 0) and raises InvalidIndexError otherwise.

Verdict semantics: every asserted inequality is reduced to a signed
violation amount (positive = failed); worst_violation is the largest
amount seen, reported even on pass, and details keeps up to 10 failing
inputs.  The invariance suite ships with a negative control (bare order-2
weights, which the underlying theory says are NOT augmentation invariant);
a healthy run has the control verdict failing.
"""

from dataclasses import dataclass
import math

import numpy as np

from .coefficients import binomial_weights, restricted_weights
from .entropy import _orders_matrix, intermediate_entropies, von_neumann_entropy
from .errors import InvalidIndexError, InvalidRError, _check_int
from .oracles import (
    contour_intermediate_entropy,
    haar_average_information,
    simplex_monte_carlo,
)
from .spectra import tensor_spectrum

DEGENERATE_RATE = 0.05
DETAIL_CAP = 10

CHAIN_MAX_N = 12
ORACLE_MAX_N = 6

# Verdict thresholds: a violation is the excess over these.
CHAIN_SLACK = 1e-10         # nonincreasing chain
CHAIN_STRICT_GAP = 1e-9     # least drop between orders away from purity ...
CHAIN_STRICT_LEVEL = 1e-3   # ... when the two largest eigenvalues reach this
INVARIANCE_TOL = 1e-9
CONTROL_THRESHOLD = 1e-3    # least deviation the negative control must show
CONCAVITY_SLACK = 1e-10
PROBE_STEP = 1e-3           # second-difference probe step
PROBE_SLACK = 1e-6
CONTOUR_TOL = 1e-8
ADDITIVITY_TOL = 1e-9
ENTROPY_ADDITIVITY_TOL = 1e-10

# Coefficient-recursion cases: binomial rows up to RECURSION_MAX_N at each
# alpha, and restricted families (N, r_hat).
RECURSION_MAX_N = 12
RECURSION_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
RESTRICTED_CASES = ((6, 3), (12, 1), (12, 5), (12, 12))

ALPHA_GRID = np.round(np.arange(0.0, 1.05, 0.1), 12)  # interpolant grid of the suites
M_MAX = 2  # zeros appended by the invariance suite in run_suites


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property suite; passed is equivalent to failures == 0."""

    property: str
    trials: int
    failures: int
    worst_violation: float
    passed: bool
    details: tuple


class _Collector:
    def __init__(self, name):
        self.name = name
        self.trials = 0
        self.failures = 0
        self.worst = -math.inf
        self.details = []

    def trial(self):
        self.trials += 1

    def record(self, amount, detail):
        amount = float(amount)
        self.worst = max(self.worst, amount)
        if amount > 0.0:
            self.failures += 1
            if len(self.details) < DETAIL_CAP:
                d = dict(detail() if callable(detail) else detail)
                d["violation"] = amount
                self.details.append(d)

    def verdict(self):
        worst = self.worst if math.isfinite(self.worst) else 0.0
        return PropertyVerdict(
            property=self.name,
            trials=self.trials,
            failures=self.failures,
            worst_violation=worst,
            passed=self.failures == 0,
            details=tuple(self.details),
        )


def _check_trials_seed(trials, seed):
    """trials as an int >= 1 and seed as None or an int >= 0, else InvalidIndexError."""
    trials = _check_int(trials, 1, None, InvalidIndexError, "trials")
    if seed is not None:
        seed = _check_int(seed, 0, None, InvalidIndexError, "seed")
    return trials, seed


def _sample_spectra(rng, trials, n, degenerate_rate=DEGENERATE_RATE):
    """(trials, n) flat-Dirichlet spectra, rows descending, 5% degenerate.

    Injected rows cycle through an exact pair, a near pair and a near
    triple; at n = 2 the triple falls back to a near pair.
    """
    e = rng.standard_exponential((trials, n))
    lam = np.sort(e / e.sum(axis=1, keepdims=True), axis=1)[:, ::-1].copy()
    if n >= 2 and degenerate_rate > 0.0:
        step = max(1, round(1.0 / degenerate_rate))
        for count, i in enumerate(range(step - 1, trials, step)):
            j = int(rng.integers(0, n - 1))
            v = 0.5 * (lam[i, j] + lam[i, j + 1])
            kind = min(count % 3, n - 1)  # n = 2 has no room for a triple
            if kind == 0:
                lam[i, j] = lam[i, j + 1] = v
            elif kind == 1:
                lam[i, j] = v * (1.0 + 5e-8)
                lam[i, j + 1] = v * (1.0 - 5e-8)
            else:
                j = min(j, n - 3)
                v = lam[i, j:j + 3].mean()
                lam[i, j:j + 2] = v
                lam[i, j + 2] = v * (1.0 - 5e-8)
            lam[i] = np.sort(lam[i] / lam[i].sum())[::-1]
    return lam


def check_inequality_chain(n, trials, seed):
    """Order values must be nonincreasing in r, strictly so away from purity.

    The nonincreasing chain is asserted with CHAIN_SLACK; whenever the two
    largest eigenvalues are both >= CHAIN_STRICT_LEVEL, every consecutive
    difference must additionally exceed CHAIN_STRICT_GAP.
    """
    n = _check_int(n, 2, CHAIN_MAX_N, InvalidIndexError, "n for the inequality-chain suite")
    trials, seed = _check_trials_seed(trials, seed)
    rng = np.random.default_rng(seed)
    lam = _sample_spectra(rng, trials, n)
    orders = _orders_matrix(lam)
    diffs = orders[:, 1:] - orders[:, :-1]
    col = _Collector("inequality-chain")
    for i in range(trials):
        col.trial()
        spectrum = lam[i]
        col.record(
            float(diffs[i].max()) - CHAIN_SLACK,
            lambda i=i, s=spectrum: {"spectrum": s.tolist(), "kind": "nonincreasing"},
        )
        if spectrum[1] >= CHAIN_STRICT_LEVEL:
            col.record(
                CHAIN_STRICT_GAP - float((-diffs[i]).min()),
                lambda i=i, s=spectrum: {"spectrum": s.tolist(), "kind": "strictness"},
            )
    return col.verdict()


def check_invariance(n, m_max, alpha_grid, trials, seed):
    """Interpolated entropy must not change when zero eigenvalues are appended."""
    n = _check_int(n, 2, 24, InvalidIndexError, "n for the invariance suite")
    trials, seed = _check_trials_seed(trials, seed)
    rng = np.random.default_rng(seed)
    grid = [float(a) for a in alpha_grid]
    lam = _sample_spectra(rng, trials, n)
    orders = _orders_matrix(lam)
    w_base = np.array([binomial_weights(n, a) for a in grid])
    w_pad = {m: np.array([binomial_weights(n + m, a) for a in grid])
             for m in range(1, m_max + 1)}
    base_vals = orders @ w_base.T
    col = _Collector("augmentation-invariance")
    for i in range(trials):
        col.trial()
        for m in range(1, m_max + 1):
            padded = np.concatenate([lam[i], np.zeros(m)])
            vals = w_pad[m] @ intermediate_entropies(padded)
            dev = np.abs(vals - base_vals[i])
            col.record(
                float(dev.max()) - INVARIANCE_TOL,
                lambda i=i, m=m, d=dev: {
                    "spectrum": lam[i].tolist(), "m": m,
                    "alpha": grid[int(np.argmax(d))],
                },
            )
    return col.verdict()


def check_invariance_control(trials, seed):
    """Negative control: bare order-2 weights are NOT augmentation invariant.

    Uses the weight row that picks out order 2 alone (n = 3, one appended
    zero).  A correct implementation makes this verdict FAIL - the order-2
    value genuinely moves under padding - so the caller must assert
    passed == False.  Violation amounts are deviations beyond
    CONTROL_THRESHOLD.
    """
    trials, seed = _check_trials_seed(trials, seed)
    rng = np.random.default_rng(seed)
    lam = _sample_spectra(rng, trials, 3, degenerate_rate=0.0)
    orders = _orders_matrix(lam)
    col = _Collector("invariance-control-order-2")
    for i in range(trials):
        col.trial()
        padded = np.concatenate([lam[i], np.zeros(1)])
        dev = abs(float(intermediate_entropies(padded)[1]) - float(orders[i, 1]))
        col.record(
            dev - CONTROL_THRESHOLD,
            lambda i=i, d=dev: {"spectrum": lam[i].tolist(), "deviation": d},
        )
    return col.verdict()


def _recursion_residual(b, b_next, n):
    """Largest |(n-r+1) b_next[r] + r b_next[r+1] - n b[r]| over r = 1..n (1-based)."""
    return max(
        abs((n - r + 1) * b_next[r - 1] + r * b_next[r] - n * b[r - 1])
        for r in range(1, n + 1)
    )


def check_coefficient_recursion():
    """Weight rows must satisfy the consecutive-dimension recursion.

    (n-r+1) b[n+1][r] + r b[n+1][r+1] = n b[n][r], plus nonnegativity and
    unit row sums: within 1e-12 for the binomial family, exactly for the
    restricted family, whose n = N row must also be the r_hat indicator.
    """
    col = _Collector("coefficient-recursion")
    for alpha in RECURSION_ALPHAS:
        rows = [binomial_weights(k, alpha) for k in range(1, RECURSION_MAX_N + 2)]
        for n in range(1, RECURSION_MAX_N + 1):
            col.trial()
            b = rows[n - 1]
            res = _recursion_residual(b, rows[n], n)
            detail = {"kind": "binomial", "alpha": alpha, "n": n}
            col.record(res - 1e-12, dict(detail, check="recursion"))
            col.record(-float(b.min()), dict(detail, check="nonnegative"))
            col.record(abs(float(b.sum()) - 1.0) - 1e-12, dict(detail, check="row-sum"))
    for N, r_hat in RESTRICTED_CASES:
        rows = [restricted_weights(N, r_hat, k) for k in range(1, N + 1)]
        for n in range(1, N):
            col.trial()
            b = rows[n - 1]
            res = _recursion_residual(b, rows[n], n)
            detail = {"kind": "restricted", "N": N, "r_hat": r_hat, "n": n}
            col.record(float(res), dict(detail, check="recursion-exact"))
            col.record(float(-min(b)), dict(detail, check="nonnegative"))
            col.record(float(abs(sum(b) - 1)), dict(detail, check="row-sum-exact"))
        col.trial()
        top = rows[N - 1]
        boundary = max(abs(top[r - 1] - (1 if r == r_hat else 0)) for r in range(1, N + 1))
        col.record(float(boundary),
                   {"kind": "restricted", "N": N, "r_hat": r_hat, "check": "boundary"})
    return col.verdict()


def check_concavity(n, r, trials, seed):
    """Order-r value must be concave on the simplex.

    Random-pair mixing tests t*f(s1) + (1-t)*f(s2) <= f(t*s1 + (1-t)*s2)
    with CONCAVITY_SLACK, plus a second-difference probe along random
    zero-sum directions with step PROBE_STEP, requiring the discrete second
    difference to stay below PROBE_SLACK.
    """
    n = _check_int(n, 2, 24, InvalidIndexError, "n for the concavity suite")
    r = _check_int(r, 1, n, InvalidRError, "order r")
    trials, seed = _check_trials_seed(trials, seed)
    rng = np.random.default_rng(seed)
    s1 = _sample_spectra(rng, trials, n)
    s2 = _sample_spectra(rng, trials, n)
    t = rng.random(trials)
    mix = t[:, None] * s1 + (1.0 - t[:, None]) * s2
    f1 = _orders_matrix(s1)[:, r - 1]
    f2 = _orders_matrix(s2)[:, r - 1]
    fm = _orders_matrix(mix)[:, r - 1]
    col = _Collector(f"concavity-order-{r}")
    for i in range(trials):
        col.trial()
        col.record(
            t[i] * f1[i] + (1.0 - t[i]) * f2[i] - fm[i] - CONCAVITY_SLACK,
            lambda i=i: {"kind": "midpoint", "s1": s1[i].tolist(),
                         "s2": s2[i].tolist(), "t": float(t[i])},
        )
    # second-difference probe on interior points
    base = _sample_spectra(rng, trials, n, degenerate_rate=0.0)
    direction = rng.standard_normal((trials, n))
    direction -= direction.mean(axis=1, keepdims=True)
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    ok = base.min(axis=1) > PROBE_STEP * np.abs(direction).max(axis=1)
    base, direction = base[ok], direction[ok]
    f0 = _orders_matrix(base)[:, r - 1]
    fp = _orders_matrix(base + PROBE_STEP * direction)[:, r - 1]
    fn = _orders_matrix(base - PROBE_STEP * direction)[:, r - 1]
    for i in range(base.shape[0]):
        col.trial()
        col.record(
            (fp[i] - 2.0 * f0[i] + fn[i]) - PROBE_SLACK,
            lambda i=i: {"kind": "second-difference", "spectrum": base[i].tolist()},
        )
    return col.verdict()


def _majority_z_amount(values, stderrs, reference, bound=3.0):
    """Signed violation for a majority-of-runs z test.

    Each run is within bounds when |value - reference| <= bound * stderr.
    The check fails only when the majority of runs is outside, which makes
    the suite robust to the expected rate of single > bound-sigma
    excursions; the amount returned is the median excess in sigma units.
    """
    zs = sorted(
        abs(v - reference) / se if se > 0.0 else (0.0 if abs(v - reference) < 1e-12 else math.inf)
        for v, se in zip(values, stderrs)
    )
    return zs[len(zs) // 2] - bound


def check_oracle_agreement(n, trials, mc_samples, seed):
    """Engine, contour, simplex MC, and Haar MC must agree.

    Per spectrum: |contour - engine| < CONTOUR_TOL for every order;
    simplex MC agrees with the engine and Haar MC with the subentropy
    within 3 standard errors by majority of 3 independently seeded runs.
    One spectrum with a repeated eigenvalue and a zero is always included.
    """
    n = _check_int(n, 2, ORACLE_MAX_N, InvalidIndexError, "n for the oracle-agreement suite")
    trials, seed = _check_trials_seed(trials, seed)
    rng = np.random.default_rng(seed)
    lam = _sample_spectra(rng, trials, n)
    lam[0, :-1] = 1.0 / (n - 1)
    lam[0, -1] = 0.0
    orders = _orders_matrix(lam)
    col = _Collector("oracle-agreement")
    for i in range(trials):
        col.trial()
        spectrum = lam[i]
        for r in range(1, n + 1):
            est = contour_intermediate_entropy(spectrum, r)
            col.record(
                abs(est.value - orders[i, r - 1]) - CONTOUR_TOL,
                lambda i=i, r=r: {"kind": "contour", "spectrum": lam[i].tolist(), "r": r},
            )
        for r in range(1, n + 1):
            runs = [
                simplex_monte_carlo(spectrum, r, mc_samples, int(rng.integers(2 ** 63)))
                for _ in range(3)
            ]
            col.record(
                _majority_z_amount([e.value for e in runs], [e.stderr for e in runs],
                                   orders[i, r - 1]),
                lambda i=i, r=r: {"kind": "simplexMC", "spectrum": lam[i].tolist(), "r": r},
            )
        runs = [
            haar_average_information(spectrum, mc_samples, int(rng.integers(2 ** 63)))
            for _ in range(3)
        ]
        col.record(
            _majority_z_amount([e.value for e in runs], [e.stderr for e in runs],
                               orders[i, n - 1]),
            lambda i=i: {"kind": "haarMC", "spectrum": lam[i].tolist()},
        )
    return col.verdict()


def check_pure_additivity(trials, seed):
    """Tensoring with a pure state must leave the interpolant unchanged.

    Also asserts entropy additivity (the alpha = 0 case) for mixed (x) mixed
    products, and returns alongside the verdict a small demonstration -
    not an assertion - that the subentropy is NOT additive for a generic
    mixed pair.
    """
    trials, seed = _check_trials_seed(trials, seed)
    rng = np.random.default_rng(seed)
    grid = ALPHA_GRID
    col = _Collector("pure-additivity")
    demo = None
    for i in range(trials):
        n1 = int(rng.integers(2, 5))
        s1 = _sample_spectra(rng, 1, n1, degenerate_rate=0.0)[0]
        if i % 20 == 19:  # keep an exact pair in the loop
            s1[:2] = s1[:2].mean()
            s1 = np.sort(s1 / s1.sum())[::-1]
        k = int(rng.integers(1, 4))
        pure = np.zeros(k)
        pure[0] = 1.0
        prod = tensor_spectrum(s1, pure)
        col.trial()
        base = np.array([binomial_weights(n1, a) for a in grid]) @ intermediate_entropies(s1)
        lifted = np.array(
            [binomial_weights(prod.dim, a) for a in grid]
        ) @ intermediate_entropies(prod)
        dev = np.abs(lifted - base)
        col.record(
            float(dev.max()) - ADDITIVITY_TOL,
            lambda s=s1, k=k, d=dev: {"kind": "pure-factor", "spectrum": s.tolist(),
                                      "pure_dim": k, "alpha": float(grid[int(np.argmax(d))])},
        )
        n2 = int(rng.integers(2, 5))
        s2 = _sample_spectra(rng, 1, n2, degenerate_rate=0.0)[0]
        prod2 = tensor_spectrum(s1, s2)
        gap = abs(von_neumann_entropy(prod2) - von_neumann_entropy(s1) - von_neumann_entropy(s2))
        col.record(
            gap - ENTROPY_ADDITIVITY_TOL,
            lambda a=s1, b=s2: {"kind": "entropy-additivity", "s1": a.tolist(), "s2": b.tolist()},
        )
        if demo is None:
            q_prod = float(intermediate_entropies(prod2)[-1])
            q_parts = (float(intermediate_entropies(s1)[-1]),
                       float(intermediate_entropies(s2)[-1]))
            demo = {
                "note": "subentropy is not additive for generic mixed pairs (reported, not asserted)",
                "s1": s1.tolist(),
                "s2": s2.tolist(),
                "subentropy_product": q_prod,
                "subentropy_sum_of_parts": q_parts[0] + q_parts[1],
                "gap": q_prod - (q_parts[0] + q_parts[1]),
            }
    return col.verdict(), demo


SUITE_NAMES = ("chain", "invariance", "coefficients", "concavity", "oracles", "additivity")


def run_suites(suites=None, n=4, trials=100, mc_samples=20000, seed=0):
    """Run named suites (default all) and aggregate an overall outcome.

    Returns (results, overall_passed) where results is a list of dicts
    {"verdict", "expect_failure", "demo"}.  overall_passed requires every
    ordinary verdict to pass AND the invariance negative control to fail.
    The chain suite clamps n to 12 and the oracle suite to 6 (their
    documented caps); per-stage seeds derive from the master seed.
    """
    if suites is None or suites == "all":
        names = SUITE_NAMES
    else:
        names = tuple(suites)
        unknown = set(names) - set(SUITE_NAMES)
        if unknown:
            raise InvalidIndexError(f"unknown suite(s): {sorted(unknown)}")
    n = _check_int(n, 2, 24, InvalidIndexError, "n for the verification runner")
    trials, seed = _check_trials_seed(trials, seed)
    stage_seeds = iter(
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(32)
    )
    results = []

    def add(verdict, expect_failure=False, demo=None):
        results.append({"verdict": verdict, "expect_failure": expect_failure, "demo": demo})

    for name in names:
        if name == "chain":
            add(check_inequality_chain(min(n, CHAIN_MAX_N), trials, next(stage_seeds)))
        elif name == "invariance":
            add(check_invariance(n, M_MAX, ALPHA_GRID, trials, next(stage_seeds)))
            add(check_invariance_control(trials, next(stage_seeds)), expect_failure=True)
        elif name == "coefficients":
            add(check_coefficient_recursion())
        elif name == "concavity":
            for r in range(1, n + 1):
                add(check_concavity(n, r, trials, next(stage_seeds)))
        elif name == "oracles":
            add(check_oracle_agreement(min(n, ORACLE_MAX_N), max(4, trials // 5),
                                       mc_samples, next(stage_seeds)))
        elif name == "additivity":
            verdict, demo = check_pure_additivity(trials, next(stage_seeds))
            add(verdict, demo=demo)
    overall = all(
        (not r["verdict"].passed) if r["expect_failure"] else r["verdict"].passed
        for r in results
    )
    return results, overall
