"""Seeded input generators for the four benchmark workloads.

Input i of a workload is a pure function of (workload, seed, i): every op
draws from its own PCG64 stream, so the inputs never depend on how many ops
a run manages to finish, and the same seed always gives the same inputs.
Each workload walks a fixed cycle of input kinds and sizes; only the values
drawn for each slot depend on the seed.  A fixed cycle keeps the mix of
cheap and expensive ops the same from seed to seed, which is what lets a
run's median and tail sit inside one op class instead of flipping between
two.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

_WORKLOAD_KEY = {"states": 1, "spectra": 2, "verify": 3, "cli": 4}

# The timed workloads hold only inputs on which the package, as first
# benchmarked, returns every value within tolerance: a run's failure count
# then cannot depend on how many ops it manages to finish.  The inputs it
# gets wrong are exercised by bench/defects.py, apart from the timing.
#
# n = 4 is the one dimension above 1 at which the hand-rolled Jacobi solver
# never stalled: at n = 2, 3 and 5..24 it raises NoConvergenceError on 5% to
# 20% of Wishart states, and at n = 24 some values also miss the tolerance.
STATE_DIM = 4

# Consecutive nonzero values of the generated spectra differ by at least
# this relative gap; closer pairs lose digits in the closed form.
SEPARATION = 0.05

# Twelve slots.  Four distinct-path spectra (separated up to n = 10, a 1e-12
# tail, a 2 x 2 exact-pair product) fill the bottom third of the cycle, and
# zero-padded spectra the rest: n = 6 with two zeros in the middle third, so
# the median op falls inside them, and n = 12 with four zeros, where the
# confluent path does the most work, in the top sixth, so p90 falls inside
# them.  The cheapest ops follow the host's speed phases least closely, so
# the median is kept off them.  Exact-pair products stop at 2 x 2 and near
# pairs are left out: at larger products and at relative gaps of 1e-7 and
# below some values miss the tolerance.
SPECTRA_CYCLE = (
    ("separated", (4,)), ("padded", (4, 2)), ("product", (2, 2)), ("padded", (8, 4)),
    ("padded", (4, 2)), ("tail", (8, 1e-12)), ("padded", (6, 3)), ("padded", (4, 2)),
    ("separated", (10,)), ("padded", (4, 2)), ("padded", (6, 3)), ("padded", (8, 4)),
)

# (command, format, state kind, n).  Contour is the route past the closed
# form's n = 24 cap; it stops at n = 48, where its error is still far below
# the tolerance (at n = 128 and 256 it is not).  The two surfaces, the
# slowest command, fill the top sixth of the cycle, so p90 falls inside them.
CLI_CYCLE = (
    ("compute", "json", "spectrum", 5),
    ("oracle_contour", "json", "spectrum", 32),
    ("compute_dm", "json", "density_matrix", STATE_DIM),
    ("surface", "csv", None, 3),
    ("compute", "csv", "spectrum", 8),
    ("oracle_contour", "json", "spectrum", 48),
    ("compute", "json", "spectrum", 10),
    ("compute_dm", "csv", "density_matrix", STATE_DIM),
    ("oracle_contour", "json", "spectrum", 40),
    ("surface", "csv", None, 3),
    ("compute", "csv", "spectrum", 3),
    ("oracle_contour", "json", "spectrum", 24),
)

# trials = 20 injects one exact repeat per suite; from trials = 40 on, the
# sampler also injects near pairs, and about a third of such passes fail.
VERIFY_PASS = {"n": 4, "trials": 20}
# The oracle suite accepts a Monte Carlo estimate within 3 standard errors
# (majority of three runs); at 2000 samples about one pass in 700 fails it by
# chance.  So a timed pass runs the other five suites, and the simplex and
# Haar oracles run beside them on VERIFY_ORACLE_SPECTRA spectra of the same
# n, every order, VERIFY_ORACLE_SAMPLES samples per estimate, each estimate
# checked against the reference (workloads.MC_Z).
VERIFY_SUITES = ("chain", "invariance", "coefficients", "concavity", "additivity")
VERIFY_ORACLE_SPECTRA = 4
VERIFY_ORACLE_SAMPLES = 6000
SURFACE_RESOLUTION = 200
ALPHA_GRID = tuple(round(0.1 * k, 12) for k in range(11))

NEAR_GAP = 1e-6      # relative gap below which two distinct values count as near-degenerate
WIDE_DECADES = 6     # max / min nonzero above 10**WIDE_DECADES counts as wide-range


@dataclass
class Input:
    """One op's input: the spectrum the reference is computed from, plus extras."""

    kind: str
    values: np.ndarray                      # descending, sums to 1
    matrix: np.ndarray = None               # density matrix built from values
    params: dict = field(default_factory=dict)

    @property
    def n(self):
        return int(self.values.size)


def _rng(workload, seed, index):
    return np.random.default_rng([_WORKLOAD_KEY[workload], seed % 2 ** 63, index])


def _normalise(v):
    v = np.sort(np.asarray(v, float))[::-1]
    return v / v.sum()


def _dirichlet(rng, n):
    return _normalise(rng.standard_exponential(n))


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _density_matrix(rng, lam):
    """U diag(lam) U^H for a Haar-random U, symmetrised to exact Hermiticity."""
    u = _haar_unitary(rng, lam.size)
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _separated(rng, n):
    """Dirichlet spectrum conditioned on relative gaps of at least SEPARATION."""
    while True:
        v = _dirichlet(rng, n)
        if np.all(v[1:] <= v[:-1] * (1.0 - SEPARATION)):
            return v


def _wishart_spectrum(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lam = np.clip(np.linalg.eigvalsh(g @ g.conj().T), 0.0, None)
    return _normalise(lam)


def roadmap_triple():
    """The near-triple repro listed in ROADMAP.md: an exact pair plus a node 1e-8 below."""
    v = np.sort(np.random.default_rng(5).dirichlet(np.ones(5)))[::-1]
    v[2] = v[1]
    v[3] = v[1] * (1 - 1e-8)
    return v / v.sum()


def wishart_state(rng, n):
    """Full-rank density matrix U diag(lam) U^H with a Wishart spectrum lam."""
    lam = _wishart_spectrum(rng, n)
    return Input("wishart", lam, matrix=_density_matrix(rng, lam))


def state(seed, index):
    """Density matrix for one `states` op."""
    return wishart_state(_rng("states", seed, index), STATE_DIM)


def spectrum_of(kind, args, rng):
    """One spectrum of the given kind; the bases of products, padded and tail
    spectra are separated, Dirichlet and near-degenerate ones are not."""
    if kind == "dirichlet":
        return _dirichlet(rng, args[0])
    if kind == "separated":
        return _separated(rng, args[0])
    if kind == "product":
        d, k = args
        return np.kron(_separated(rng, d), np.full(k, 1.0 / k))
    if kind == "padded":
        d, m = args
        return np.concatenate([_separated(rng, d), np.zeros(m)])
    if kind == "tail":
        n, smallest = args
        v = _separated(rng, n)
        v[-3:] = smallest * np.array([100.0, 10.0, 1.0])
        return _normalise(v)
    if kind == "roadmap_triple":
        return roadmap_triple()
    n, gap = args
    v = _dirichlet(rng, n)
    j = int(rng.integers(0, n - 2))
    if kind == "near_pair":
        v[j + 1] = v[j] * (1.0 - gap)
    else:  # near_triple: an exact pair plus a third node a relative gap below
        v[j + 1] = v[j]
        v[j + 2] = v[j] * (1.0 - gap)
    return _normalise(v)


def spectrum(seed, index):
    """Spectrum for one `spectra` op, with its order r and interpolant alpha.

    r is the middle order, where the confluent path enumerates the most
    node signatures; a random r would make the cost of a slot vary by seed.
    """
    rng = _rng("spectra", seed, index)
    kind, args = SPECTRA_CYCLE[index % len(SPECTRA_CYCLE)]
    v = spectrum_of(kind, args, rng)
    alpha = float(rng.uniform(0.0, 1.0))
    return Input(kind, v, params={"r": (v.size + 1) // 2, "alpha": alpha})


def verify_pass(seed, index):
    """One pass: run_suites' seed, and the spectra and seeds of the oracle calls."""
    rng = _rng("verify", seed, index)
    n = VERIFY_PASS["n"]
    return {**VERIFY_PASS, "suites": VERIFY_SUITES, "seed": int(rng.integers(0, 2 ** 32)),
            "spectra": [_dirichlet(rng, n) for _ in range(VERIFY_ORACLE_SPECTRA)],
            "oracle_seeds": [int(rng.integers(0, 2 ** 32)) for _ in range(VERIFY_ORACLE_SPECTRA)]}


def cli_op(seed, index):
    """One CLI invocation: the command, its output format and its input state."""
    rng = _rng("cli", seed, index)
    command, fmt, state_kind, n = CLI_CYCLE[index % len(CLI_CYCLE)]
    params = {"command": command, "format": fmt}
    if state_kind is None:
        return Input(command, np.full(3, 1.0 / 3.0), params=params)
    if state_kind == "density_matrix":
        inp = wishart_state(rng, n)
        return Input(command, inp.values, matrix=inp.matrix, params=params)
    # contour accepts any spectrum; compute gets separated ones
    make = _dirichlet if command == "oracle_contour" else _separated
    return Input(command, make(rng, n), params=params)


def properties(values):
    """Input properties an optimisation may depend on, for one spectrum."""
    v = np.asarray(values, float)
    nz = np.sort(v[v > 0.0])[::-1]
    exact = nz.size > np.unique(nz).size
    distinct = np.unique(nz)[::-1]
    rel_gaps = (distinct[:-1] - distinct[1:]) / distinct[:-1]
    return {
        "exact_degenerate": bool(exact),
        "near_degenerate": bool(rel_gaps.size and rel_gaps.min() < NEAR_GAP),
        "zero_padded": bool(nz.size < v.size),
        "wide_range": bool(nz.size and nz[0] / nz[-1] > 10.0 ** WIDE_DECADES),
    }


def describe(inp):
    """What a run keeps of an op's input once the op is checked: kind, n, properties."""
    if inp.kind == "surface":
        return inp.kind, inp.n, ()
    return inp.kind, inp.n, tuple(k for k, on in properties(inp.values).items() if on)


def summarise(attempts, calls_per_input):
    """Input properties over a run's attempted ops, given as (describe(input), failed)."""
    dims = Counter(n for (_, n, _), _ in attempts)
    props = Counter()
    by_kind = {}
    spectra_seen = 0
    for (kind, _, flags), failed in attempts:
        tally = by_kind.setdefault(kind, {"attempted": 0, "failed": 0})
        tally["attempted"] += 1
        tally["failed"] += failed
        if kind != "surface":
            spectra_seen += 1
            props.update(flags)
    share = {k: (props[k] / spectra_seen if spectra_seen else 0.0)
             for k in ("exact_degenerate", "near_degenerate", "zero_padded", "wide_range")}
    return {
        "dimension_histogram": {str(k): dims[k] for k in sorted(dims)},
        "shares": share,
        "calls_per_spectrum": calls_per_input,
        "by_kind": by_kind,
    }
