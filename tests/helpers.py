"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately naive - pure-Python subset enumeration,
product-form divided differences, Richardson extrapolation of split
spectra, an mpmath evaluation at high precision - so that agreement with
the library is meaningful.
"""

from collections import Counter
import itertools
import math

import numpy as np


def dirichlet_spectra(rng, count, n):
    """(count, n) flat-Dirichlet rows sorted descending."""
    e = rng.standard_exponential((count, n))
    return np.sort(e / e.sum(axis=1, keepdims=True), axis=1)[:, ::-1]


def well_separated_spectra(rng, count, n, min_gap=1e-3):
    """Dirichlet spectra whose consecutive gaps and smallest entry clear min_gap."""
    rows = []
    while len(rows) < count:
        s = dirichlet_spectra(rng, 1, n)[0]
        gaps = np.diff(s[::-1])
        if s[-1] >= min_gap and gaps.min() >= min_gap:
            rows.append(s)
    return np.array(rows)


def brute_order_value(values, r):
    """Order-r entropy by literal subset enumeration.

    Sums the plain (distinct-node) divided difference of x^r ln x over all
    r-element subsets and normalizes by -1/C(n-1, r-1).  Quadratic loss of
    precision for close nodes, so callers should feed well-separated
    spectra; a single zero entry is fine (its numerator term vanishes).
    """
    values = [float(v) for v in values]
    n = len(values)

    def g(x):
        return x ** r * math.log(x) if x > 0.0 else 0.0

    total = 0.0
    for subset in itertools.combinations(range(n), r):
        dd = 0.0
        for j in subset:
            denom = 1.0
            for k in subset:
                if k != j:
                    denom *= values[j] - values[k]
            dd += g(values[j]) / denom
        total += dd
    return -total / math.comb(n - 1, r - 1)


def brute_elementary_symmetric(values, r):
    return sum(math.prod(c) for c in itertools.combinations(values, r))


def _split_spectrum(values, eps):
    """Separate repeated entries with zero-sum symmetric offsets (even in eps)."""
    values = sorted(values, reverse=True)
    out = []
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        m = j - i
        v = values[i]
        for t in range(m):
            out.append(v + (2 * t - (m - 1)) * eps * max(v, 1e-3))
        i = j
    return sorted(out, reverse=True)


def richardson_order_value(values, r, eps=(0.04, 0.02, 0.01)):
    """Degenerate-spectrum limit of the distinct-node formula.

    Splits repeated eigenvalues symmetrically (error even in eps, so it
    expands in eps^2) and extrapolates to eps = 0 through three runs with a
    quadratic in eps^2.  The offsets look coarse, but going much finer is
    counterproductive: the distinct-node formula divides by products of
    gaps, so roundoff blows up as eps shrinks (7e-3 noise already at
    eps = 1e-5 for a 4-fold eigenvalue) while the extrapolation residual
    at these settings sits near 1e-10.
    """
    xs = [e * e for e in eps]
    ys = [brute_order_value(_split_spectrum(values, e), r) for e in eps]
    val = 0.0
    for k in range(3):
        w = 1.0
        for j in range(3):
            if j != k:
                w *= xs[j] / (xs[j] - xs[k])
        val += ys[k] * w
    return val


def shannon(p):
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


SPLIT_DIGITS = 40


def mp_orders(values):
    """All order values r = 1..n of a spectrum in mpmath, rounded to floats.

    Uses value(r) = -1/C(n-1, r-1) * sum_j (l_j ln l_j) e_{r-1}(y_j) with
    y_j[k] = l_j / (l_j - l_k).  The identity needs distinct nodes, so exact
    repeats of a nonzero value are split by a relative 10**-SPLIT_DIGITS;
    each extra member of a cluster costs SPLIT_DIGITS digits, which the
    working precision covers.  Zeros contribute nothing.
    """
    import mpmath

    counts = Counter(float(v) for v in values)
    mult = max([m for v, m in counts.items() if v > 0.0])
    with mpmath.workdps(100 + SPLIT_DIGITS * mult):
        eps = mpmath.mpf(10) ** -SPLIT_DIGITS
        nodes = [mpmath.mpf(v) * (1 + k * eps) for v, m in counts.items() for k in range(m)]
        nodes = [x / mpmath.fsum(nodes) for x in nodes]
        n = len(nodes)
        acc = [mpmath.mpf(0)] * n
        for j, lj in enumerate(nodes):
            if lj == 0:
                continue
            coef = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
            for deg, lk in enumerate(nodes[:j] + nodes[j + 1:], start=1):
                y = lj / (lj - lk)
                for m in range(deg, 0, -1):
                    coef[m] += y * coef[m - 1]
            for r in range(n):
                acc[r] += lj * mpmath.log(lj) * coef[r]
        return np.array([float(-acc[r] / mpmath.binomial(n - 1, r)) for r in range(n)])
