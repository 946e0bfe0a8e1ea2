"""High-precision reference values for the entropy family, in mpmath.

Shares no code with the package.  The order-r value of a spectrum l is

    value(r) = -1/C(n-1, r-1) * sum_j (l_j ln l_j) * e_{r-1}(y_j),
    y_j[k] = l_j / (l_j - l_k)  for k != j,

the elementary-symmetric form of the divided-difference average.  The
identity needs pairwise-distinct nodes, so exact repeats of a nonzero
value are split symmetrically by a relative SPLIT far below double eps;
each extra member of a cluster costs -log10(SPLIT) digits to cancellation,
which the working precision covers.  Zero entries contribute exactly 0
(their l ln l weight vanishes and every y_j[k] against them is 1).
"""

from collections import Counter
import contextlib
import math

import mpmath
from mpmath import mp

DPS = 250
SPLIT_DIGITS = 60


def _split(values):
    """Exact mpf copies of the spectrum with nonzero repeats split apart."""
    counts = Counter(float(v) for v in values)
    nodes = []
    for v, m in counts.items():
        if v == 0.0:
            nodes.extend([mpmath.mpf(0)] * m)
            continue
        base = mpmath.mpf(v)
        delta = mpmath.mpf(10) ** -SPLIT_DIGITS
        nodes.extend(base * (1 + (i - mpmath.mpf(m - 1) / 2) * delta) for i in range(m))
    return nodes


@contextlib.contextmanager
def _unit_nodes(values):
    """Enough precision for the largest cluster, and the split nodes rescaled to unit sum.

    The floats are taken exactly and rescaled in high precision, as the
    program renormalises a spectrum after validating it.
    """
    mult = max(Counter(float(v) for v in values if v != 0.0).values())
    with mp.workdps(max(DPS, SPLIT_DIGITS * mult + 60)):
        nodes = _split(values)
        total = sum(nodes)
        yield [x / total for x in nodes]


def orders(values):
    """All order values r = 1..n of a spectrum, as mpf (entry 0 is the entropy)."""
    n = len(values)
    with _unit_nodes(values) as nodes:
        acc = [mpmath.mpf(0)] * n
        for j, lj in enumerate(nodes):
            if lj == 0:
                continue
            weight = lj * mpmath.log(lj)
            coef = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
            deg = 0
            for k, lk in enumerate(nodes):
                if k == j:
                    continue
                y = lj / (lj - lk)
                deg += 1
                for m in range(deg, 0, -1):
                    coef[m] += y * coef[m - 1]
            for r in range(n):
                acc[r] += weight * coef[r]
        return [-acc[r] / mpmath.binomial(n - 1, r) for r in range(n)]


def interpolated(order_values, alpha):
    """Binomially weighted average of the order values at mixing parameter alpha."""
    n = len(order_values)
    with mp.workdps(DPS):
        a = mpmath.mpf(alpha)
        return mpmath.fsum(
            math.comb(n - 1, r) * a ** r * (1 - a) ** (n - 1 - r) * order_values[r]
            for r in range(n)
        )


def subentropy(values):
    """Order-n value (the subentropy) alone, in O(n^2): e_{n-1}(y_j) is a product."""
    with _unit_nodes(values) as nodes:
        acc = mpmath.mpf(0)
        for j, lj in enumerate(nodes):
            if lj == 0:
                continue
            term = lj * mpmath.log(lj)
            for k, lk in enumerate(nodes):
                if k != j:
                    term *= lj / (lj - lk)
            acc += term
        return -acc
