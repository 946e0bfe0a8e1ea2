"""Evaluation of the entropy family of a spectrum, at any dimension.

For a spectrum of dimension n the family assigns one value per order
r = 1..n: order 1 is the von Neumann entropy, order n the subentropy, and
the orders in between interpolate monotonically.  The order-r value is an
average of Newton divided differences of g_r(x) = x**r * ln(x) over all
r-element sub-multisets of the spectrum:

    value(r) = -1/C(n-1, r-1) * sum over r-subsets of ddiff(g_r; subset)

Repeated eigenvalues are exact limits, never perturbed.  _orders_matrix() is
the one engine: every public function here, the suites and the CLI reach the
numbers through it.  It has two kernels, chosen per row by gap structure
alone: an elementary-symmetric closed form for well-separated rows, and a
real-axis trapezoid quadrature, accurate to about 1e-13 for any spectrum,
for the rest.  divided_difference() stays as an independent oracle.
"""

from dataclasses import dataclass
import math

import numpy as np

from .coefficients import _comb0, binomial_weights
from .errors import InvalidIndexError, InvalidRError, SubentropyError, _check_int
from .spectra import as_spectrum

# A row takes the closed form when its consecutive relative gaps multiply to
# at least this; there its error against an mpmath reference stays below
# 1e-13 (6e-14 worst, at n = 2 and 3), while n = 4 rows with gaps near 1e-2
# already lose 3e-11.
CLOSED_FORM_GAP_PRODUCT = 1e-3
QUAD_STEP = 0.25    # trapezoid step in u = ln t; the error grows again from 0.4
QUAD_REACH = 37.0   # e^-37 ~ 1e-16 bounds the truncation at each end


def _xlnx(v):
    v = np.asarray(v, float)
    out = np.zeros_like(v)
    nz = v > 0.0
    out[nz] = v[nz] * np.log(v[nz])
    return out


def von_neumann_entropy(s):
    """Entropy -sum(v * ln v) of a spectrum, in nats, with 0*ln 0 = 0."""
    s = as_spectrum(s)
    return float(-np.sum(_xlnx(s.values)) + 0.0)


def _derivative_constants(r, k_max):
    """Constants c_k with d^k/dx^k (x^r ln x) = perm(r,k) x^(r-k) ln x + c_k x^(r-k).

    Differentiating once more gives c_{k+1} = (r-k)*c_k + perm(r, k), c_0 = 0;
    math.perm(r, k) is 0 for k > r, so the same closed shape covers every
    order (for k > r the ln-term coefficient vanishes and x^(r-k) is a
    genuine negative power).
    """
    c = [0.0] * (k_max + 1)
    for k in range(1, k_max + 1):
        c[k] = (r - k + 1) * c[k - 1] + math.perm(r, k - 1)
    return c


def _g_taylor(r, x, k_max):
    """Derivatives g_r^(k)(x)/k! of g_r(x) = x^r ln x for k = 0..k_max.

    At x = 0 every order k <= r-1 has limit 0; higher orders diverge there
    and must not be requested.
    """
    if x == 0.0:
        if k_max > r - 1:
            raise InvalidRError(
                f"a zero node of multiplicity {k_max + 1} exceeds order r = {r}; "
                "the divided difference has no finite limit"
            )
        return [0.0] * (k_max + 1)
    lx = math.log(x)
    c = _derivative_constants(r, k_max)
    return [
        (math.perm(r, k) * lx + c[k]) * x ** (r - k) / math.factorial(k)
        for k in range(k_max + 1)
    ]


def divided_difference(r, nodes):
    """Newton divided difference of g_r(x) = x**r * ln(x) over the given nodes.

    Parameters
    ----------
    r : int
        Power in g_r; r >= 1.
    nodes : array_like
        Node values, >= 0, in any order.  Exactly equal nodes are treated
        confluently (the table entry becomes a scaled derivative of g_r);
        nodes at 0 use the limiting value 0 for all orders up to r - 1.

    Returns
    -------
    float
    """
    r = _check_int(r, 1, None, InvalidRError, "r")
    z = np.sort(np.asarray(nodes, float))[::-1]
    if z.size == 0:
        raise InvalidIndexError("divided difference needs at least one node")
    if z[-1] < 0.0:
        raise InvalidIndexError(f"nodes must be nonnegative, got {float(z[-1])!r}")
    values, counts = np.unique(z, return_counts=True)
    taylor = {v: _g_taylor(r, float(v), int(c) - 1) for v, c in zip(values, counts)}
    src = z.tolist()
    f = [taylor[v][0] for v in src]
    L = len(src)
    for level in range(1, L):
        f = [
            taylor[src[p]][level]
            if src[p] == src[p + level]
            else (f[p + 1] - f[p]) / (src[p + level] - src[p])
            for p in range(L - level)
        ]
    return float(f[0])


def _distinct_orders_batch(lams):
    """All order-r values for rows of pairwise-distinct eigenvalues.

    lams: (B, n) array, each row sorted descending with pairwise-distinct
    entries and at most one zero.  Returns (B, n); column r-1 holds the
    order-r value.  Uses the identity

        value(r) = -1/C(n-1, r-1) * sum_j (l_j ln l_j) * e_{r-1}(y_j)

    with y_j[k] = l_j / (l_j - l_k) for k != j, all elementary symmetric
    polynomials expanded in one O(n^2) pass per row.
    """
    lams = np.asarray(lams, float)
    B, n = lams.shape
    if n == 1:
        return np.zeros((B, 1))
    diff = lams[:, :, None] - lams[:, None, :]
    np.einsum("bjj->bj", diff)[...] = 1.0
    y = lams[:, :, None] / diff
    np.einsum("bjj->bj", y)[...] = 0.0
    coef = np.zeros((B, n, n))
    coef[:, :, 0] = 1.0
    for k in range(n):
        m = min(k + 1, n - 1)
        coef[:, :, 1:m + 1] = coef[:, :, 1:m + 1] + y[:, :, k:k + 1] * coef[:, :, 0:m]
    sums = np.einsum("bj,bjr->br", _xlnx(lams), coef)
    denom = np.array([math.comb(n - 1, k) for k in range(n)], float)
    return -sums / denom


def _quadrature_orders(lams):
    """All order-r values for a (B, n) stack of spectra, by quadrature on t > 0.

    With g_j = l_j/(t+l_j), f_j = 1 - g_j and e_r the elementary symmetric
    polynomial,

        value(r) = -integral_0^inf [1/(1+t) - (n/r)(1 - e_r(f)/C(n, r))] dt.

    The trapezoid rule in u = ln t converges geometrically here (Trefethen &
    Weideman, SIAM Rev. 56, 2014); it runs with step QUAD_STEP from
    ln(smallest positive value in the batch) - QUAD_REACH to QUAD_REACH.
    Over the first j values, eta_r = (j/r)(1 - e_r(f)/C(j, r)) obeys

        eta_r <- ((j-r) eta_r + (r-1) f_j eta_{r-1}) / (j-1) + g_j,

    a positive recursion without binomials, finite at any n.  Rows are
    sorted descending and taken smallest value first, so zeros (g = 0,
    f = 1) leave eta at exactly 0 and a pure state gives exactly 0.
    """
    lams = np.asarray(lams, float)
    b, n = lams.shape
    # values below 1e-300 add less than that; the floor keeps every t > 0
    lo = math.log(max(lams[lams > 0.0].min(), 1e-300)) - QUAD_REACH
    t = np.exp(np.arange(lo, QUAD_REACH + QUAD_STEP / 2, QUAD_STEP))
    g = lams[:, :, None] / (t + lams[:, :, None])
    eta = np.zeros((b, n + 1, t.size))  # eta[:, r] is eta_r; eta_0 stays 0
    r = np.arange(1, n + 1)[:, None]
    for j in range(1, n + 1):
        gj = g[:, n - j, None]
        keep, mix = (j - r[:j]) / max(j - 1, 1), (r[:j] - 1) / max(j - 1, 1)
        eta[:, 1:j + 1] = keep * eta[:, 1:j + 1] + mix * (1.0 - gj) * eta[:, :j] + gj
    return -QUAD_STEP * np.sum(t * (1.0 / (1.0 + t) - eta[:, 1:]), axis=2)


def _orders_matrix(lams):
    """Order-value rows for a (B, n) stack of spectra; column r-1 holds order r.

    Each row is sorted descending.  A row whose relative gaps
    (l_i - l_{i+1})/l_i multiply to at least CLOSED_FORM_GAP_PRODUCT takes
    _distinct_orders_batch; every other row takes _quadrature_orders.  Two
    zeros make a zero gap, so the closed form never sees more than one.
    """
    lams = np.sort(np.asarray(lams, float), axis=1)[:, ::-1]
    gaps = (lams[:, :-1] - lams[:, 1:]) / np.maximum(lams[:, :-1], 1e-300)
    closed = gaps.prod(axis=1) >= CLOSED_FORM_GAP_PRODUCT
    out = np.empty(lams.shape)
    for rows, kernel in ((closed, _distinct_orders_batch), (~closed, _quadrature_orders)):
        if rows.any():
            out[rows] = kernel(lams[rows])
    return out


def intermediate_entropies(s):
    """Vector of all order-r entropies, r = 1..n.

    Entry 0 is the von Neumann entropy, entry n-1 the subentropy.
    """
    s = as_spectrum(s)
    return _orders_matrix(s.values[None])[0]


def intermediate_entropy(s, r):
    """Order-r member of the family (r = 1 entropy, r = n subentropy)."""
    s = as_spectrum(s)
    r = _check_int(r, 1, s.dim, InvalidRError, "order r")
    return float(_orders_matrix(s.values[None])[0, r - 1])


def subentropy(s):
    """Subentropy of a spectrum, in nats.

    The order-n member of the family, evaluated through the same engine as
    intermediate_entropies so the r = n boundary identity is exact.  Any
    dimension is accepted.  Against a 250-digit reference the error stays
    below 1e-13 on flat Dirichlet spectra up to n = 64, exact and near
    clusters, zeros and 1e-12 tails, and below 5e-13 on the uniform
    spectrum up to n = 1024.
    """
    return float(intermediate_entropies(s)[-1] + 0.0)


def max_intermediate_entropy(n, r):
    """Largest possible order-r value at dimension n: ln n - (1/2 + ... + 1/r).

    Attained by the uniform spectrum; the r = 1 case is the entropy maximum
    ln n (the harmonic sum is empty).
    """
    n = _check_int(n, 1, None, InvalidIndexError, "n")
    r = _check_int(r, 1, n, InvalidRError, "order r")
    return math.log(n) - math.fsum(1.0 / k for k in range(2, r + 1))


def pad_intermediate_entropies(order_values, m):
    """Order values of a zero-padded spectrum from those of the original.

    Given the length-n vector of order-r values of some spectrum, returns
    the length-(n+m) vector for the same spectrum with m zero eigenvalues
    appended:

        out[r] = 1/C(n+m-1, r-1) * sum_s C(n-1, r-1-s) C(m, s) in[r-s]

    with out-of-range terms dropped by vanishing binomials.
    """
    vals = np.atleast_1d(np.asarray(order_values, float))
    if vals.ndim != 1 or vals.size == 0:
        raise InvalidIndexError("order_values must be a nonempty vector")
    m = _check_int(m, 0, None, InvalidIndexError, "padding count")
    n = vals.size
    out = np.empty(n + m)
    for r in range(1, n + m + 1):
        tot = 0.0
        for t in range(1, r + 1):  # t = r - s, index into the input vector
            if t <= n:
                tot += _comb0(n - 1, t - 1) * _comb0(m, r - t) * vals[t - 1]
        out[r - 1] = tot / math.comb(n + m - 1, r - 1)
    return out


def interpolated_entropy(s, alpha):
    """Binomially weighted average of the order-r entropies.

    alpha = 0 gives the entropy, alpha = 1 the subentropy; the value is
    nonincreasing in alpha and invariant under appending zero eigenvalues.
    """
    s = as_spectrum(s)
    weights = binomial_weights(s.dim, alpha)
    return float(weights @ intermediate_entropies(s))


@dataclass(frozen=True)
class EntropyReport:
    """Complete summary of the family for one spectrum.

    intermediate[r-1] is the order-r value; alpha_samples is a tuple of
    (alpha, value) pairs or None.
    """

    n: int
    entropy: float
    subentropy: float
    intermediate: np.ndarray
    alpha_samples: tuple


def entropy_report(s, alpha_grid=None):
    """Evaluate the whole family, cross-checking internal consistency.

    The entropy is recomputed through the direct sum (independent of the
    divided-difference engine) and must match the order-1 value within
    1e-10; the order vector must be nonincreasing within 1e-10 and every
    entry must lie in [0, ln n] up to 1e-12.  Any violation raises
    SubentropyError.
    """
    s = as_spectrum(s)
    n = s.dim
    orders = intermediate_entropies(s)
    ent = von_neumann_entropy(s)
    sub = float(orders[-1] + 0.0)
    if abs(orders[0] - ent) > 1e-10:
        raise SubentropyError("internal consistency: order vector endpoints drifted")
    if np.any(np.diff(orders) > 1e-10):
        raise SubentropyError("internal consistency: order vector not nonincreasing")
    if orders.min() < -1e-12 or orders.max() > math.log(n) + 1e-12:
        raise SubentropyError("internal consistency: order value outside [0, ln n]")
    samples = None
    if alpha_grid is not None:
        grid = [float(a) for a in alpha_grid]
        rows = np.array([binomial_weights(n, a) for a in grid])
        samples = tuple(zip(grid, (rows @ orders).tolist()))
    orders = orders.copy()
    orders.flags.writeable = False
    return EntropyReport(
        n=n,
        entropy=ent,
        subentropy=sub,
        intermediate=orders,
        alpha_samples=samples,
    )
