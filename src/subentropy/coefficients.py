"""Weight systems used to combine the order-r entropies.

A row of weights b_1..b_n turns the vector of order-r entropies of an
n-dimensional spectrum into a single scalar.  The combination is invariant
under appending zero eigenvalues exactly when consecutive rows satisfy the
recursion

    (n - r + 1) * b[n+1][r] + r * b[n+1][r+1] = n * b[n][r].

Two solution families are provided: a one-parameter binomial family (floats)
and the restricted family pinned to a single order at a top dimension
(exact rationals).
"""

from fractions import Fraction
import math

import numpy as np

from .errors import AlphaOutOfRangeError, InvalidIndexError, _check_int


def _comb0(n, k):
    """Binomial coefficient that is 0 outside 0 <= k <= n."""
    if 0 <= k <= n:
        return math.comb(n, k)
    return 0


def binomial_weights(n, alpha):
    """Binomial weight row b_r = C(n-1, r-1) * alpha**(r-1) * (1-alpha)**(n-r).

    Parameters
    ----------
    n : int
        Row dimension, n >= 1.
    alpha : float
        Mixing parameter in [0, 1].  alpha = 0 puts all weight on r = 1
        (entropy); alpha = 1 puts all weight on r = n (subentropy).

    Returns
    -------
    numpy.ndarray
        Length-n float vector, nonnegative, summing to 1 within 1e-12.
    """
    n = _check_int(n, 1, None, InvalidIndexError, "n")
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in [0, 1], got {alpha!r}")
    r = np.arange(1, n + 1)
    combs = np.array([math.comb(n - 1, k) for k in range(n)], dtype=float)
    # 0.0 ** 0 == 1.0, so the alpha = 0 and alpha = 1 endpoints are exact.
    return combs * alpha ** (r - 1) * (1.0 - alpha) ** (n - r)


def restricted_weights(N, r_hat, n):
    """Exact weight row pinned to the single order r_hat at dimension N.

    b_r = C(n-1, r-1) * C(N-n, r_hat-r) / C(N-1, r_hat-1), zero where a
    binomial vanishes.  At n = N the row is the indicator of r = r_hat.

    Returns a length-n tuple of ``fractions.Fraction`` so that recursion and
    normalization checks can be exact.
    """
    N = _check_int(N, 1, None, InvalidIndexError, "N")
    r_hat = _check_int(r_hat, 1, N, InvalidIndexError, "r_hat")
    n = _check_int(n, 1, N, InvalidIndexError, "n")
    denom = math.comb(N - 1, r_hat - 1)
    return tuple(
        Fraction(_comb0(n - 1, r - 1) * _comb0(N - n, r_hat - r), denom)
        for r in range(1, n + 1)
    )
