"""Independent numerical routes to the entropy family.

Three evaluations that share no code with the engine in entropy.py:

* contour quadrature of the defining integral (deterministic, exponentially
  convergent in node count; at the default 512 nodes within about 1e-12 of
  a high-precision reference up to n = 64, and losing digits beyond it:
  errors up to 6e-9 at n = 128 and 3e-5 at n = 256),
* Monte Carlo integration of the simplex-face representation, each face an
  r-subset drawn by a per-sample random permutation,
* Monte Carlo average of measurement information over Haar-random bases
  (converges to the subentropy), the bases orthonormalized from complex
  Ginibre draws by batched Gram-Schmidt.

Randomness comes from numpy's PCG64 generator.  A seed is None (fresh
entropy) or an integer >= 0, and haar_random_unitaries also takes a numpy
Generator; a fixed seed, together with the fixed internal chunk size,
reproduces every estimate bit for bit.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    DegenerateContourError,
    InvalidIndexError,
    InvalidRError,
    TooFewSamplesError,
    _check_int,
)
from .spectra import as_spectrum

MIN_SAMPLES = 100
# Clearance of the contour from the origin: its leftmost point sits at this
# factor times the smallest nonzero eigenvalue, its rightmost point at the
# largest eigenvalue divided by it.
CONTOUR_MARGIN = 0.5
_CHUNK = 20000  # fixed so the random stream layout never depends on `samples`
_TINY = np.finfo(float).tiny


def _xlnx(v):
    """Elementwise v ln v for v >= 0, with 0 ln 0 = 0."""
    return v * np.log(np.maximum(v, _TINY))


@dataclass(frozen=True)
class OracleEstimate:
    """Numerical estimate with uncertainty (stderr = 0 for quadrature)."""

    value: float
    stderr: float
    samples: int
    method: str


@dataclass(frozen=True)
class ContourConfig:
    """Quadrature contour parameters: nodes is the trapezoid node count."""

    nodes: int = 512

    def __post_init__(self):
        _check_int(self.nodes, 4, None, InvalidIndexError, "contour nodes")


def _esp_coefficients(values):
    """Coefficients e_0..e_n of prod(1 + t*v) by O(n^2) expansion.

    values may be a vector or a stack of vectors; the expansion runs along
    the last axis and returns one extra trailing entry.
    """
    v = np.asarray(values)
    n = v.shape[-1]
    coef = np.zeros(v.shape[:-1] + (n + 1,), dtype=np.result_type(v.dtype, float))
    coef[..., 0] = 1.0
    for k in range(n):
        coef[..., 1:k + 2] = coef[..., 1:k + 2] + v[..., k:k + 1] * coef[..., 0:k + 1]
    return coef


def elementary_symmetric(values, r):
    """Elementary symmetric polynomial e_r of a vector of numbers.

    e_1 is the sum, e_n the product.  Complex input gives a complex result.
    """
    v = np.atleast_1d(np.asarray(values))
    if v.ndim != 1 or v.size == 0:
        raise InvalidIndexError("values must be a nonempty vector")
    r = _check_int(r, 0, v.size, InvalidIndexError, "r")
    out = _esp_coefficients(v)[r]
    return complex(out) if np.iscomplexobj(v) else float(out.real)


def _contour_points(values, cfg):
    """Quadrature points z_k and combined weights for (1/2pi i) * closed integral.

    The contour is traced in the logarithmic plane: an ellipse around the
    interval [ln(m*lmin), ln(lmax/m)] covering all nonzero eigenvalues,
    with its vertical half-axis capped below pi so the image z = exp(w)
    stays on the principal branch and no 2*pi*i-shifted pole copy is
    enclosed.  The image is a closed curve through m*lmin and lmax/m that
    winds once around every nonzero eigenvalue and excludes the origin.
    Trapezoid quadrature on it converges geometrically in the node count
    even for eigenvalues spread over many orders of magnitude, where a
    plain circle in the z plane would need the ratio lmax/lmin of nodes.

    Returns (z, W) with sum(W * lnz-free-integrand ... ) -- concretely,
    integral (1/2pi i) * contour_integral ln(z) F(z) dz ~= Re(sum_k W_k F(z_k)).
    """
    nonzero = values[values > 0.0]
    if nonzero.size == 0:
        raise DegenerateContourError("all eigenvalues are zero; nothing to enclose")
    w_lo = math.log(CONTOUR_MARGIN * float(nonzero.min()))
    w_hi = math.log(float(nonzero.max()) / CONTOUR_MARGIN)
    center = 0.5 * (w_lo + w_hi)
    half_width = 0.5 * (w_hi - w_lo)
    half_height = min(half_width, 0.9 * math.pi)
    theta = 2.0 * math.pi * np.arange(cfg.nodes) / cfg.nodes
    w = center + half_width * np.cos(theta) + 1j * half_height * np.sin(theta)
    z = np.exp(w)
    dw = -half_width * np.sin(theta) + 1j * half_height * np.cos(theta)
    # (1/2pi i) * integral ln(z) F(z) dz  ->  (1/(i N)) * sum w z w'(theta) F
    weights = w * z * dw / (1j * cfg.nodes)
    return z, weights


def contour_intermediate_entropy(s, r, config=None):
    """Order-r entropy by contour quadrature of the defining integral.

    The integrand is the r-th characteristic-polynomial coefficient of the
    resolvent factor, i.e. e_r of the eigenvalue factors z/(z - l_j).  Zero
    eigenvalues enter as factors exactly 1 (z/(z - 0)); they still count
    toward the order, so the result matches the engine including its
    dependence on padded dimensions.
    """
    s = as_spectrum(s)
    n = s.dim
    r = _check_int(r, 1, n, InvalidRError, "order r")
    cfg = config if config is not None else ContourConfig()
    z, weights = _contour_points(s.values, cfg)
    factors = z[:, None] / (z[:, None] - s.values[None, :])
    integrand = _esp_coefficients(factors)[:, r]
    value = -float(np.sum(weights * integrand).real) / math.comb(n - 1, r - 1)
    return OracleEstimate(value=value, stderr=0.0, samples=cfg.nodes, method="contour")


def contour_interpolated_entropy(s, alpha, config=None):
    """Interpolated entropy by contour quadrature, alpha in (0, 1].

    The integrand is the determinant-style product of
    (1 - alpha) + alpha * z/(z - l_j) over the eigenvalues, divided by
    alpha.  Zero eigenvalues contribute a factor of exactly 1.  The
    alpha = 0 limit is the entropy; callers wanting it should use
    contour_intermediate_entropy(s, 1) instead.
    """
    s = as_spectrum(s)
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise AlphaOutOfRangeError(
            f"alpha must lie in (0, 1], got {alpha!r}; "
            "the alpha = 0 limit is the order-1 contour"
        )
    cfg = config if config is not None else ContourConfig()
    z, weights = _contour_points(s.values, cfg)
    factors = (1.0 - alpha) + alpha * z[:, None] / (z[:, None] - s.values[None, :])
    integrand = np.prod(factors, axis=1)
    value = -float(np.sum(weights * integrand).real) / alpha
    return OracleEstimate(value=value, stderr=0.0, samples=cfg.nodes, method="contour")


def _rng(seed):
    """Generator for a seed: None (fresh entropy) or an integer >= 0."""
    if seed is not None:
        seed = _check_int(seed, 0, None, InvalidIndexError, "seed")
    return np.random.default_rng(seed)


def _random_faces(rng, n, r, count):
    """(count, r) uniformly random r-subsets of range(n): the first r entries
    of an independent random permutation per row."""
    return rng.permuted(np.broadcast_to(np.arange(n), (count, n)), axis=1)[:, :r]


def simplex_monte_carlo(s, r, samples, seed):
    """Order-r entropy by Monte Carlo over simplex faces.

    Each sample picks one of the C(n, r) faces uniformly (the first r
    entries of a uniformly random permutation of the coordinates), draws a
    flat-Dirichlet point x on that face (normalized exponentials), and
    evaluates

        f(x) = -(sum l_i x_i) ln(sum l_i x_i) + sum l_i x_i ln x_i

    over the selected eigenvalues; the estimate is n times the sample mean.
    Deterministic for a fixed seed (PCG64).
    """
    s = as_spectrum(s)
    n = s.dim
    r = _check_int(r, 1, n, InvalidRError, "order r")
    samples = _check_int(samples, MIN_SAMPLES, None, TooFewSamplesError, "samples")
    rng = _rng(seed)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        block = min(_CHUNK, samples - done)
        faces = _random_faces(rng, n, r, block)
        expo = rng.standard_exponential((block, r))
        x = expo / np.einsum("ij->i", expo)[:, None]
        lam = s.values[faces]
        f = np.einsum("ij,ij->i", lam, _xlnx(x)) - _xlnx(np.einsum("ij,ij->i", lam, x))
        vals[done:done + block] = n * f
        done += block
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return OracleEstimate(value=float(vals.mean()), stderr=stderr,
                          samples=samples, method="simplexMC")


def haar_random_unitaries(n, count, seed):
    """Stack of Haar-distributed n x n unitaries.

    The columns of each complex Ginibre matrix are orthonormalized by
    classical Gram-Schmidt with one re-orthogonalization pass (CGS2),
    vectorized across the stack.  Gram-Schmidt yields the QR factorization
    whose R has a positive real diagonal, which is unique, so the result is
    exactly Haar.  One pass alone loses orthogonality in proportion to the
    Ginibre matrix's condition number; the second restores it to rounding
    level.
    """
    n = _check_int(n, 1, None, InvalidIndexError, "n")
    count = _check_int(count, 0, None, InvalidIndexError, "count")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    # q[i, j, s] is row i, column j of sample s: the batch axis is innermost,
    # so every step below is an elementwise operation over the whole stack
    q = g.transpose(1, 2, 0).copy()
    for j in range(n):
        v = q[:, j, :]
        if j:
            prev = q[:, :j, :]
            for _ in range(2):
                v -= np.einsum("ijs,js->is", prev, np.einsum("ijs,is->js", prev.conj(), v))
        v /= np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=0))
    return q.transpose(2, 0, 1)


def haar_information_samples(s, samples, seed):
    """Per-basis measurement information for Haar-random orthonormal bases.

    The spectrum is prepared as its eigenensemble: basis state i with prior
    l_i.  For each Haar-random measurement basis the sample is the mutual
    information (nats) between preparation index and outcome,

        I = sum_{i,k} l_i B_ik ln(B_ik / p_k),   B_ik = |<e_k|i>|^2,

    which averages to the subentropy.  Every sample lies in [0, S].
    """
    s = as_spectrum(s)
    n = s.dim
    samples = _check_int(samples, MIN_SAMPLES, None, TooFewSamplesError, "samples")
    rng = _rng(seed)
    lam = s.values
    out = np.empty(samples)
    done = 0
    while done < samples:
        block = min(_CHUNK, samples - done)
        u = haar_random_unitaries(n, block, rng)
        b = u.real ** 2 + u.imag ** 2            # b[s, i, k] = |<e_k|i>|^2
        pk = np.einsum("i,sik->sk", lam, b)
        h_out_given = -np.einsum("i,sik->s", lam, _xlnx(b))
        h_out = -np.einsum("sk->s", _xlnx(pk))
        out[done:done + block] = h_out - h_out_given
        done += block
    return out


def haar_average_information(s, samples, seed):
    """Average measurement information over Haar-random bases.

    Converges to the subentropy of the spectrum.  The average is taken for
    the eigenensemble specifically; the underlying claim is
    ensemble-independent but only this case is exercised here.
    """
    vals = haar_information_samples(s, samples, seed)
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return OracleEstimate(value=float(vals.mean()), stderr=stderr,
                          samples=int(vals.size), method="haarMC")
