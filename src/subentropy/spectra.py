"""Density-matrix validation, eigendecomposition, and spectrum manipulation.

Everything downstream depends only on the eigenvalue spectrum, so this is
the single place where matrices are handled.  The eigensolver is a
self-contained cyclic Jacobi iteration for complex Hermitian matrices,
accurate and dependency-free for the small dimensions (n <= 64) this
package targets.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    EmptyMatrixError,
    InvalidIndexError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
    ValidationError,
    _check_int,
)

HERMITIAN_TOL = 1e-12     # absolute elementwise asymmetry
TRACE_TOL = 1e-10
PSD_CLAMP = -1e-10        # eigenvalues below this are a hard error
JACOBI_MAX_SWEEPS = 100
JACOBI_REL_OFF = 1e-14    # off-diagonal Frobenius target, relative


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Spectrum:
    """Probability spectrum: nonnegative reals summing to 1, sorted descending.

    Construction validates and canonicalizes the input: values in
    (PSD_CLAMP, 0) are clamped to 0, the sum must be within TRACE_TOL of 1,
    and the stored vector is renormalized to unit sum and sorted.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1:
            raise ValidationError(f"spectrum must be one-dimensional, got shape {v.shape}")
        if v.size == 0:
            raise EmptyMatrixError("spectrum has size zero")
        if not np.all(np.isfinite(v)):
            raise ValidationError("spectrum contains non-finite values")
        if v.min() < PSD_CLAMP:
            raise NotPSDError(f"spectrum value {v.min():.3e} below clamp {PSD_CLAMP:.0e}")
        total = v.sum()
        if abs(total - 1.0) > TRACE_TOL:
            raise TraceNotOneError(
                f"spectrum sums to {float(total)!r}, expected 1 within {TRACE_TOL:.0e}"
            )
        v = np.where(v < 0.0, 0.0, v)
        v = np.sort(v / v.sum())[::-1]
        object.__setattr__(self, "values", _readonly(v))

    @property
    def dim(self):
        return self.values.size


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix together with its spectrum."""

    matrix: np.ndarray
    spectrum: Spectrum

    @property
    def dim(self):
        return self.matrix.shape[0]


def as_spectrum(s):
    """Coerce array-like input to a validated Spectrum (pass-through if already one)."""
    if isinstance(s, Spectrum):
        return s
    if isinstance(s, DensityMatrix):
        return s.spectrum
    return Spectrum(s)


def _offdiag_norm(a):
    # Summed from the off-diagonal entries themselves: the shortcut
    # sqrt(|A|^2 - |diag A|^2) cancels to a rounding floor near sqrt(eps) |A|,
    # far above the JACOBI_REL_OFF target.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return np.linalg.norm(off)


def _jacobi_eigenvalues(matrix):
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps all off-diagonal pairs in row-major order with complex 2x2
    rotations until the off-diagonal Frobenius norm drops below
    JACOBI_REL_OFF times the matrix norm, at most JACOBI_MAX_SWEEPS sweeps.
    Returns the (unsorted) real diagonal.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    fro = np.linalg.norm(a)
    if fro == 0.0:
        return np.zeros(n)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        if _offdiag_norm(a) <= JACOBI_REL_OFF * fro:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise NoConvergenceError(
                f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                g = abs(apq)
                if g == 0.0:
                    continue
                phase = apq / g
                theta = (a[q, q].real - a[p, p].real) / (2.0 * g)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # A <- J^H A J with J = [[c, s*phase], [-s*conj(phase), c]]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    return np.diagonal(a).real.copy()


def validate_density_matrix(raw):
    """Validate a raw square matrix as a density matrix.

    Checks: nonempty and square; Hermitian within HERMITIAN_TOL (then
    symmetrized to (M + M^H)/2); trace 1 within TRACE_TOL; all eigenvalues
    >= PSD_CLAMP.  Returns a DensityMatrix carrying the clamped, unit-sum
    spectrum.
    """
    m = np.atleast_2d(np.asarray(raw, dtype=complex))
    if m.size == 0:
        raise EmptyMatrixError("matrix has size zero")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix contains non-finite entries")
    asym = np.max(np.abs(m - m.conj().T))
    if asym > HERMITIAN_TOL:
        raise NotHermitianError(
            f"matrix asymmetry {asym:.3e} exceeds tolerance {HERMITIAN_TOL:.0e}"
        )
    m = (m + m.conj().T) / 2.0
    tr = np.trace(m).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOneError(f"trace is {float(tr)!r}, expected 1 within {TRACE_TOL:.0e}")
    eig = _jacobi_eigenvalues(m)
    if eig.min() < PSD_CLAMP:
        raise NotPSDError(
            f"eigenvalue {eig.min():.3e} below clamp {PSD_CLAMP:.0e}; matrix is not PSD"
        )
    eig = np.clip(eig, 0.0, 1.0)
    return DensityMatrix(matrix=_readonly(m), spectrum=Spectrum(eig / eig.sum()))


def pad_with_zeros(s, m):
    """Append m zero eigenvalues to a spectrum."""
    s = as_spectrum(s)
    m = _check_int(m, 0, None, InvalidIndexError, "padding count")
    if m == 0:
        return s
    return Spectrum(np.concatenate([s.values, np.zeros(m)]))


def tensor_spectrum(a, b):
    """Spectrum of a tensor product: all pairwise eigenvalue products."""
    a = as_spectrum(a)
    b = as_spectrum(b)
    return Spectrum(np.outer(a.values, b.values).ravel())
