import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from subentropy import (
    EmptyMatrixError,
    InvalidIndexError,
    NotHermitianError,
    NotPSDError,
    Spectrum,
    TraceNotOneError,
    ValidationError,
    as_spectrum,
    haar_random_unitaries,
    intermediate_entropies,
    pad_with_zeros,
    tensor_spectrum,
    validate_density_matrix,
)
from subentropy.entropy import CLOSED_FORM_GAP_PRODUCT, _distinct_orders_batch


class TestSpectrum:
    def test_sorts_descending(self):
        s = Spectrum([0.1, 0.4, 0.3, 0.2])
        assert np.all(np.diff(s.values) <= 0)
        assert s.dim == 4

    def test_renormalizes_within_tolerance(self):
        v = np.array([0.5, 0.3, 0.2]) * (1 + 5e-11)
        s = Spectrum(v)
        assert abs(s.values.sum() - 1.0) < 1e-15

    def test_clamps_small_negatives(self):
        s = Spectrum([1.0 + 5e-11, -5e-11])
        assert s.values[-1] == 0.0
        assert s.values.min() >= 0.0

    def test_values_read_only(self):
        s = Spectrum([0.6, 0.4])
        with pytest.raises((ValueError, RuntimeError)):
            s.values[0] = 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrixError):
            Spectrum([])

    def test_bad_sum_rejected(self):
        with pytest.raises(TraceNotOneError):
            Spectrum([0.5, 0.2])

    def test_large_negative_rejected(self):
        with pytest.raises(NotPSDError):
            Spectrum([1.0 + 1e-3, -1e-3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            Spectrum([np.nan, 1.0])

    def test_matrix_shaped_input_rejected(self):
        with pytest.raises(ValidationError):
            Spectrum([[0.5, 0.5]])

    def test_as_spectrum_passthrough_and_coercion(self):
        s = Spectrum([0.6, 0.4])
        assert as_spectrum(s) is s
        assert as_spectrum([0.4, 0.6]).values[0] == 0.6

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10))
    def test_invariants_hold_for_random_input(self, raw):
        v = np.array(raw) / np.sum(raw)
        s = Spectrum(v)
        assert s.values.min() >= 0.0
        assert abs(s.values.sum() - 1.0) < 1e-12
        assert np.all(np.diff(s.values) <= 0.0)


class TestDensityMatrixValidation:
    def test_known_real_matrix(self):
        dm = validate_density_matrix(np.array([[0.5, 0.2], [0.2, 0.5]]))
        assert np.allclose(dm.spectrum.values, [0.7, 0.3], atol=1e-14)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues (1 +- sqrt(1.04))/2, one clearly negative
        with pytest.raises(NotPSDError):
            validate_density_matrix(np.array([[0.6, 0.5], [0.5, 0.4]]))

    def test_asymmetry_above_tolerance_rejected(self):
        m = np.array([[0.5, 0.2 + 1e-9], [0.2, 0.5]])
        with pytest.raises(NotHermitianError):
            validate_density_matrix(m)

    def test_asymmetry_below_tolerance_symmetrized(self):
        m = np.array([[0.5, 0.2 + 1e-13], [0.2, 0.5]])
        dm = validate_density_matrix(m)
        assert np.allclose(dm.spectrum.values, [0.7, 0.3], atol=1e-10)

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOneError):
            validate_density_matrix(np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrixError):
            validate_density_matrix(np.zeros((0, 0)))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            validate_density_matrix(np.ones((2, 3)) / 6)

    def test_matches_lapack_on_random_states(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5, 8, 12):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            got = validate_density_matrix(rho).spectrum.values
            want = np.sort(np.linalg.eigvalsh(rho))[::-1]
            want = np.clip(want, 0.0, None)
            assert np.allclose(got, want / want.sum(), atol=1e-12)

    def test_real_symmetric_states(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 9):
            a = rng.standard_normal((n, n))
            rho = a @ a.T
            rho /= np.trace(rho)
            got = validate_density_matrix(rho).spectrum.values
            want = np.sort(np.linalg.eigvalsh(rho))[::-1]
            assert np.allclose(got, want, atol=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        rho = np.diag(p).astype(complex)
        (u,) = haar_random_unitaries(4, 1, 11)
        rotated = u @ rho @ u.conj().T
        got = validate_density_matrix(rotated).spectrum.values
        assert np.allclose(got, p, atol=1e-12)

    @pytest.mark.parametrize("n, seed", [(3, 29), (6, 17), (12, 3), (24, 1), (32, 1)])
    def test_wishart_states_that_used_to_stall(self, n, seed):
        # the off-diagonal norm once came from sqrt(|A|^2 - |diag A|^2), whose
        # rounding floor near 1e-8 sits far above the convergence target:
        # these states raised NoConvergenceError after overflow warnings
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = validate_density_matrix(rho).spectrum.values
        want = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.abs(got - want).max() < 1e-14

    def test_slightly_negative_eigenvalue_clamped(self):
        (u,) = haar_random_unitaries(2, 1, 3)
        eps = 5e-11
        rho = u @ np.diag([1.0 + eps, -eps]) @ u.conj().T
        dm = validate_density_matrix(rho)
        assert dm.spectrum.values.min() >= 0.0
        assert abs(dm.spectrum.values.sum() - 1.0) < 1e-14


class TestCluster:
    """Clustered spectra need no merging: the order values of nearly equal
    eigenvalues come out within 1e-13 of their merged limit."""

    def test_distinct_unchanged(self):
        s = [0.5, 0.3, 0.2]
        want = [helpers.brute_order_value(s, r) for r in (1, 2, 3)]
        assert np.abs(intermediate_entropies(s) - want).max() < 1e-14

    def test_sub_tolerance_gap_merges_to_mean(self):
        a, b = 0.5, 0.5 * (1 - 1e-10)
        rest = 1.0 - a - b
        merged = intermediate_entropies([(a + b) / 2, (a + b) / 2, rest])
        assert np.abs(intermediate_entropies([a, b, rest]) - merged).max() < 1e-13

    def test_gap_above_tolerance_stays_separate(self):
        a, b = 0.5, 0.5 * (1 - 1e-6)
        s = [a, b, 1.0 - a - b]
        assert np.abs(intermediate_entropies(s) - helpers.mp_orders(s)).max() < 1e-13

    def test_tiny_values_merge_into_exact_zero(self):
        tiny = intermediate_entropies([0.6, 0.4 - 2e-15, 1e-15, 1e-15])
        assert np.abs(tiny - intermediate_entropies([0.6, 0.4, 0.0, 0.0])).max() < 1e-13

    def test_chained_merge_uses_run_mean(self):
        base = 0.3
        vals = [base * (1 + 4e-10), base, base * (1 - 4e-10)]
        spread = intermediate_entropies(vals + [1.0 - sum(vals)])
        exact = intermediate_entropies([base] * 3 + [1.0 - 3 * base])
        assert np.abs(spread - exact).max() < 1e-13


class TestPadAndTensor:
    def test_pad_appends_zeros(self):
        p = pad_with_zeros([0.7, 0.3], 2)
        assert p.dim == 4
        assert np.allclose(p.values, [0.7, 0.3, 0.0, 0.0])

    def test_pad_zero_is_identity(self):
        s = Spectrum([0.7, 0.3])
        assert pad_with_zeros(s, 0) is s

    def test_pad_rejects_negative(self):
        # the same type as pad_intermediate_entropies raises for a bad count
        for m in (-1, 1.5, True):
            with pytest.raises(InvalidIndexError):
                pad_with_zeros([0.7, 0.3], m)

    def test_tensor_known_product(self):
        t = tensor_spectrum([0.7, 0.3], [0.6, 0.4])
        assert np.allclose(t.values, [0.42, 0.28, 0.18, 0.12], atol=1e-15)

    def test_tensor_with_pure_appends_zeros(self):
        t = tensor_spectrum([0.7, 0.3], [1.0])
        assert np.allclose(t.values, [0.7, 0.3])

    def test_tensor_sum_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(4))
        t = tensor_spectrum(a, b)
        assert t.dim == 12
        assert abs(t.values.sum() - 1.0) < 1e-12


def test_cluster_tolerance_constant_is_strict_enough():
    # rows whose relative gaps multiply to just CLOSED_FORM_GAP_PRODUCT
    # still get the closed form within 1e-13
    for n in (2, 3, 4, 8):
        gap = CLOSED_FORM_GAP_PRODUCT ** (1.0 / (n - 1))
        v = (1.0 - gap) ** np.arange(n)
        v /= v.sum()
        got = _distinct_orders_batch(v[None])[0]
        assert np.abs(got - helpers.mp_orders(v)).max() < 1e-13, n
