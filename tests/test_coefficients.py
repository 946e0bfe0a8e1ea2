from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentropy import (
    AlphaOutOfRangeError,
    InvalidIndexError,
    binomial_weights,
    restricted_weights,
)


class TestBinomialWeights:
    def test_row_is_probability_vector(self):
        for n in range(1, 13):
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                b = binomial_weights(n, alpha)
                assert b.shape == (n,)
                assert b.min() >= 0.0
                assert abs(b.sum() - 1.0) < 1e-12

    def test_endpoints_are_exact_indicators(self):
        for n in range(1, 10):
            b0 = binomial_weights(n, 0.0)
            b1 = binomial_weights(n, 1.0)
            assert b0[0] == 1.0 and np.all(b0[1:] == 0.0)
            assert b1[-1] == 1.0 and np.all(b1[:-1] == 0.0)

    def test_consecutive_dimension_recursion(self):
        # (n-r+1) b[n+1][r] + r b[n+1][r+1] = n b[n][r]
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            for n in range(1, 13):
                b = binomial_weights(n, alpha)
                bn = binomial_weights(n + 1, alpha)
                for r in range(1, n + 1):
                    lhs = (n - r + 1) * bn[r - 1] + r * bn[r]
                    assert lhs == pytest.approx(n * b[r - 1], abs=1e-12)

    def test_half_alpha_n2(self):
        assert np.allclose(binomial_weights(2, 0.5), [0.5, 0.5])

    def test_large_dimension_stable(self):
        b = binomial_weights(64, 0.5)
        assert np.isfinite(b).all()
        assert abs(b.sum() - 1.0) < 1e-12

    def test_alpha_out_of_range(self):
        for alpha in (-0.1, 1.1, np.nan):
            with pytest.raises(AlphaOutOfRangeError):
                binomial_weights(4, alpha)

    def test_bad_dimension(self):
        for n in (0, -2, 2.5):
            with pytest.raises(InvalidIndexError):
                binomial_weights(n, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.floats(0.0, 1.0))
    def test_random_rows_normalized(self, n, alpha):
        b = binomial_weights(n, alpha)
        assert b.min() >= 0.0
        assert abs(b.sum() - 1.0) < 1e-12


class TestRestrictedWeights:
    def test_row_sums_exactly_one(self):
        for big_n in (6, 9, 12):
            for r_hat in range(1, big_n + 1):
                for n in range(1, big_n + 1):
                    b = restricted_weights(big_n, r_hat, n)
                    assert len(b) == n
                    assert all(x >= 0 for x in b)
                    assert sum(b) == Fraction(1)

    def test_recursion_exact(self):
        for big_n, r_hat in ((6, 3), (12, 1), (12, 5), (12, 12)):
            for n in range(1, big_n):
                b = restricted_weights(big_n, r_hat, n)
                bn = restricted_weights(big_n, r_hat, n + 1)
                for r in range(1, n + 1):
                    assert (n - r + 1) * bn[r - 1] + r * bn[r] == n * b[r - 1]

    def test_boundary_row_is_indicator(self):
        for big_n in (5, 8, 12):
            for r_hat in range(1, big_n + 1):
                top = restricted_weights(big_n, r_hat, big_n)
                want = tuple(Fraction(1 if r == r_hat else 0) for r in range(1, big_n + 1))
                assert top == want

    def test_known_row(self):
        # N=6, r_hat=3, n=3: C(2,r-1) C(3,3-r) / C(5,2)
        b = restricted_weights(6, 3, 3)
        assert b == (Fraction(3, 10), Fraction(3, 5), Fraction(1, 10))

    def test_r_hat_one_pins_first_order(self):
        for n in range(1, 7):
            b = restricted_weights(8, 1, n)
            assert b[0] == 1 and all(x == 0 for x in b[1:])

    def test_invalid_indices(self):
        with pytest.raises(InvalidIndexError):
            restricted_weights(6, 3, 7)   # n > N
        with pytest.raises(InvalidIndexError):
            restricted_weights(6, 7, 3)   # r_hat > N
        with pytest.raises(InvalidIndexError):
            restricted_weights(6, 0, 3)
        with pytest.raises(InvalidIndexError):
            restricted_weights(0, 1, 1)

