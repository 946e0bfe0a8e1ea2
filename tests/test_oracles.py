import dataclasses
import itertools
import math

import numpy as np
import pytest

import helpers
from subentropy import (
    AlphaOutOfRangeError,
    ContourConfig,
    InvalidIndexError,
    InvalidRError,
    TooFewSamplesError,
    binomial_weights,
    contour_intermediate_entropy,
    contour_interpolated_entropy,
    elementary_symmetric,
    haar_average_information,
    haar_information_samples,
    haar_random_unitaries,
    intermediate_entropies,
    interpolated_entropy,
    simplex_monte_carlo,
    subentropy,
    von_neumann_entropy,
)
from subentropy.oracles import _random_faces

GENERIC4 = np.array([0.4, 0.3, 0.2, 0.1])


class TestElementarySymmetric:
    def test_known_values(self):
        v = [2.0, 3.0, 4.0]
        assert elementary_symmetric(v, 0) == 1.0
        assert elementary_symmetric(v, 1) == 9.0
        assert elementary_symmetric(v, 2) == 26.0
        assert elementary_symmetric(v, 3) == 24.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(-1.0, 1.0, size=7)
        for r in range(8):
            want = helpers.brute_elementary_symmetric(vals, r)
            assert elementary_symmetric(vals, r) == pytest.approx(want, rel=1e-12)

    def test_complex_arguments(self):
        vals = np.array([1.0 + 1.0j, 2.0 - 0.5j, 0.3j])
        got = elementary_symmetric(vals, 2)
        want = helpers.brute_elementary_symmetric(list(vals), 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            elementary_symmetric([1.0, 2.0], 3)
        with pytest.raises(InvalidIndexError):
            elementary_symmetric([1.0, 2.0], -1)


class TestContourConfig:
    def test_defaults(self):
        cfg = ContourConfig()
        assert cfg.nodes == 512
        assert [f.name for f in dataclasses.fields(cfg)] == ["nodes"]

    def test_validation(self):
        with pytest.raises(InvalidIndexError):
            ContourConfig(nodes=2)
        with pytest.raises(InvalidIndexError):
            ContourConfig(nodes=64.5)
        with pytest.raises(InvalidIndexError):
            ContourConfig(nodes=True)
        assert ContourConfig(nodes=np.int64(64)).nodes == 64


class TestContourOrders:
    def test_matches_closed_form_across_dimensions(self):
        rng = np.random.default_rng(100)
        for n in range(2, 7):
            for s in helpers.dirichlet_spectra(rng, 6, n):
                orders = intermediate_entropies(s)
                for r in range(1, n + 1):
                    est = contour_intermediate_entropy(s, r)
                    assert est.method == "contour"
                    assert est.stderr == 0.0
                    assert est.samples == 512
                    assert abs(est.value - orders[r - 1]) < 1e-8

    def test_degenerate_spectra_exact(self):
        for s in ([0.5, 0.5, 0.0], [0.25] * 4, [1.0 / 3] * 3):
            orders = intermediate_entropies(s)
            for r in range(1, len(s) + 1):
                est = contour_intermediate_entropy(s, r)
                assert abs(est.value - orders[r - 1]) < 1e-10

    def test_tiny_eigenvalue(self):
        s = np.array([0.6, 0.4 - 1e-8, 1e-8])
        s = s / s.sum()
        orders = intermediate_entropies(s)
        for r in (1, 2, 3):
            est = contour_intermediate_entropy(s, r)
            assert abs(est.value - orders[r - 1]) < 1e-10

    def test_geometric_convergence_in_node_count(self):
        # the region where node count still limits accuracy: the error must
        # drop by far more than 10x per doubling (non-vacuous ratio check)
        orders = intermediate_entropies(GENERIC4)

        def max_err(nodes):
            return max(
                abs(contour_intermediate_entropy(GENERIC4, r, ContourConfig(nodes=nodes)).value
                    - orders[r - 1])
                for r in range(1, 5)
            )

        e16, e32 = max_err(16), max_err(32)
        assert e16 > 1e-8          # coarse grid genuinely inaccurate
        assert e32 < e16 / 10.0    # doubling buys at least 10x
        assert max_err(512) < 1e-12

    def test_invalid_r(self):
        with pytest.raises(InvalidRError):
            contour_intermediate_entropy(GENERIC4, 5)
        with pytest.raises(InvalidRError):
            contour_intermediate_entropy(GENERIC4, 0)


class TestContourInterpolant:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(101)
        for n in (2, 4, 6):
            s = helpers.dirichlet_spectra(rng, 1, n)[0]
            for alpha in (0.25, 0.5, 0.75, 1.0):
                est = contour_interpolated_entropy(s, alpha)
                want = interpolated_entropy(s, alpha)
                assert abs(est.value - want) < 1e-10

    def test_consistent_with_weighted_order_contours(self):
        alpha = 0.4
        weights = binomial_weights(4, alpha)
        combo = sum(
            w * contour_intermediate_entropy(GENERIC4, r).value
            for r, w in enumerate(weights, start=1)
        )
        est = contour_interpolated_entropy(GENERIC4, alpha)
        assert est.value == pytest.approx(combo, abs=1e-12)

    def test_alpha_zero_rejected(self):
        # the alpha = 0 integrand degenerates; callers map it to order 1
        with pytest.raises(AlphaOutOfRangeError):
            contour_interpolated_entropy(GENERIC4, 0.0)
        with pytest.raises(AlphaOutOfRangeError):
            contour_interpolated_entropy(GENERIC4, 1.2)


class TestSimplexMonteCarlo:
    def test_agrees_with_closed_form(self):
        orders = intermediate_entropies(GENERIC4)
        for seed in (11, 12, 13):
            for r in range(1, 5):
                est = simplex_monte_carlo(GENERIC4, r, 200000, seed)
                assert est.method == "simplexMC"
                assert est.samples == 200000
                z = abs(est.value - orders[r - 1]) / est.stderr
                assert z < 4.0, (seed, r, z)

    def test_order_one_vertex_sampling(self):
        # r = 1 reduces to sampling -x ln x at vertices
        s = [0.6, 0.4]
        est = simplex_monte_carlo(s, 1, 100000, 5)
        assert abs(est.value - von_neumann_entropy(s)) < 4 * est.stderr

    def test_deterministic_for_seed(self):
        a = simplex_monte_carlo(GENERIC4, 2, 50000, 42)
        b = simplex_monte_carlo(GENERIC4, 2, 50000, 42)
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_seeds_differ(self):
        a = simplex_monte_carlo(GENERIC4, 2, 50000, 1)
        b = simplex_monte_carlo(GENERIC4, 2, 50000, 2)
        assert a.value != b.value

    def test_spans_chunk_boundaries_deterministically(self):
        # estimate layout must not depend on internal chunking
        a = simplex_monte_carlo(GENERIC4, 3, 60001, 7)
        assert a.samples == 60001
        assert np.isfinite(a.value) and a.stderr > 0.0

    def test_faces_uniform_over_subsets(self):
        n, r, count = 4, 2, 60000
        faces = _random_faces(np.random.default_rng(8), n, r, count)
        assert faces.shape == (count, r)
        assert np.all(faces[:, 0] != faces[:, 1])
        subsets = list(itertools.combinations(range(n), r))
        keys = np.sort(faces, axis=1) @ np.array([n, 1])
        p = 1.0 / len(subsets)
        se = math.sqrt(p * (1.0 - p) / count)
        for a, b in subsets:
            share = np.count_nonzero(keys == a * n + b) / count
            assert abs(share - p) < 5.0 * se, ((a, b), share)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            simplex_monte_carlo(GENERIC4, 2, 99, 1)

    def test_invalid_r(self):
        with pytest.raises(InvalidRError):
            simplex_monte_carlo(GENERIC4, 9, 1000, 1)

    @pytest.mark.parametrize("seed", [-1, 2.5, "x", np.random.default_rng(0)])
    def test_invalid_seed(self, seed):
        with pytest.raises(InvalidIndexError):
            simplex_monte_carlo(GENERIC4, 2, 1000, seed)

    def test_numpy_integer_seed_same_stream(self):
        a = simplex_monte_carlo(GENERIC4, 2, 1000, np.int64(5))
        assert a == simplex_monte_carlo(GENERIC4, 2, 1000, 5)


class TestHaarOracle:
    def test_unitaries_are_unitary(self):
        for n in (2, 3, 5):
            us = haar_random_unitaries(n, 3, 17)
            for u in us:
                assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)

    def test_unitaries_unitary_up_to_n_64(self):
        # a single Gram-Schmidt pass lands near 1e-13 here; the
        # re-orthogonalization pass brings it to about 1e-15
        for n in (8, 24, 64):
            us = haar_random_unitaries(n, 40, n)
            gram = np.einsum("sji,sjk->sik", us.conj(), us)
            assert np.abs(gram - np.eye(n)).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 24])
    def test_unitaries_match_rephased_qr_of_same_draw(self, n):
        # Gram-Schmidt gives the QR factor with a positive diagonal in R,
        # which is what QR followed by rephasing by R's diagonal produces
        rng = np.random.default_rng(40 + n)
        g = rng.standard_normal((50, n, n)) + 1j * rng.standard_normal((50, n, n))
        q, rm = np.linalg.qr(g / math.sqrt(2.0))
        d = np.einsum("sii->si", rm)
        want = q * (d / np.abs(d))[:, None, :]
        got = haar_random_unitaries(n, 50, 40 + n)
        assert np.abs(got - want).max() < 1e-12

    def test_unitaries_deterministic(self):
        a = haar_random_unitaries(3, 2, 9)
        b = haar_random_unitaries(3, 2, 9)
        assert np.array_equal(a, b)

    def test_average_matches_subentropy(self):
        for seed in (21, 22):
            for s in ([0.7, 0.3], [0.5, 0.3, 0.2], GENERIC4):
                est = haar_average_information(s, 30000, seed)
                assert est.method == "haarMC"
                q = subentropy(s)
                assert abs(est.value - q) < 4 * est.stderr, (seed, s)

    def test_samples_within_information_bounds(self):
        s = [0.5, 0.3, 0.2]
        vals = haar_information_samples(s, 5000, 33)
        ent = von_neumann_entropy(s)
        assert vals.shape == (5000,)
        assert vals.min() >= 0.0
        assert vals.max() <= ent + 1e-12

    def test_pure_state_gives_exact_zero(self):
        vals = haar_information_samples([1.0, 0.0], 2000, 3)
        assert np.all(vals == 0.0)
        est = haar_average_information([1.0, 0.0], 2000, 3)
        assert est.value == 0.0

    def test_deterministic_for_seed(self):
        a = haar_average_information(GENERIC4, 5000, 77)
        b = haar_average_information(GENERIC4, 5000, 77)
        assert a.value == b.value and a.stderr == b.stderr

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            haar_average_information(GENERIC4, 10, 1)

    @pytest.mark.parametrize("seed", [-5, "x", 1.0])
    def test_invalid_seed(self, seed):
        with pytest.raises(InvalidIndexError):
            haar_average_information(GENERIC4, 1000, seed)

    @pytest.mark.parametrize("count, seed", [(-1, 0), (2.5, 0), (True, 0), (3, -1)])
    def test_unitaries_invalid_count_or_seed(self, count, seed):
        with pytest.raises(InvalidIndexError):
            haar_random_unitaries(3, count, seed)

    def test_unitaries_accept_generator_and_zero_count(self):
        rng = np.random.default_rng(4)
        assert haar_random_unitaries(3, 0, rng).shape == (0, 3, 3)
        a = haar_random_unitaries(3, 2, np.random.default_rng(4))
        assert np.array_equal(a, haar_random_unitaries(3, 2, 4))
