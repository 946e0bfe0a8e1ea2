import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from subentropy import (
    AlphaOutOfRangeError,
    InvalidIndexError,
    InvalidRError,
    Spectrum,
    SubentropyError,
    divided_difference,
    entropy_report,
    interpolated_entropy,
    intermediate_entropies,
    intermediate_entropy,
    max_intermediate_entropy,
    pad_intermediate_entropies,
    subentropy,
    von_neumann_entropy,
)
from subentropy.entropy import _derivative_constants

LN2 = math.log(2.0)


def _dirichlet(n, seed):
    return np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]


def _mp_error(v):
    return np.abs(intermediate_entropies(v) - helpers.mp_orders(v)).max()


class TestDerivativeConstants:
    def test_against_symbolic_differentiation(self):
        import sympy

        x = sympy.symbols("x", positive=True)
        for r in range(1, 7):
            g = x ** r * sympy.log(x)
            consts = _derivative_constants(r, 8)
            for k in range(0, 9):
                want = sympy.diff(g, x, k)
                got = (sympy.ff(r, k) * x ** (r - k) * sympy.log(x)
                       + consts[k] * x ** (r - k))
                assert sympy.simplify(want - got) == 0, (r, k)

    def test_first_values(self):
        for r in range(1, 6):
            c = _derivative_constants(r, 3)
            assert c[0] == 0
            assert c[1] == 1
            assert c[2] == 2 * r - 1
            assert c[3] == 3 * r * r - 6 * r + 2


class TestDividedDifference:
    def test_distinct_nodes_match_product_form(self):
        rng = np.random.default_rng(1)
        for r in (1, 2, 3, 5):
            for _ in range(5):
                nodes = np.sort(rng.uniform(0.1, 1.0, size=r))[::-1]
                got = divided_difference(r, nodes)

                def g(v):
                    return v ** r * math.log(v)

                want = sum(
                    g(nodes[j]) / math.prod(
                        nodes[j] - nodes[k] for k in range(r) if k != j
                    )
                    for j in range(r)
                )
                assert got == pytest.approx(want, rel=1e-10)

    def test_double_node_is_first_derivative(self):
        a = 0.37
        got = divided_difference(2, [a, a])
        assert got == pytest.approx(2 * a * math.log(a) + a, rel=1e-14)

    def test_triple_node_is_half_second_derivative(self):
        a = 0.52
        got = divided_difference(3, [a, a, a])
        assert got == pytest.approx((6 * a * math.log(a) + 5 * a) / 2, rel=1e-14)

    def test_mixed_confluent_matches_split_limit(self):
        nodes = [0.5, 0.5, 0.2]
        got = divided_difference(3, nodes)
        eps = 1e-6

        def split_dd(e):
            ns = [0.5 + e, 0.5 - e, 0.2]

            def g(v):
                return v ** 3 * math.log(v)

            return sum(
                g(ns[j]) / math.prod(ns[j] - ns[k] for k in range(3) if k != j)
                for j in range(3)
            )

        assert got == pytest.approx(split_dd(eps), abs=1e-8)

    def test_zero_node_high_order_raises(self):
        with pytest.raises(InvalidRError):
            divided_difference(1, [0.3, 0.0, 0.0])  # needs g'(0) of x ln x

    def test_single_zero_node_fine(self):
        assert divided_difference(2, [0.5, 0.0]) == pytest.approx(
            0.5 ** 2 * math.log(0.5) / 0.5, rel=1e-14
        )


class TestOrderValues:
    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(3)
        for n in range(2, 8):
            spectra = helpers.well_separated_spectra(rng, 4, n, min_gap=5e-3)
            for s in spectra:
                orders = intermediate_entropies(s)
                for r in range(1, n + 1):
                    want = helpers.brute_order_value(s, r)
                    assert orders[r - 1] == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_order_one_is_entropy(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 9):
            s = helpers.dirichlet_spectra(rng, 1, n)[0]
            assert intermediate_entropy(s, 1) == pytest.approx(
                helpers.shannon(s), rel=1e-13
            )

    def test_known_two_level_values(self):
        s = [0.7, 0.3]
        assert von_neumann_entropy(s) == pytest.approx(0.6108643020548935, rel=1e-12)
        assert subentropy(s) == pytest.approx(0.16603292535161157, rel=1e-12)

    def test_fair_coin_subentropy(self):
        assert subentropy([0.5, 0.5]) == pytest.approx(LN2 - 0.5, rel=1e-14)

    def test_padded_two_level_middle_order(self):
        # with one appended zero the middle order is the endpoint average
        s = [0.7, 0.3, 0.0]
        want = 0.5 * (von_neumann_entropy([0.7, 0.3]) + subentropy([0.7, 0.3]))
        assert intermediate_entropy(s, 2) == pytest.approx(want, rel=1e-12)

    def test_degenerate_half_half_zero(self):
        s = [0.5, 0.5, 0.0]
        assert intermediate_entropy(s, 1) == pytest.approx(LN2, rel=1e-14)
        assert intermediate_entropy(s, 2) == pytest.approx(LN2 - 0.25, rel=1e-13)
        assert intermediate_entropy(s, 3) == pytest.approx(LN2 - 0.5, rel=1e-13)

    def test_three_level_subentropy(self):
        got = subentropy([0.5, 0.3, 0.2])
        assert got == pytest.approx(0.2478768, abs=1e-6)
        assert got == pytest.approx(
            helpers.brute_order_value([0.5, 0.3, 0.2], 3), rel=1e-11
        )

    def test_uniform_spectrum_closed_form(self):
        for n in range(2, 11):
            s = np.full(n, 1.0 / n)
            orders = intermediate_entropies(s)
            for r in range(1, n + 1):
                want = math.log(n) - sum(1.0 / k for k in range(2, r + 1))
                assert orders[r - 1] == pytest.approx(want, abs=1e-12)

    def test_degenerate_matches_richardson_limit(self):
        for s, r in (((0.5, 0.5, 0.0), 2), ((0.5, 0.5, 0.0), 3),
                     ((0.25, 0.25, 0.25, 0.25), 2), ((0.4, 0.4, 0.2), 3)):
            got = intermediate_entropy(s, r)
            want = helpers.richardson_order_value(s, r)
            assert got == pytest.approx(want, abs=1e-6)

    def test_near_degenerate_matches_exact_degenerate(self):
        # gap far below clustering tolerance collapses to the confluent value
        s_exact = [0.5, 0.5, 0.0]
        v = 0.5
        s_near = [v * (1 + 2e-11), v * (1 - 2e-11), 0.0]
        a = intermediate_entropy(s_exact, 2)
        b = intermediate_entropy(s_near, 2)
        assert a == pytest.approx(b, abs=1e-9)

    def test_pure_state_all_orders_zero(self):
        orders = intermediate_entropies([1.0, 0.0, 0.0])
        assert np.allclose(orders, 0.0, atol=1e-15)

    def test_dimension_one(self):
        assert von_neumann_entropy([1.0]) == 0.0
        assert subentropy([1.0]) == 0.0
        assert intermediate_entropies([1.0]).tolist() == [0.0]

    def test_invalid_r(self):
        for r in (0, 4, -1, 1.5, True):
            with pytest.raises(InvalidRError):
                intermediate_entropy([0.5, 0.3, 0.2], r)

    def test_cap_exceeded(self):
        # no dimension cap: n = 25, past the old one, is as accurate as n = 4
        s = _dirichlet(25, 25)
        want = helpers.mp_orders(s)
        assert np.abs(intermediate_entropies(s) - want).max() < 1e-13
        assert intermediate_entropy(s, 2) == pytest.approx(want[1], abs=1e-13)

    def test_entropy_uncapped_but_subentropy_capped(self):
        # the subentropy is as available as the entropy at any n
        n = 30
        s = np.full(n, 1.0 / n)
        assert von_neumann_entropy(s) == pytest.approx(math.log(n), rel=1e-13)
        harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
        assert subentropy(s) == pytest.approx(math.log(n) - (harmonic - 1.0), abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10 ** 9))
    def test_chain_nonincreasing_everywhere(self, n, seed):
        rng = np.random.default_rng(seed)
        s = helpers.dirichlet_spectra(rng, 1, n)[0]
        orders = intermediate_entropies(s)
        assert np.all(np.diff(orders) <= 1e-10)
        assert orders.min() >= -1e-12
        assert orders.max() <= math.log(n) + 1e-12


class TestAccuracy:
    """Against the mpmath reference; before one engine served every order,
    each of these came out wrong or raised."""

    def test_roadmap_near_triple(self):
        # an exact pair next to a value 1e-8 below it
        v = _dirichlet(5, 5)
        v[2] = v[1]
        v[3] = v[1] * (1 - 1e-8)
        v /= v.sum()
        assert subentropy(v) == pytest.approx(0.30028173770218475, abs=1e-13)
        assert _mp_error(v) < 1e-13

    def test_dirichlet_n24_seed34(self):
        # smallest relative gap 7.2e-4: the closed form alone is off by 1.2e-3
        assert _mp_error(_dirichlet(24, 34)) < 1e-13

    def test_near_pair_at_relative_gap_3e9(self):
        v = _dirichlet(8, 0)
        v[3] = v[2] * (1 - 3e-9)
        assert _mp_error(v / v.sum()) < 1e-13

    def test_four_values_all_gaps_near_1e4(self):
        v = (1 - 1e-4) ** np.arange(4)
        assert _mp_error(v / v.sum()) < 1e-13

    @pytest.mark.parametrize("n", [12, 32, 64])
    def test_dirichlet_spectra(self, n):
        assert _mp_error(_dirichlet(n, n)) < 1e-13

    @pytest.mark.parametrize("n, tol", [(25, 1e-13), (64, 1e-13), (256, 5e-13), (1024, 5e-13)])
    def test_uniform_spectrum_at_large_n(self, n, tol):
        orders = intermediate_entropies(np.full(n, 1.0 / n))
        want = [max_intermediate_entropy(n, r) for r in range(1, n + 1)]
        assert np.abs(orders - want).max() < tol


class TestMaxValue:
    def test_formula(self):
        assert max_intermediate_entropy(5, 3) == pytest.approx(
            math.log(5) - 5.0 / 6.0, rel=1e-14
        )
        assert max_intermediate_entropy(2, 1) == pytest.approx(LN2, rel=1e-15)

    def test_attained_by_uniform(self):
        for n, r in ((4, 2), (6, 5), (10, 10)):
            s = np.full(n, 1.0 / n)
            assert intermediate_entropy(s, r) == pytest.approx(
                max_intermediate_entropy(n, r), abs=1e-12
            )

    def test_never_exceeded(self):
        rng = np.random.default_rng(12)
        for n in (3, 5):
            caps = [max_intermediate_entropy(n, r) for r in range(1, n + 1)]
            for s in helpers.dirichlet_spectra(rng, 50, n):
                orders = intermediate_entropies(s)
                assert np.all(orders <= np.array(caps) + 1e-10)

    def test_errors(self):
        with pytest.raises(InvalidIndexError):
            max_intermediate_entropy(0, 1)
        with pytest.raises(InvalidRError):
            max_intermediate_entropy(3, 4)


class TestPadRecursion:
    def test_matches_direct_padding(self):
        rng = np.random.default_rng(9)
        for n in range(2, 7):
            for m in range(1, 4):
                for s in helpers.dirichlet_spectra(rng, 10, n):
                    direct = intermediate_entropies(np.concatenate([s, np.zeros(m)]))
                    via_rec = pad_intermediate_entropies(intermediate_entropies(s), m)
                    assert np.allclose(via_rec, direct, atol=1e-10)

    def test_m_zero_identity(self):
        orders = intermediate_entropies([0.6, 0.4])
        assert np.allclose(pad_intermediate_entropies(orders, 0), orders)

    def test_errors(self):
        with pytest.raises(InvalidIndexError):
            pad_intermediate_entropies([0.5], -1)
        with pytest.raises(InvalidIndexError):
            pad_intermediate_entropies([], 1)


class TestInterpolant:
    def test_endpoints(self):
        rng = np.random.default_rng(21)
        for n in (2, 4, 6):
            s = helpers.dirichlet_spectra(rng, 1, n)[0]
            ent = von_neumann_entropy(s)
            sub = subentropy(s)
            assert interpolated_entropy(s, 0.0) == pytest.approx(ent, rel=1e-12)
            assert interpolated_entropy(s, 1.0) == pytest.approx(sub, rel=1e-12)

    def test_two_level_is_linear(self):
        s = [0.7, 0.3]
        ent, sub = von_neumann_entropy(s), subentropy(s)
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            want = (1 - alpha) * ent + alpha * sub
            assert interpolated_entropy(s, alpha) == pytest.approx(want, rel=1e-13)

    def test_monotone_in_alpha(self):
        s = [0.4, 0.3, 0.2, 0.1]
        grid = np.linspace(0.0, 1.0, 21)
        vals = [interpolated_entropy(s, a) for a in grid]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_alpha_range_enforced(self):
        with pytest.raises(AlphaOutOfRangeError):
            interpolated_entropy([0.6, 0.4], 1.5)


class TestReport:
    def test_fields_and_invariants(self):
        rep = entropy_report([0.4, 0.3, 0.2, 0.1], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert rep.n == 4
        assert rep.intermediate.shape == (4,)
        assert rep.entropy == rep.intermediate[0]
        assert rep.subentropy == rep.intermediate[-1]
        assert np.all(np.diff(rep.intermediate) <= 1e-10)
        alphas = [a for a, _ in rep.alpha_samples]
        assert alphas == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert rep.alpha_samples[0][1] == rep.entropy
        assert rep.alpha_samples[-1][1] == rep.subentropy

    def test_without_grid(self):
        rep = entropy_report([0.7, 0.3])
        assert rep.alpha_samples is None

    def test_intermediate_read_only(self):
        rep = entropy_report([0.6, 0.4])
        with pytest.raises((ValueError, RuntimeError)):
            rep.intermediate[0] = 0.0

    def test_cap_propagates(self):
        # the report passes its own consistency checks past the old cap
        rep = entropy_report(np.full(25, 1.0 / 25))
        want = [max_intermediate_entropy(25, r) for r in range(1, 26)]
        assert np.abs(rep.intermediate - want).max() < 1e-13
        assert rep.subentropy == pytest.approx(want[-1], abs=1e-13)

    def test_accepts_spectrum_and_list(self):
        a = entropy_report(Spectrum([0.6, 0.4]))
        b = entropy_report([0.4, 0.6])
        assert a.entropy == b.entropy
