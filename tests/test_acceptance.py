"""Acceptance gate: one test per release criterion.

Each test prints an explicit PASS line on success (visible with -s; under
plain pytest -v the per-test PASSED line serves the same purpose) and
enforces the stated runtime budget where one exists.  All randomness is
seeded, so every criterion is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

import helpers
from subentropy import (
    ContourConfig,
    Spectrum,
    binomial_weights,
    contour_intermediate_entropy,
    contour_interpolated_entropy,
    haar_average_information,
    haar_information_samples,
    intermediate_entropies,
    interpolated_entropy,
    max_intermediate_entropy,
    pad_intermediate_entropies,
    simplex_monte_carlo,
    subentropy,
    tensor_spectrum,
    von_neumann_entropy,
)
from subentropy.entropy import _orders_matrix


def _report(k, dt, desc):
    print(f"ACCEPTANCE PASS criterion {k:2d} ({dt:6.1f}s): {desc}")


def test_criterion_01_boundary_identities():
    # order 1 equals the entropy and order n the subentropy, 1e-12 relative,
    # 1000 flat-Dirichlet spectra per n in 2..8; each spectrum is evaluated
    # once so the comparison tests the library contract, not representation
    # noise
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for n in range(2, 9):
        for row in helpers.dirichlet_spectra(rng, 1000, n):
            s = Spectrum(row)
            orders = intermediate_entropies(s)
            ent = von_neumann_entropy(s)
            sub = subentropy(s)
            assert abs(orders[0] - ent) < 1e-12 * abs(ent), (n, row)
            assert abs(orders[-1] - sub) <= 1e-12 * abs(sub), (n, row)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(1, dt, "boundary identities, 7000 spectra, < 1e-12 relative")


def test_criterion_02_inequality_chain():
    # nonincreasing within 1e-10 for 1e4 spectra per n in 2..8; strict gap
    # > 1e-9 whenever the two largest eigenvalues are >= 1e-3
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for n in range(2, 9):
        lam = helpers.dirichlet_spectra(rng, 10000, n)
        orders = _orders_matrix(lam)
        diffs = np.diff(orders, axis=1)
        assert diffs.max() <= 1e-10, n
        strict = lam[:, 1] >= 1e-3
        assert np.all(-diffs[strict] > 1e-9), n
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(2, dt, "inequality chain, 70000 spectra, zero violations")


def test_criterion_03_maximum_value_formula():
    t0 = time.perf_counter()
    for n in range(2, 11):
        uniform = np.full(n, 1.0 / n)
        orders = intermediate_entropies(uniform)
        for r in range(1, n + 1):
            want = math.log(n) - sum(1.0 / k for k in range(2, r + 1))
            assert abs(orders[r - 1] - want) < 1e-10, (n, r)
            assert want == pytest.approx(max_intermediate_entropy(n, r), abs=1e-15)
    rng = np.random.default_rng(303)
    for n in range(2, 11):
        lam = helpers.dirichlet_spectra(rng, 1000, n)
        orders = _orders_matrix(lam)
        caps = np.array([max_intermediate_entropy(n, r) for r in range(1, n + 1)])
        assert np.all(orders <= caps + 1e-10), n
    dt = time.perf_counter() - t0
    _report(3, dt, "uniform spectra attain ln n - sum 1/k; never exceeded")


def test_criterion_04_zero_padding_recursion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for n in range(2, 7):
        lam = helpers.dirichlet_spectra(rng, 100, n)
        base = _orders_matrix(lam)
        for m in range(1, 4):
            for i in range(100):
                via_rec = pad_intermediate_entropies(base[i], m)
                direct = intermediate_entropies(np.concatenate([lam[i], np.zeros(m)]))
                assert np.abs(via_rec - direct).max() < 1e-10, (n, m, i)
    dt = time.perf_counter() - t0
    _report(4, dt, "padding recursion matches direct computation, all r")


def test_criterion_05_augmentation_invariance_with_control():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    grid = np.round(np.arange(0.0, 1.0001, 0.05), 12)
    for n in range(2, 7):
        lam = helpers.dirichlet_spectra(rng, 100, n)
        base = _orders_matrix(lam) @ np.array(
            [binomial_weights(n, a) for a in grid]).T
        for m in range(1, 4):
            w_pad = np.array([binomial_weights(n + m, a) for a in grid])
            for i in range(100):
                padded = intermediate_entropies(np.concatenate([lam[i], np.zeros(m)]))
                dev = np.abs(w_pad @ padded - base[i]).max()
                assert dev < 1e-9, (n, m, i, dev)
    # negative control: the weight row picking out order 2 alone moves
    control_lam = helpers.dirichlet_spectra(rng, 50, 3)
    base2 = _orders_matrix(control_lam)[:, 1]
    moved = max(
        abs(intermediate_entropies(np.concatenate([s, np.zeros(1)]))[1] - b)
        for s, b in zip(control_lam, base2)
    )
    assert moved > 1e-3
    dt = time.perf_counter() - t0
    _report(5, dt, f"interpolant invariant < 1e-9; order-2 control moves {moved:.3f}")


def test_criterion_06_coefficient_laws():
    from fractions import Fraction

    from subentropy import restricted_weights

    t0 = time.perf_counter()
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for n in range(1, 13):
            b = binomial_weights(n, alpha)
            bn = binomial_weights(n + 1, alpha)
            for r in range(1, n + 1):
                res = (n - r + 1) * bn[r - 1] + r * bn[r] - n * b[r - 1]
                assert abs(res) < 1e-12, (alpha, n, r)
    for big_n in range(1, 13):
        for r_hat in range(1, big_n + 1):
            rows = [restricted_weights(big_n, r_hat, k) for k in range(1, big_n + 1)]
            for n in range(1, big_n):
                b, bn = rows[n - 1], rows[n]
                for r in range(1, n + 1):
                    assert (n - r + 1) * bn[r - 1] + r * bn[r] == n * b[r - 1]
            want = tuple(Fraction(1 if r == r_hat else 0)
                         for r in range(1, big_n + 1))
            assert rows[big_n - 1] == want
    dt = time.perf_counter() - t0
    _report(6, dt, "recursion exact (restricted) and < 1e-12 (binomial)")


def test_criterion_07_contour_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(770)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = helpers.well_separated_spectra(rng, 1, n, min_gap=1e-4)[0]
        orders = intermediate_entropies(s)
        err = {}
        for nodes in (128, 256, 512):
            cfg = ContourConfig(nodes=nodes)
            err[nodes] = max(
                abs(contour_intermediate_entropy(s, r, cfg).value - orders[r - 1])
                for r in range(1, n + 1)
            )
        for alpha in (0.25, 0.5, 0.75, 1.0):
            ea = abs(contour_interpolated_entropy(s, alpha).value
                     - interpolated_entropy(s, alpha))
            err[512] = max(err[512], ea)
        assert err[512] < 1e-8, (s, err[512])
        # >= 10x per doubling wherever quadrature error is still above the
        # floating-point floor
        assert err[128] <= 1e-12 or err[128] / err[256] >= 10.0, (s, err)
    # non-vacuity: on a coarse grid the same ratio law is visibly at work
    s = np.array([0.4, 0.3, 0.2, 0.1])
    orders = intermediate_entropies(s)

    def coarse(nodes):
        return max(
            abs(contour_intermediate_entropy(s, r, ContourConfig(nodes=nodes)).value
                - orders[r - 1])
            for r in range(1, 5)
        )

    e16, e32 = coarse(16), coarse(32)
    assert e16 > 1e-8 and e16 / e32 >= 10.0
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(7, dt, "contour < 1e-8 at 512 nodes; >= 10x error drop per doubling")


def test_criterion_08_simplex_mc_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(880)
    s = helpers.dirichlet_spectra(rng, 1, 5)[0]
    orders = intermediate_entropies(s)
    seeds = [int(x) for x in np.random.SeedSequence(881).generate_state(20, np.uint64)]
    for r in range(1, 6):
        hits = 0
        for sd in seeds:
            est = simplex_monte_carlo(s, r, 10 ** 6, sd)
            assert est.stderr < 1e-3, (r, sd)
            if abs(est.value - orders[r - 1]) <= 3.0 * est.stderr:
                hits += 1
        assert hits >= 18, (r, hits)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(8, dt, "simplex MC within 3 sigma in >= 18/20 runs, all orders")


def test_criterion_09_haar_oracle():
    t0 = time.perf_counter()
    for n, sd in ((2, 991), (3, 992), (4, 993)):
        rng = np.random.default_rng(sd)
        s = helpers.dirichlet_spectra(rng, 1, n)[0]
        est = haar_average_information(s, 10 ** 5, sd + 7)
        q = subentropy(s)
        assert abs(est.value - q) <= 3.0 * est.stderr, (n, (est.value - q) / est.stderr)
        vals = haar_information_samples(s, 20000, sd + 8)
        assert vals.min() >= 0.0
        assert vals.max() <= von_neumann_entropy(s) + 1e-12
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(9, dt, "haar estimate within 3 sigma; samples inside [0, S]")


def test_criterion_10_degenerate_spectrum_correctness():
    t0 = time.perf_counter()
    cases = [
        ([0.5, 0.5, 0.0], (2, 3)),
        ([0.25, 0.25, 0.25, 0.25], (1, 2, 3, 4)),
        ([1.0 / 3, 1.0 / 3, 1.0 / 3], (2, 3)),
        ([0.4, 0.4, 0.2], (2, 3)),
    ]
    for s, orders_to_check in cases:
        for r in orders_to_check:
            closed = float(intermediate_entropies(s)[r - 1])
            via_contour = contour_intermediate_entropy(s, r).value
            assert abs(closed - via_contour) < 1e-8, (s, r)
            via_limit = helpers.richardson_order_value(s, r)
            assert abs(closed - via_limit) < 1e-6, (s, r, closed, via_limit)
    dt = time.perf_counter() - t0
    _report(10, dt, "confluent forms match contour (1e-8) and split limit (1e-6)")


def test_criterion_11_concavity_and_alpha_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    for n in range(2, 7):
        s1 = helpers.dirichlet_spectra(rng, 1000, n)
        s2 = helpers.dirichlet_spectra(rng, 1000, n)
        t = rng.random((1000, 1))
        f1 = _orders_matrix(s1)
        f2 = _orders_matrix(s2)
        fm = _orders_matrix(t * s1 + (1.0 - t) * s2)
        violation = (t * f1 + (1.0 - t) * f2) - fm
        assert violation.max() <= 1e-10, n
    grid = np.round(np.arange(0.0, 1.0001, 0.05), 12)
    w = np.array([binomial_weights(4, a) for a in grid])
    lam = helpers.dirichlet_spectra(rng, 1000, 4)
    vals = _orders_matrix(lam) @ w.T
    assert np.diff(vals, axis=1).max() <= 1e-10
    dt = time.perf_counter() - t0
    _report(11, dt, "midpoint concavity, all (n, r); interpolant nonincreasing")


def test_criterion_12_pure_state_additivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(121)
    grid = np.round(np.arange(0.0, 1.0001, 0.1), 12)
    for case in range(100):
        n1 = int(rng.integers(2, 5))
        s1 = helpers.dirichlet_spectra(rng, 1, n1)[0]
        k = int(rng.integers(1, 4))
        pure = np.zeros(k)
        pure[0] = 1.0
        prod = tensor_spectrum(s1, pure)
        base = np.array([binomial_weights(n1, a) for a in grid]) @ intermediate_entropies(s1)
        lifted = np.array([binomial_weights(prod.dim, a) for a in grid]) @ intermediate_entropies(prod)
        assert np.abs(lifted - base).max() < 1e-9, case
        n2 = int(rng.integers(2, 5))
        s2 = helpers.dirichlet_spectra(rng, 1, n2)[0]
        both = tensor_spectrum(s1, s2)
        gap = abs(von_neumann_entropy(both)
                  - von_neumann_entropy(s1) - von_neumann_entropy(s2))
        assert gap < 1e-10, case
    dt = time.perf_counter() - t0
    _report(12, dt, "pure factors leave interpolant unchanged; entropy additive")
