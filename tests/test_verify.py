import dataclasses

import numpy as np
import pytest

from subentropy import (
    InvalidIndexError,
    InvalidRError,
    check_coefficient_recursion,
    check_concavity,
    check_inequality_chain,
    check_invariance,
    check_invariance_control,
    check_oracle_agreement,
    check_pure_additivity,
    run_suites,
)
from subentropy import intermediate_entropies
from subentropy.entropy import _orders_matrix, cluster
from subentropy.verify import _sample_spectra


class TestSampling:
    def test_rows_are_valid_spectra(self):
        rng = np.random.default_rng(0)
        lam = _sample_spectra(rng, 50, 5)
        assert lam.shape == (50, 5)
        assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-12)
        assert lam.min() >= 0.0
        assert np.all(np.diff(lam, axis=1) <= 0.0)

    def test_degenerate_injection_every_twentieth(self):
        rng = np.random.default_rng(1)
        lam = _sample_spectra(rng, 60, 4)
        # rows 19, 39, 59: alternating exact repeats and ~1e-7 relative gaps
        gaps0 = np.min(np.abs(np.diff(lam[19])))
        assert gaps0 == 0.0
        rel39 = np.min(np.abs(np.diff(lam[39])) / lam[39][:-1])
        assert 1e-8 < rel39 < 1e-6
        assert np.min(np.abs(np.diff(lam[59]))) == 0.0

    def test_injection_can_be_disabled(self):
        rng = np.random.default_rng(2)
        lam = _sample_spectra(rng, 40, 3, degenerate_rate=0.0)
        assert np.min(np.abs(np.diff(lam, axis=1))) > 0.0


class TestOrdersMatrix:
    def test_paths_agree_on_clean_rows(self):
        rng = np.random.default_rng(3)
        lam = _sample_spectra(rng, 30, 5)
        out = _orders_matrix(lam)
        for i in (0, 7, 19, 29):  # mix of generic and injected rows
            want = intermediate_entropies(lam[i])
            assert np.allclose(out[i], want, atol=1e-11)

    def test_rank_deficient_rows_match_per_row_engine(self):
        # trailing zeros are split off and put back by the padding identity;
        # each batch mixes full-rank rows with rows of one and two zeros
        rng = np.random.default_rng(4)
        for n in (3, 4, 6):
            rows = []
            for zeros in (0, 1, 2, 1, 2):
                pos = rng.standard_exponential(n - zeros)
                rows.append(np.concatenate([pos / pos.sum(), np.zeros(zeros)]))
            lam = np.array(rows)
            out = _orders_matrix(lam)
            for got, row in zip(out, lam):
                assert np.abs(got - intermediate_entropies(row)).max() < 1e-13

    def test_accepts_unsorted_rows(self):
        lam = np.array([[0.1, 0.4, 0.3, 0.2]])
        out = _orders_matrix(lam)
        want = intermediate_entropies([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(out[0], want, atol=1e-13)

    def test_clustered_rows_take_the_per_row_engine(self):
        # an exact pair and a near pair (relative gap 1e-10, below the
        # cluster tolerance), batched with separated rows, must come out
        # exactly as intermediate_entropies gives them
        exact = np.array([0.4, 0.25, 0.25, 0.1])
        near = np.array([0.35, 0.3, 0.3 * (1 - 1e-10), 0.05])
        near /= near.sum()
        lam = np.array([[0.4, 0.3, 0.2, 0.1], exact, near, [0.5, 0.3, 0.15, 0.05]])
        out = _orders_matrix(lam)
        for row in (1, 2):
            assert cluster(lam[row])[1].max() == 2
            assert np.array_equal(out[row], intermediate_entropies(lam[row]))


class TestIndividualSuites:
    def test_chain_passes(self):
        v = check_inequality_chain(4, 60, seed=10)
        assert v.passed and v.failures == 0
        assert v.trials == 60
        assert v.worst_violation <= 0.0
        assert v.details == ()

    def test_chain_dimension_validated(self):
        with pytest.raises(InvalidIndexError):
            check_inequality_chain(1, 10, 0)
        with pytest.raises(InvalidIndexError):
            check_inequality_chain(13, 10, 0)

    def test_chain_deterministic(self):
        a = check_inequality_chain(3, 40, seed=5)
        b = check_inequality_chain(3, 40, seed=5)
        assert a == b

    def test_invariance_passes(self):
        v = check_invariance(4, 2, [0.0, 0.25, 0.5, 0.75, 1.0], 40, seed=8)
        assert v.passed
        assert v.worst_violation <= 0.0

    def test_invariance_control_fails_as_designed(self):
        v = check_invariance_control(40, seed=9)
        assert not v.passed
        assert v.failures > 0
        assert v.worst_violation > 1e-3
        assert 0 < len(v.details) <= 10

    def test_coefficient_recursion_passes(self):
        v = check_coefficient_recursion()
        assert v.passed
        assert v.trials > 50

    def test_concavity_passes(self):
        for r in (1, 3):
            v = check_concavity(4, r, 50, seed=12)
            assert v.passed, r

    def test_concavity_validates_order(self):
        with pytest.raises(InvalidRError):
            check_concavity(4, 5, 10, seed=0)

    def test_oracle_agreement_passes(self):
        v = check_oracle_agreement(3, 3, 2000, seed=14)
        assert v.passed
        assert v.trials == 3

    def test_oracle_agreement_dimension_capped(self):
        with pytest.raises(InvalidIndexError):
            check_oracle_agreement(7, 3, 2000, seed=0)

    def test_pure_additivity_passes_with_demo(self):
        v, demo = check_pure_additivity(30, seed=15)
        assert v.passed
        assert demo is not None
        assert demo["gap"] != 0.0
        assert "subentropy_product" in demo

    def test_verdict_invariant(self):
        v = check_inequality_chain(3, 20, seed=1)
        assert v.passed == (v.failures == 0)
        d = dataclasses.asdict(v)
        assert set(d) == {"property", "trials", "failures", "worst_violation",
                          "passed", "details"}


class TestRunner:
    def test_all_suites_overall_pass(self):
        results, overall = run_suites(n=3, trials=30, mc_samples=3000, seed=4)
        assert overall
        names = [r["verdict"].property for r in results]
        assert "inequality-chain" in names
        assert "invariance-control-order-2" in names
        control = next(r for r in results
                       if r["verdict"].property == "invariance-control-order-2")
        assert control["expect_failure"] and not control["verdict"].passed
        demo_entries = [r for r in results if r["demo"] is not None]
        assert len(demo_entries) == 1

    def test_suite_subset(self):
        results, overall = run_suites(suites=("chain",), n=4, trials=20, seed=2)
        assert overall
        assert len(results) == 1

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidIndexError):
            run_suites(suites=("bogus",))

    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1}, {"trials": 2.0},
                                        {"seed": -1}, {"seed": "x"}])
    def test_bad_trials_or_seed_rejected(self, kwargs):
        with pytest.raises(InvalidIndexError):
            run_suites(suites=("chain",), **kwargs)

    def test_deterministic(self):
        a = run_suites(suites=("chain", "concavity"), n=3, trials=25, seed=6)
        b = run_suites(suites=("chain", "concavity"), n=3, trials=25, seed=6)
        assert a == b

    def test_dimension_clamping_for_capped_suites(self):
        # n=8 exceeds the oracle suite cap of 6; the runner clamps it
        results, overall = run_suites(suites=("oracles",), n=8, trials=10,
                                      mc_samples=2000, seed=7)
        assert overall
