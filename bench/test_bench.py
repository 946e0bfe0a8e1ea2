"""Tests of the benchmark's own parts: reference, generators, tracer, entry point.

    python -m pytest bench/test_bench.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import defects  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

import subentropy  # noqa: E402
from subentropy import ContourConfig, contour_intermediate_entropy, intermediate_entropies  # noqa: E402


def _floats(values):
    return np.array([float(v) for v in values])


def test_reference_pins_roadmap_near_triple():
    orders = reference.orders(inputs.roadmap_triple().tolist())
    assert abs(float(orders[-1]) - 0.30028173770218475) < 1e-15
    assert float(reference.subentropy(inputs.roadmap_triple().tolist())) == pytest.approx(
        float(orders[-1]), abs=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_reference_agrees_with_package_on_well_separated_spectra(n):
    # consecutive values at least 20% apart: the package's closed form loses
    # digits to near-equal pairs, which is what the benchmark measures
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        v = np.cumprod(np.concatenate([[1.0], rng.uniform(0.3, 0.8, n - 1)]))
        v /= v.sum()
        want = _floats(reference.orders(v.tolist()))
        np.testing.assert_allclose(intermediate_entropies(v), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_reference_agrees_with_contour_oracle_on_dirichlet_spectra(n):
    v = np.sort(np.random.default_rng(n).dirichlet(np.ones(n)))[::-1]
    want = _floats(reference.orders(v.tolist()))
    for r in (1, n // 2, n):
        got = contour_intermediate_entropy(v, r, ContourConfig(nodes=4096)).value
        assert got == pytest.approx(want[r - 1], abs=1e-13)
    assert float(reference.subentropy(v.tolist())) == pytest.approx(want[-1], abs=1e-15)


@pytest.mark.parametrize("values", [
    np.kron([0.5, 0.3, 0.2], [0.5, 0.5]),
    np.kron([0.6, 0.4], np.full(3, 1 / 3)),
    np.array([0.4, 0.3, 0.3, 0.0, 0.0]),
])
def test_reference_handles_exact_repeats_and_zeros(values):
    want = _floats(reference.orders(values.tolist()))
    contour = [contour_intermediate_entropy(values, r, ContourConfig(nodes=2048)).value
               for r in range(1, values.size + 1)]
    np.testing.assert_allclose(contour, want, rtol=0, atol=1e-12)
    assert -math.fsum(x * math.log(x) for x in values if x > 0) == pytest.approx(want[0], abs=1e-15)


def test_reference_interpolant_endpoints():
    orders = reference.orders([0.5, 0.3, 0.2])
    assert reference.interpolated(orders, 0.0) == orders[0]
    assert reference.interpolated(orders, 1.0) == orders[-1]


@pytest.mark.parametrize("make", [inputs.state, inputs.spectrum, inputs.cli_op])
def test_inputs_depend_only_on_seed_and_index(make):
    for index in range(len(inputs.SPECTRA_CYCLE)):
        a, b = make(7, index), make(7, index)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.params == b.params
        assert abs(a.values.sum() - 1.0) < 1e-12
        assert np.all(np.diff(a.values) <= 0.0)
    assert not np.array_equal(make(7, 1).values, make(8, 1).values)


def test_states_matrix_has_the_stated_spectrum():
    for index in range(5):
        inp = inputs.state(3, index)
        assert inp.n == inputs.STATE_DIM
        eig = np.sort(np.linalg.eigvalsh(inp.matrix))[::-1]
        np.testing.assert_allclose(eig, inp.values, atol=1e-14)


def test_verify_pass_seeds_depend_on_workload_seed():
    a, b = inputs.verify_pass(1, 0), inputs.verify_pass(1, 0)
    assert a["seed"] == b["seed"] and a["oracle_seeds"] == b["oracle_seeds"]
    np.testing.assert_array_equal(a["spectra"][0], b["spectra"][0])
    assert a["seed"] != inputs.verify_pass(2, 0)["seed"]
    assert "oracles" not in a["suites"]


def test_estimate_check_uses_standard_errors():
    import workloads

    res = workloads.CheckResult()
    res.compare_estimate(1.0 + 9 * 0.01, 0.01, 1.0)
    assert res.failure is None
    res.compare_estimate(1.0 + 11 * 0.01, 0.01, 1.0)
    assert res.failure == "beyond_stderr"


def test_properties_and_summary():
    seen = {inputs.spectrum(0, i).kind: inputs.properties(inputs.spectrum(0, i).values)
            for i in range(len(inputs.SPECTRA_CYCLE))}
    assert seen["product"]["exact_degenerate"]
    assert seen["padded"]["zero_padded"]
    assert seen["tail"]["wide_range"]
    assert not any(seen["separated"].values())
    near = inputs.properties(inputs.spectrum_of("near_triple", (6, 1e-7), np.random.default_rng(0)))
    assert near["exact_degenerate"] and near["near_degenerate"]
    summary = inputs.summarise(
        [(inputs.describe(inputs.spectrum(0, i)), i == 2) for i in range(24)], 3)
    assert summary["calls_per_spectrum"] == 3
    assert sum(summary["dimension_histogram"].values()) == 24
    assert summary["by_kind"]["product"] == {"attempted": 2, "failed": 1}
    assert summary["shares"]["zero_padded"] == 16 / 24


def test_timed_spectra_keep_their_separation():
    for seed in range(3):
        for index in range(len(inputs.SPECTRA_CYCLE)):
            v = inputs.spectrum(seed, index).values
            distinct = np.unique(v[v > 0])[::-1]
            assert np.all(distinct[1:] <= distinct[:-1] * (1.0 - inputs.SEPARATION))


def test_known_defects_are_fixed_and_include_the_roadmap_triple():
    for name in ("states", "spectra", "verify", "cli"):
        first, again = defects.cases(name), defects.cases(name)
        assert [label for label, _ in first] == [label for label, _ in again]
        assert len({label for label, _ in first}) == len(first)
    spectra_cases = dict(defects.cases("spectra"))
    np.testing.assert_array_equal(spectra_cases["roadmap_triple#0"].values, inputs.roadmap_triple())
    assert all(inp.n != inputs.STATE_DIM for _, inp in defects.cases("states"))


def test_probe_counts_failed_cases():
    class Fake:
        name = "verify"

    report = defects.probe(Fake(), lambda inp: "unhealthy:x" if inp["seed"] == 1 else None)
    assert report["attempted"] == len(defects.VERIFY_CASES)
    assert report["failed"] == 1 and report["failures_by_class"] == {"unhealthy:x": 1}


def test_gauge_factors_follow_the_nearby_readings():
    gauge = speed.Gauge(speed.probe_in_process, every_s=0.005, nominal_s=1.0, half=5)
    samples = [1.0] * 30 + [2.0] * 30
    assert gauge.factors(samples, [0, 60]) == [1.0, 2.0]
    assert gauge.factors([2.0], [0, 5]) == [2.0, 2.0]
    assert speed.probe_in_process() > 0.0


def test_tracer_wraps_every_binding_and_restores_them():
    original = subentropy.entropy.intermediate_entropies
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert subentropy.verify.intermediate_entropies is subentropy.entropy.intermediate_entropies
        assert subentropy.intermediate_entropies is not original
        tracer.op = 1
        with tracer.span("bench.op"):
            subentropy.interpolated_entropy([0.5, 0.3, 0.2], 0.5)
    finally:
        tracer.uninstall()
    assert subentropy.entropy.intermediate_entropies is original
    assert subentropy.verify.intermediate_entropies is original
    names = {s[3] for s in tracer.spans}
    assert {"bench.op", "entropy.interpolated_entropy", "entropy.intermediate_entropies",
            "coefficients.binomial_weights"} <= names
    assert {s[0] for s in tracer.spans} == {1}
    by_id = {s[1]: s for s in tracer.spans}
    interp = next(s for s in tracer.spans if s[3] == "entropy.interpolated_entropy")
    assert by_id[interp[2]][3] == "bench.op"


def test_check_result_classes_failures():
    import workloads

    res = workloads.CheckResult()
    res.compare(0.5, 0.5 + 0.5e-9)
    assert res.failure is None and res.entropy_err == pytest.approx(0.5e-9)
    res.compare(0.5, 0.5 + 2e-9, layer="contour")
    assert res.failure == "beyond_tolerance" and not res.entropy_wrong
    res = workloads.CheckResult()
    res.compare(float("nan"), 0.5)
    assert res.failure == "non_finite" and res.entropy_wrong


def test_validate_span_counts_runtime_warnings():
    import warnings

    def noisy():
        warnings.warn("overflow", RuntimeWarning)
        warnings.warn("overflow", RuntimeWarning)
        return 1

    tracer = spans.Tracer()
    assert tracer._wrap("spectra.validate_density_matrix", noisy)() == 1
    assert tracer.spans[-1][7] == 2


def test_self_time_subtracts_direct_children():
    fake = [
        (1, 1, 0, "bench.op", 0, 10_000_000_000, "ok", None),
        (1, 2, 1, "entropy.entropy_report", 1_000_000_000, 9_000_000_000, "ok", None),
        (1, 3, 2, "entropy.intermediate_entropies", 2_000_000_000, 7_000_000_000, "ok", None),
    ]
    self_s = spans._self_times(fake)
    assert self_s == {1: 2.0, 2: 3.0, 3: 5.0}
    metrics = spans.layer_metrics(fake, {})
    assert metrics["entropy.report.self_s"] == 3.0
    assert metrics["entropy.orders.self_s"] == 5.0


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_layer_metrics_cover_every_declared_per_layer_metric():
    assert set(spans.layer_metrics([], {})) == _declared("per_layer")


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_declared_metrics(trace, kind):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "states", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _declared(kind)
    assert result["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "states", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
