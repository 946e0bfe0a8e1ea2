"""Benchmark of the subentropy package: one workload, one seed, one run.

    python3 bench/run.py --workload states|spectra|verify|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop with one
client in this process: the next op is issued when the previous one has
returned.  Ops run until their summed wall time reaches --seconds; making
an op's input and checking its output against an mpmath reference
(bench/reference.py) are not timed.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half with every public function of the package
wrapped in spans (bench/spans.py), and prints the per-layer metrics.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
`correct` is true when every attempted op was checked and classed; program
failures are counted in `failed`, never dropped.  The line before it is the
full record: failure classes, input properties, tail percentile and sample
count, and the run environment.  See bench/README.md.
"""

import argparse
from collections import Counter
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3


def _limit_blas_threads():
    """Run BLAS/OpenMP on one thread unless asked for more, never above the CPUs
    this process may use: the load comes from one client, and more threads
    on a few shared CPUs time the scheduler rather than the package."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def fresh_import_wall(module, repeats):
    """Wall seconds for fresh interpreters to start, import `module` and exit.

    Each is followed by a reading of the host's start-up speed (see
    speed.py); returns both lists of times.
    """
    import speed
    from workloads import child_env

    times, reference = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(ROOT),
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        reference.append(speed.probe_start_up(child_env(ROOT), ROOT))
    return times, reference


def fresh_import_inside(module, repeats):
    """Seconds a fresh interpreter spends in `import module` alone."""
    from workloads import child_env

    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(ROOT), cwd=ROOT,
                              check=True, capture_output=True, text=True)
        times.append(float(done.stdout.strip()))
    return times


def environment(seed, nproc):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except OSError:
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "seed": seed,
    }


class Record:
    """One attempted op: its input (described once checked), wall time, failure class."""

    __slots__ = ("inp", "seconds", "out", "failure", "entropy_err", "contour_err",
                 "entropy_wrong", "probed")

    def __init__(self, inp, seconds, out, failure):
        self.inp, self.seconds, self.out, self.failure = inp, seconds, out, failure
        self.entropy_err = self.contour_err = 0.0
        self.entropy_wrong = False
        self.probed = 0      # readings of the host's speed taken before this op


def run_ops(wl, seed, seconds, tracer=None, probes=None):
    """Closed loop: issue ops until their summed wall time reaches `seconds`.

    Each op's output is checked right after it returns, outside the timed
    region; spreading the timed ops over the checking time samples the
    machine's speed over a longer stretch.  After every wl.gauge.every_s
    of op time the host's speed is read into `probes`, untimed.  Only a short
    description of each op is kept, so the heap, and the collector's work,
    stay flat.
    """
    from inputs import describe

    if tracer is None:
        # warm-up: untimed ops, one of each kind, so first-call costs stay out of the figures
        for index in range(wl.warmup_ops):  # a failure here is counted when the loop reruns it
            issue(wl, wl.prepare(wl.make(seed, index)))
    records, busy, index, probed = [], 0.0, 0, 0.0
    spans_path = os.path.join(OUT, "child-spans.json") if tracer is not None else None
    while busy < seconds:
        inp = wl.make(seed, index)
        payload = wl.prepare(inp)
        if tracer is not None:
            tracer.op = index + 1
        start = time.perf_counter()
        if tracer is None:
            out, failure = issue(wl, payload)
        else:
            with tracer.span("bench.op") as op_sid:
                out, failure = issue(wl, payload, spans_path)
        elapsed = time.perf_counter() - start
        if tracer is not None and os.path.exists(spans_path):  # a CLI child's spans
            with open(spans_path, encoding="utf-8") as fh:
                tracer.adopt(json.load(fh)["spans"], index + 1, op_sid)
            os.remove(spans_path)
        rec = check(wl, Record(inp, elapsed, out, failure))
        rec.inp = describe(inp) if wl.name != "verify" else None
        rec.probed = len(probes) if probes is not None else 0
        records.append(rec)
        busy += elapsed
        index += 1
        if probes is not None and busy - probed >= wl.gauge.every_s:
            probes.append(wl.gauge.probe())
            probed = busy
    return records, busy


def issue(wl, payload, spans_path=None):
    """Issue one op: (output, None), or (None, failure class) when it raised or exited nonzero."""
    from workloads import CliExit

    try:
        return wl.call(payload, spans_path), None
    except CliExit as exc:
        return None, f"exit:{exc.code}"
    except Exception as exc:  # the op's failure is recorded; the run goes on
        return None, type(exc).__name__


def classify(wl, inp):
    """Issue one op untimed and return its failure class, or None when it is correct."""
    out, failure = issue(wl, wl.prepare(inp))
    return check(wl, Record(inp, 0.0, out, failure)).failure


def check(wl, rec):
    """Check an op that returned against the reference and class its failure, if any."""
    from workloads import CheckResult

    if rec.failure is None:
        res = CheckResult()
        wl.check(rec.inp, rec.out, res)
        rec.failure = res.failure
        rec.entropy_err, rec.contour_err = res.entropy_err, res.contour_err
        rec.entropy_wrong = res.entropy_wrong
    rec.out = None
    return rec


def failure_classes(records):
    return Counter(r.failure for r in records if r.failure is not None)


def _timings(ok, times, setup, tail_pct):
    import numpy

    tail = float(numpy.percentile(times, tail_pct))
    return {
        "goodput_ops_s": ok / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup),
    }, tail


def end_to_end(wl, records, setup, probes, peak_rss_mb):
    """End-to-end metrics with times at nominal host speed, and the raw figures."""
    import speed

    times = [r.seconds for r in records]
    ok = sum(r.failure is None for r in records)
    setup_times, setup_reference = setup
    op_slow = wl.gauge.factors(probes, [r.probed for r in records])
    setup_slow = [r / speed.NOMINAL_START_UP_S for r in setup_reference]
    metrics, tail = _timings(ok, [t / f for t, f in zip(times, op_slow)],
                             [t / f for t, f in zip(setup_times, setup_slow)], wl.tail_pct)
    raw, _ = _timings(ok, times, setup_times, wl.tail_pct)
    metrics["peak_rss_mb"] = peak_rss_mb
    extra = {"tail": {"percentile": wl.tail_pct, "ops": len(times),
                      "ops_beyond": sum(t / f > tail for t, f in zip(times, op_slow))},
             "raw": raw, "setup_samples_s": setup_times,
             "host": {"median_slowdown": statistics.median(op_slow), "readings": len(probes),
                      "nominal_reference_s": wl.gauge.nominal_s,
                      "setup_slowdown": statistics.median(setup_slow),
                      "setup_reference_samples_s": setup_reference}}
    return metrics, extra


def traced(wl, seed, seconds, known):
    """Half the time untraced, half traced over the same op sequence."""
    from spans import Tracer, layer_metrics

    plain, _ = run_ops(wl, seed, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        spanned, _ = run_ops(wl, seed, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    failures = failure_classes(plain + spanned)
    k = min(len(plain), len(spanned))
    by_cmd = {}
    for r in plain:
        if wl.name == "cli":
            by_cmd.setdefault(r.inp[0], []).append(r.seconds * 1e3)
    checks = {
        "entropy_wrong": sum(r.entropy_wrong for r in spanned),
        "entropy_max_abs_err": max(r.entropy_err for r in spanned),
        "contour_max_abs_err": max(r.contour_err for r in spanned),
        "unhealthy": sum((r.failure or "").startswith("unhealthy") for r in spanned),
        "cli_fail": sum(r.failure is not None for r in spanned) if wl.name == "cli" else 0,
        "cli_import_s": statistics.median(fresh_import_inside("subentropy.cli", IMPORT_REPEATS)),
        "cli_p50_ms": {c: statistics.median(v) for c, v in by_cmd.items()},
        # both halves start at op 0, so the common prefix holds the same ops and
        # the same correct count: the time ratio is the goodput ratio
        "overhead_share": 1.0 - (sum(r.seconds for r in plain[:k])
                                 / sum(r.seconds for r in spanned[:k])),
        "known_defects_failed": known["failed"],
    }
    metrics = layer_metrics(tracer.spans, checks)
    path = os.path.join(OUT, f"spans-{wl.name}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    detail = {"spans_file": os.path.relpath(path, ROOT), "span_count": len(tracer.spans),
              "common_prefix_ops": k}
    return plain + spanned, failures, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("states", "spectra", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "subentropy", "__init__.py")):
        sys.stderr.write(f"no package source under {os.path.join(ROOT, 'src')}; "
                         "run from a checkout of the repository\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    nproc = _limit_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subentropy
    import workloads
    import inputs
    import reference  # noqa: F401  loaded before timing, so its memory is a fixed base
    import defects

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, OUT, subentropy)
    probes = []
    setup = fresh_import_wall(wl.module, SETUP_REPEATS)
    known = defects.probe(wl, lambda inp: classify(wl, inp))

    if args.trace:
        records, failures, metrics, extra = traced(wl, args.seed, args.seconds, known)
        kind = "per_layer"
    else:
        records, _ = run_ops(wl, args.seed, args.seconds, probes=probes)
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        failures = failure_classes(records)
        metrics, extra = end_to_end(wl, records, setup, probes, peak_rss_mb)
        kind = "end_to_end"

    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        sys.stderr.write(f"metric mismatch with BENCHMARK.json {kind}: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"undeclared {sorted(set(metrics) - set(units))}\n")
        return 1

    attempted = len(records)
    failed = sum(failures.values())
    if wl.name == "verify":
        summary = {"passes": attempted, **inputs.VERIFY_PASS, "suites": inputs.VERIFY_SUITES,
                   "oracle_spectra": inputs.VERIFY_ORACLE_SPECTRA,
                   "oracle_samples": inputs.VERIFY_ORACLE_SAMPLES}
    else:
        summary = inputs.summarise([(r.inp, r.failure is not None) for r in records],
                                   wl.calls_per_input)
    record = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed, nproc),
        "inputs": summary,
        "failures_by_class": dict(failures),
        "fail_share": failed / attempted,
        "known_defects": known,
        **extra,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
