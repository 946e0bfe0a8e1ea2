"""Span tracing from outside the package, and the per-layer metrics built on it.

Tracer.install() wraps every public function of the package's modules at
every name it is bound to - its own module's global, the package root and
any module that imported it - so calls between modules and inside a module
both produce spans.  A span records its op id, its own id, its parent's id,
the function's layer-qualified name, start and end (perf_counter_ns) and an
outcome.  Spans stay in memory until the run writes them out.
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import time
import warnings

MODULES = ("spectra", "entropy", "coefficients", "oracles", "verify", "cli")

SUITES = {
    "chain": "check_inequality_chain",
    "invariance": "check_invariance",
    "invariance_control": "check_invariance_control",
    "coefficients": "check_coefficient_recursion",
    "concavity": "check_concavity",
    "oracles": "check_oracle_agreement",
    "additivity": "check_pure_additivity",
}

CLI_COMMANDS = ("compute", "compute_dm", "oracle_contour", "surface")


class Tracer:
    """In-memory span recorder that patches the package's public functions."""

    def __init__(self):
        self.spans = []           # (op, id, parent, name, start_ns, end_ns, outcome, extra)
        self.op = 0
        self._stack = []
        self._next = 1
        self._patched = []

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, outcome, extra):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((self.op, sid, parent, name, start, end, outcome, extra))

    def _wrap(self, name, fn):
        count_warnings = name == "spectra.validate_density_matrix"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            outcome, extra = "ok", None
            start = time.perf_counter_ns()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    extra = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                else:
                    result = fn(*args, **kwargs)
                    if hasattr(result, "stderr") and hasattr(result, "samples"):
                        extra = (float(result.stderr), int(result.samples))
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                self._close(sid, parent, name, start, outcome, extra)

        return traced

    def install(self):
        """Wrap every public function of every module, at every binding."""
        layers = {m: importlib.import_module(f"subentropy.{m}") for m in MODULES}
        wrapped = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module("subentropy"), *layers.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (one op); yields its id."""
        sid, parent = self._open()
        outcome = "ok"
        start = time.perf_counter_ns()
        try:
            yield sid
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            self._close(sid, parent, name, start, outcome, None)

    def adopt(self, spans, op, parent):
        """Take in spans a child process recorded for op `op`, under span `parent`.

        perf_counter_ns is the system-wide monotonic clock, so child and
        parent timestamps compare directly.
        """
        offset = self._next
        for _, sid, sparent, name, start, end, outcome, extra in spans:
            self.spans.append((op, sid + offset, sparent + offset if sparent else parent,
                               name, start, end, outcome,
                               tuple(extra) if isinstance(extra, list) else extra))
            self._next = max(self._next, sid + offset + 1)


def _self_times(spans):
    """Per-span self time in seconds: duration minus the direct children's durations."""
    child = {}
    for s in spans:
        if s[2]:
            child[s[2]] = child.get(s[2], 0) + (s[5] - s[4])
    return {s[1]: (s[5] - s[4] - child.get(s[1], 0)) / 1e9 for s in spans}


def layer_metrics(spans, checks):
    """Per-layer metrics from spans plus the benchmark's own output checks.

    checks carries what spans cannot see: entropy_wrong, entropy_max_abs_err,
    contour_max_abs_err, unhealthy, cli_fail, cli_import_s, cli_p50_ms (a
    dict by command), overhead_share and known_defects_failed.
    """
    self_s = _self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    layer_of = {s[1]: s[3].split(".")[0] for s in spans}

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total_self(group):
        return sum(self_s[s[1]] for s in group)

    def p50(group, scale):
        return statistics.median((s[5] - s[4]) / scale for s in group) if group else 0.0

    m = {}
    validate = named("spectra.validate_density_matrix")
    m["spectra.validate.calls"] = len(validate)
    m["spectra.validate.self_s"] = total_self(validate)
    m["spectra.validate.p50_us"] = p50(validate, 1e3)
    m["spectra.validate.fail"] = sum(s[6] != "ok" for s in validate)
    m["spectra.validate.warnings"] = sum(s[7] or 0 for s in validate)

    report = named("entropy.entropy_report")
    m["entropy.report.calls"] = len(report)
    m["entropy.report.self_s"] = total_self(report)
    m["entropy.report.p50_us"] = p50(report, 1e3)
    m["entropy.order.self_s"] = total_self(named("entropy.intermediate_entropy"))
    m["entropy.interp.self_s"] = total_self(named("entropy.interpolated_entropy"))
    m["entropy.orders.self_s"] = total_self(named("entropy.intermediate_entropies"))
    m["entropy.fail"] = sum(
        1 for s in spans
        if s[3].startswith("entropy.") and s[6] != "ok" and layer_of.get(s[2]) != "entropy"
    )
    m["entropy.wrong"] = checks.get("entropy_wrong", 0)
    m["entropy.max_abs_err"] = checks.get("entropy_max_abs_err", 0.0)

    weights = named("coefficients.binomial_weights")
    m["coefficients.weights.calls"] = len(weights)
    m["coefficients.weights.self_s"] = total_self(weights)

    for key, top, helpers in (
        ("simplex", "oracles.simplex_monte_carlo", ()),
        ("haar", "oracles.haar_average_information",
         ("oracles.haar_information_samples", "oracles.haar_random_unitaries")),
    ):
        calls = named(top)
        done = [s for s in calls if s[7] is not None]
        busy = sum(s[5] - s[4] for s in done) / 1e9
        m[f"oracles.{key}.calls"] = len(calls)
        m[f"oracles.{key}.self_s"] = total_self(calls) + total_self(named(*helpers))
        m[f"oracles.{key}.samples_per_s"] = (sum(s[7][1] for s in done) / busy) if busy else 0.0
        m[f"oracles.{key}.var_time"] = (
            statistics.median(s[7][0] ** 2 * (s[5] - s[4]) / 1e9 for s in done) if done else 0.0
        )
    contour = named("oracles.contour_intermediate_entropy", "oracles.contour_interpolated_entropy")
    m["oracles.contour.calls"] = len(contour)
    m["oracles.contour.self_s"] = total_self(contour)
    m["oracles.contour.max_abs_err"] = checks.get("contour_max_abs_err", 0.0)

    for suite, fn in SUITES.items():
        m[f"verify.{suite}.self_s"] = total_self(named(f"verify.{fn}"))
    m["verify.unhealthy"] = checks.get("unhealthy", 0)

    m["cli.import_s"] = checks.get("cli_import_s", 0.0)
    m["cli.fail"] = checks.get("cli_fail", 0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.p50_ms"] = checks.get("cli_p50_ms", {}).get(cmd, 0.0)
    m["trace.overhead_share"] = checks.get("overhead_share", 0.0)
    m["known_defects.failed"] = checks.get("known_defects_failed", 0)
    return m
