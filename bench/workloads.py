"""The four workloads: how one op is issued, and how its output is checked.

An op is correct when it returns (or the CLI exits 0) and every float it
returns lies within TOL nats of the mpmath reference.  Anything else is a
failed op, classed by what went wrong: the exception's type name,
`exit:<code>` for the CLI, `non_finite`, `beyond_tolerance`,
`beyond_stderr` for a Monte Carlo estimate (see MC_Z), `unhealthy:<suites>`
for a suite pass, or `unparsable` for CLI output the benchmark cannot read.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys

import inputs
import speed

TOL = 1e-9
# A Monte Carlo estimate is wrong when it lies more than MC_Z standard errors
# from the reference.  Over 1500 estimates at 6000 samples the largest
# distance was 5.3: the tails are heavier than a normal's.
MC_Z = 10.0
CLI_TIMEOUT_S = 120


def child_env(root):
    """Environment for a child interpreter that imports the package from root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CheckResult:
    """Outcome of checking one op's output against the reference."""

    def __init__(self):
        self.failure = None
        self.entropy_err = 0.0     # worst error among values the entropy layer produced
        self.contour_err = 0.0     # worst error of a contour oracle value
        self.entropy_wrong = False

    def compare(self, got, want, layer="entropy"):
        """Record one returned float against its reference; layer is entropy or contour."""
        got = float(got)
        if math.isfinite(got):
            err = abs(got - float(want))
            if layer == "entropy":
                self.entropy_err = max(self.entropy_err, err)
            else:
                self.contour_err = max(self.contour_err, err)
            failure = "beyond_tolerance" if err > TOL else None
        else:
            failure = "non_finite"
        if failure:
            self.failure = self.failure or failure
            self.entropy_wrong = self.entropy_wrong or layer == "entropy"

    def compare_estimate(self, value, stderr, want):
        """Record one Monte Carlo estimate against its reference, within MC_Z stderr."""
        if not (math.isfinite(value) and math.isfinite(stderr)):
            self.failure = self.failure or "non_finite"
        elif abs(value - float(want)) > MC_Z * stderr:
            self.failure = self.failure or "beyond_stderr"


def _check_report(res, orders, entropy, subentropy, got):
    """Compare every float an EntropyReport-shaped output carries."""
    import reference

    res.compare(entropy, orders[0])
    res.compare(subentropy, orders[-1])
    for r, value in enumerate(got["orders"]):
        res.compare(value, orders[r])
    for alpha, value in got["alpha"]:
        res.compare(value, reference.interpolated(orders, alpha))


class _InProcess:
    """A workload whose ops are calls into the package inside this process."""

    module = "subentropy"
    warmup_ops = 1
    gauge = speed.IN_PROCESS

    def __init__(self, root, out, api):
        self.api = api

    @staticmethod
    def prepare(inp):
        return inp


class States(_InProcess):
    name = "states"
    calls_per_input = 1
    tail_pct = 90

    @staticmethod
    def make(seed, index):
        return inputs.state(seed, index)

    def call(self, inp, spans_path=None):
        dm = self.api.validate_density_matrix(inp.matrix)
        return self.api.entropy_report(dm.spectrum, inputs.ALPHA_GRID)

    @staticmethod
    def check(inp, rep, res):
        import reference

        orders = reference.orders(inp.values.tolist())
        _check_report(res, orders, rep.entropy, rep.subentropy,
                      {"orders": rep.intermediate, "alpha": rep.alpha_samples})


class Spectra(_InProcess):
    name = "spectra"
    calls_per_input = 3
    warmup_ops = len(inputs.SPECTRA_CYCLE)
    tail_pct = 90

    @staticmethod
    def make(seed, index):
        return inputs.spectrum(seed, index)

    def call(self, inp, spans_path=None):
        s = inp.values
        rep = self.api.entropy_report(s, inputs.ALPHA_GRID)
        order = self.api.intermediate_entropy(s, inp.params["r"])
        interp = self.api.interpolated_entropy(s, inp.params["alpha"])
        return rep, order, interp

    @staticmethod
    def check(inp, out, res):
        import reference

        rep, order, interp = out
        orders = reference.orders(inp.values.tolist())
        _check_report(res, orders, rep.entropy, rep.subentropy,
                      {"orders": rep.intermediate, "alpha": rep.alpha_samples})
        res.compare(order, orders[inp.params["r"] - 1])
        res.compare(interp, reference.interpolated(orders, inp.params["alpha"]))


class Verify(_InProcess):
    name = "verify"
    calls_per_input = 1
    tail_pct = 75

    @staticmethod
    def make(seed, index):
        return inputs.verify_pass(seed, index)

    def call(self, inp, spans_path=None):
        n = inp["n"]
        verdicts = self.api.run_suites(inp["suites"], n=n, trials=inp["trials"],
                                       mc_samples=inp.get("mc_samples", 20000), seed=inp["seed"])
        estimates = []
        for s, seed in zip(inp["spectra"], inp["oracle_seeds"]):
            estimates.append([self.api.simplex_monte_carlo(s, r, inputs.VERIFY_ORACLE_SAMPLES, seed + r)
                              for r in range(1, n + 1)])
            estimates[-1].append(self.api.haar_average_information(
                s, inputs.VERIFY_ORACLE_SAMPLES, seed))
        return verdicts, estimates

    @staticmethod
    def check(inp, out, res):
        import reference

        (results, overall), estimates = out
        if not overall:
            bad = [r["verdict"].property for r in results
                   if r["verdict"].passed == r["expect_failure"]]
            res.failure = "unhealthy:" + "+".join(bad)
            return
        for s, row in zip(inp["spectra"], estimates):
            orders = reference.orders(s.tolist())
            # the Haar average converges to the subentropy, the last order
            for est, want in zip(row, [*orders, orders[-1]]):
                res.compare_estimate(est.value, est.stderr, want)


class Cli:
    """Each op is one `python -m subentropy.cli` process, run as tier-1 runs it."""

    name = "cli"
    module = "subentropy.cli"
    calls_per_input = 1
    warmup_ops = 1
    tail_pct = 90

    def __init__(self, root, out, api=None):
        self.root = root
        self.out = out
        self._surface = None
        self.gauge = speed.start_up(child_env(root), root)

    @staticmethod
    def make(seed, index):
        return inputs.cli_op(seed, index)

    def prepare(self, inp):
        """Write the op's input file and return its CLI arguments (untimed)."""
        cmd = inp.params["command"]
        if cmd == "surface":
            return ["surface", "Q", "--resolution", str(inputs.SURFACE_RESOLUTION)]
        path = os.path.join(self.out, "cli-state.json")
        if inp.matrix is not None:
            state = {"kind": "density_matrix", "re": inp.matrix.real.tolist(),
                     "im": inp.matrix.imag.tolist()}
        else:
            state = {"kind": "spectrum", "values": inp.values.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        if cmd == "oracle_contour":
            return ["oracle", "contour", "--input", path]
        return ["compute", "--input", path, "--format", inp.params["format"]]

    def call(self, argv, spans_path=None):
        """Run one CLI process; with spans_path, run it under the tracing wrapper."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "subentropy.cli", *argv]
        else:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            cmd = [sys.executable, child, spans_path, *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(self.root), cwd=self.root)
        try:
            out, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise CliExit(proc.returncode)
        return out.decode("utf-8")

    def surface_reference(self):
        """Reference Q on the surface grid, cached on disk: it never depends on the seed."""
        if self._surface is None:
            path = os.path.join(self.out, f"surface_Q_{inputs.SURFACE_RESOLUTION}.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    self._surface = json.load(fh)
            else:
                import reference

                res = inputs.SURFACE_RESOLUTION
                self._surface = [
                    float(reference.subentropy([i / res, j / res, (res - i - j) / res]))
                    for i in range(res, -1, -1) for j in range(res - i, -1, -1)
                ]
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(self._surface, fh)
        return self._surface

    def check(self, inp, text, res):
        import reference

        cmd, fmt = inp.params["command"], inp.params["format"]
        try:
            if cmd == "surface":
                rows = list(csv.reader(io.StringIO(text)))[1:]
                want = self.surface_reference()
                if len(rows) != len(want):
                    res.failure = "unparsable"
                    return
                for row, q in zip(rows, want):
                    res.compare(float(row[3]), q)
                return
            if cmd == "oracle_contour":
                value = json.loads(text)["value"]
                res.compare(value, reference.subentropy(inp.values.tolist()), layer="contour")
                return
            orders = reference.orders(inp.values.tolist())
            if fmt == "json":
                p = json.loads(text)
                got = {"entropy": p["entropy"], "subentropy": p["subentropy"],
                       "orders": p["intermediate"], "alpha": p["alpha_samples"]}
            else:
                got = {"orders": [], "alpha": []}
                for quantity, param, value in list(csv.reader(io.StringIO(text)))[1:]:
                    if quantity in ("entropy", "subentropy"):
                        got[quantity] = float(value)
                    elif quantity == "intermediate":
                        got["orders"].append(float(value))
                    else:
                        got["alpha"].append((float(param), float(value)))
            if len(got["orders"]) != len(orders) or len(got["alpha"]) != len(inputs.ALPHA_GRID):
                res.failure = "unparsable"
                return
            _check_report(res, orders, got["entropy"], got["subentropy"], got)
        except (ValueError, KeyError, IndexError, TypeError):
            res.failure = res.failure or "unparsable"


class CliExit(Exception):
    """A CLI process exited with a nonzero code."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


WORKLOADS = {"states": States, "spectra": Spectra, "verify": Verify, "cli": Cli}
