"""Command line front end.

Subcommands:
  compute   full report (entropy, subentropy, every order, interpolant samples)
  oracle    one numerical cross-check: contour | simplex | haar
  check     property suites as JSON-lines verdicts
  surface   barycentric grid over 3-dimensional spectra, CSV

Input states are JSON: {"kind": "spectrum", "values": [...]} or
{"kind": "density_matrix", "re": [[...]], "im": [[...]]} ("im" optional).
Exit codes: 0 success, 1 property-suite failure, 2 unreadable/unparsable
input, 3 state validation failure, 4 dimension cap exceeded, 5 usage error
(a bad option value, seed or trial count included).
"""

import argparse
import dataclasses
import json
import secrets
import os
import sys

import numpy as np

from .coefficients import binomial_weights
from .entropy import (
    CLOSED_FORM_DIM_CAP,
    _orders_matrix,
    entropy_report,
    interpolated_entropy,
    intermediate_entropy,
    subentropy,
)
from .errors import (
    AlphaOutOfRangeError,
    CapExceededError,
    DegenerateContourError,
    InvalidIndexError,
    InvalidRError,
    NoConvergenceError,
    TooFewSamplesError,
    ValidationError,
)
from .oracles import (
    ContourConfig,
    contour_intermediate_entropy,
    contour_interpolated_entropy,
    haar_average_information,
    simplex_monte_carlo,
)
from .spectra import Spectrum, validate_density_matrix
from .verify import SUITE_NAMES, run_suites


class _ParseError(Exception):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 5."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(5, f"{self.prog}: error: {message}\n")


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_state(path):
    """Parse a JSON state description into a Spectrum."""
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise _ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise _ParseError('expected an object with a "kind" field')
    kind = obj["kind"]
    if kind == "spectrum":
        values = obj.get("values")
        if not isinstance(values, list) or not values:
            raise _ParseError('"spectrum" input needs a nonempty "values" list')
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise _ParseError(f'bad "values": {exc}') from exc
        return Spectrum(arr)
    if kind == "density_matrix":
        if "re" not in obj:
            raise _ParseError('"density_matrix" input needs an "re" field')
        try:
            re = np.asarray(obj["re"], dtype=float)
            matrix = re.astype(complex)
            if obj.get("im") is not None:
                matrix = matrix + 1j * np.asarray(obj["im"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise _ParseError(f"bad matrix entries: {exc}") from exc
        return validate_density_matrix(matrix).spectrum
    raise _ParseError(f'unknown "kind": {kind!r}')


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump_json(payload):
    return json.dumps(payload, default=_json_default)


def _g15(x):
    return format(float(x) + 0.0, ".15g")  # + 0.0 normalizes -0.0


def _parse_alpha_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError("--alpha-grid expects START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"--alpha-grid: {exc}") from exc
    if step <= 0.0 or stop < start:
        raise _UsageError("--alpha-grid needs step > 0 and stop >= start")
    grid, k = [], 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        grid.append(round(v, 12))
        k += 1
    return grid


def _style(text, code, stream):
    if "NO_COLOR" in os.environ or not stream.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _cmd_compute(args):
    s = _load_state(args.input)
    if args.alpha_grid:
        grid = _parse_alpha_grid(args.alpha_grid)
    else:
        grid = [round(0.1 * k, 12) for k in range(11)]
    report = entropy_report(s, grid)
    if args.format == "json":
        payload = {
            "n": report.n,
            "entropy": report.entropy,
            "subentropy": report.subentropy,
            "intermediate": [float(v) for v in report.intermediate],
            "alpha_samples": [[float(a), float(v)] for a, v in report.alpha_samples],
        }
        text = _dump_json(payload) + "\n"
    else:
        lines = ["quantity,parameter,value"]
        lines.append(f"entropy,,{_g15(report.entropy)}")
        lines.append(f"subentropy,,{_g15(report.subentropy)}")
        for r, v in enumerate(report.intermediate, start=1):
            lines.append(f"intermediate,{r},{_g15(v)}")
        for a, v in report.alpha_samples:
            lines.append(f"interpolated,{_g15(a)},{_g15(v)}")
        text = "\n".join(lines) + "\n"
    _write_text(args.output, text)
    return 0


def _cmd_oracle(args):
    s = _load_state(args.input)
    if args.r is not None and args.alpha is not None:
        raise _UsageError("choose either --r or --alpha, not both")
    if args.method == "simplex" and args.alpha is not None:
        raise _UsageError("simplex estimates a single order; use --r")
    if args.method == "haar" and (args.r is not None or args.alpha is not None):
        raise _UsageError("haar estimates the subentropy; drop --r/--alpha")
    payload = {"method": args.method}
    seed, drew_seed = args.seed, False
    if args.method != "contour":
        drew_seed = seed is None
        if drew_seed:
            seed = secrets.randbits(63)
        payload["seed"] = seed
    r = args.r if args.r is not None else s.dim
    if args.alpha is not None:
        payload["alpha"] = args.alpha
    elif args.method != "haar":
        payload["r"] = r
    if args.method == "contour":
        cfg = ContourConfig(nodes=args.nodes) if args.nodes else ContourConfig()
        if args.alpha is None:
            est = contour_intermediate_entropy(s, r, cfg)
        elif args.alpha == 0.0:
            # alpha = 0 degenerates to the plain entropy, i.e. order 1
            est = contour_intermediate_entropy(s, 1, cfg)
        else:
            est = contour_interpolated_entropy(s, args.alpha, cfg)
    elif args.method == "simplex":
        est = simplex_monte_carlo(s, r, args.samples, seed)
    else:
        est = haar_average_information(s, args.samples, seed)
    payload.update(value=est.value, stderr=est.stderr, samples=est.samples)
    if s.dim <= CLOSED_FORM_DIM_CAP:
        if args.method == "haar":
            closed = subentropy(s)
        elif args.alpha is not None:
            closed = interpolated_entropy(s, args.alpha)
        else:
            closed = intermediate_entropy(s, r)
        payload["closed_form"] = closed
        payload["abs_error"] = abs(est.value - closed)
        if est.stderr > 0.0:
            payload["z_score"] = (est.value - closed) / est.stderr
    if drew_seed:
        sys.stderr.write(f"seed drawn: {payload['seed']}\n")
    _write_text(args.output, _dump_json(payload) + "\n")
    return 0


def _cmd_check(args):
    seed = args.seed
    drew_seed = seed is None
    if drew_seed:
        seed = secrets.randbits(32)
    suites = None if args.suite == "all" else (args.suite,)
    results, overall = run_suites(
        suites=suites, n=args.n, trials=args.trials,
        mc_samples=args.samples, seed=seed,
    )
    lines = []
    if drew_seed:
        lines.append(_dump_json({"seed": seed}))
    for entry in results:
        verdict = entry["verdict"]
        record = dataclasses.asdict(verdict)
        record["details"] = list(record["details"])
        record["expect_failure"] = entry["expect_failure"]
        lines.append(_dump_json(record))
        if entry["demo"] is not None:
            lines.append(_dump_json({"demo": entry["demo"]}))
        healthy = (not verdict.passed) if entry["expect_failure"] else verdict.passed
        tag = (_style("PASS", "32", sys.stderr) if healthy
               else _style("FAIL", "31", sys.stderr))
        note = " (expected failure)" if entry["expect_failure"] else ""
        sys.stderr.write(
            f"{tag} {verdict.property}{note}: trials={verdict.trials} "
            f"failures={verdict.failures} worst={verdict.worst_violation:.3g}\n"
        )
    lines.append(_dump_json({"overall_passed": overall}))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0 if overall else 1


def _parse_quantity(text, n):
    """Quantity spec: S | Q | R:<order> | Ralpha:<alpha>."""
    if text == "S":
        return ("order", 1)
    if text == "Q":
        return ("order", n)
    if text.startswith("R:"):
        try:
            r = int(text[2:])
        except ValueError as exc:
            raise _UsageError(f"bad order in quantity spec {text!r}") from exc
        if not 1 <= r <= n:
            raise _UsageError(f"order {r} out of range 1..{n}")
        return ("order", r)
    if text.startswith("Ralpha:"):
        try:
            alpha = float(text[7:])
        except ValueError as exc:
            raise _UsageError(f"bad alpha in quantity spec {text!r}") from exc
        if not 0.0 <= alpha <= 1.0:
            raise _UsageError(f"alpha {alpha} outside [0, 1]")
        return ("alpha", alpha)
    raise _UsageError(f"unknown quantity spec {text!r} (use S, Q, R:r, Ralpha:x)")


def _cmd_surface(args):
    if args.resolution < 1:
        raise _UsageError("--resolution must be >= 1")
    kind, param = _parse_quantity(args.quantity, 3)
    res = args.resolution
    points = [
        (i, j, res - i - j)
        for i in range(res, -1, -1)
        for j in range(res - i, -1, -1)
    ]
    lam = np.array(points, dtype=float) / res
    lam = np.sort(lam, axis=1)[:, ::-1]
    orders = _orders_matrix(lam)
    if kind == "order":
        values = orders[:, param - 1]
    else:
        values = orders @ binomial_weights(3, param)
    lines = ["lambda1,lambda2,lambda3,value"]
    for (i, j, k), v in zip(points, values):
        lines.append(f"{_g15(i / res)},{_g15(j / res)},{_g15(k / res)},{_g15(v)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _build_parser():
    parser = _Parser(prog="subentropy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("compute", help="full entropy/subentropy report")
    c.add_argument("--input", "-i", default=None, help="JSON state file (default stdin)")
    c.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--alpha-grid", dest="alpha_grid", default=None,
                   metavar="START:STOP:STEP", help="interpolant sampling grid")
    c.set_defaults(func=_cmd_compute)

    o = sub.add_parser("oracle", help="independent numerical estimate")
    o.add_argument("method", choices=("contour", "simplex", "haar"))
    o.add_argument("--input", "-i", default=None)
    o.add_argument("--output", "-o", default=None)
    o.add_argument("--r", type=int, default=None, help="order (default: dimension)")
    o.add_argument("--alpha", type=float, default=None, help="interpolant parameter")
    o.add_argument("--samples", type=int, default=100000)
    o.add_argument("--seed", type=int, default=None,
                   help="RNG seed (drawn and echoed when omitted)")
    o.add_argument("--nodes", type=int, default=None, help="contour quadrature nodes")
    o.set_defaults(func=_cmd_oracle)

    k = sub.add_parser("check", help="run property suites, JSON-lines verdicts")
    k.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    k.add_argument("--n", type=int, default=4, help="spectrum dimension for sampling")
    k.add_argument("--trials", type=int, default=100)
    k.add_argument("--samples", type=int, default=20000, help="MC samples per run")
    k.add_argument("--seed", type=int, default=None)
    k.add_argument("--output", "-o", default=None)
    k.set_defaults(func=_cmd_check)

    f = sub.add_parser("surface", help="quantity on the 3-dim simplex, CSV")
    f.add_argument("quantity", help="S | Q | R:r | Ralpha:x")
    f.add_argument("--resolution", type=int, default=25,
                   help="barycentric subdivisions per edge")
    f.add_argument("--output", "-o", default=None)
    f.set_defaults(func=_cmd_surface)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except _ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"cannot read/write: {exc}\n")
        return 2
    except (ValidationError, NoConvergenceError, DegenerateContourError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 3
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 4
    except (InvalidRError, InvalidIndexError, AlphaOutOfRangeError,
            TooFewSamplesError, _UsageError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
