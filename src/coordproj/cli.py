"""Command-line front end.

Reads vector or function-class data from CSV, runs one experiment per
subcommand, and writes a JSON report plus optional plot-ready CSV.
Exit codes: 0 success, 2 validation error, 3 size cap or memory
exhausted, 4 I/O error, 5 failed certificate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .complexity import (
    ell_parameter,
    entropy_integral_audit,
    gaussian_complexity,
    rademacher_complexity,
    t_parameter,
    type_infratype_report,
)
from .core import (CertificateError, CoordinateSubset, FunctionClass, InputError,
                   RngStream, SizeCapError, check_count, check_substreams)
from .entropy import entropy_inequality_audit
from .orlicz import psi_norms
from .rotation import DEFAULT_JL_CONSTANT, coordinate_jl
from .selector import selector_experiment
from .shatter import (_DEFAULT_MAX_HULL_SIGMA, _LP_FEAS_TOL, dual_ball_class, l1_domination,
                      vc_convex_hull, vc_dimension)

DEFAULT_SEED = 1729

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_SIZE_CAP = 3
_EXIT_IO = 4
_EXIT_CERTIFICATE = 5


# ---------------------------------------------------------------- formatting

def _float_str(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


class _ReportEncoder(json.JSONEncoder):
    """JSON encoder emitting floats with 17 significant digits."""

    def iterencode(self, o, _one_shot=False):
        markers = {} if self.check_circular else None
        return json.encoder._make_iterencode(
            markers,
            self.default,
            json.encoder.encode_basestring_ascii,
            self.indent,
            _float_str,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            _one_shot,
        )(o, 0)


def render_report(report: dict) -> str:
    return json.dumps(report, cls=_ReportEncoder, indent=2) + "\n"


# ---------------------------------------------------------------------- CSV

def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def read_matrix(path: str) -> np.ndarray:
    """Parses a CSV of row vectors.

    Comma-separated decimals, one vector per row; a UTF-8 byte order mark
    is dropped, blank lines and lines starting with # are skipped; the
    first remaining line may be a header with no numeric field, and any
    other unparseable line is an error.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [s for s in (raw.strip() for raw in fh) if s and not s.startswith("#")]
    if lines:
        try:
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:  # a header, a field float() reads and loadtxt does not, or a bad row
            pass
    rows: list[list[float]] = []
    for i, line in enumerate(lines):
        parts = line.split(",")
        try:
            rows.append(list(map(float, parts)))
        except ValueError:  # a header, or a bad row: only now is each cell tested
            if i > 0 or any(_number(p) is not None for p in parts):
                raise InputError("BAD_CSV", f"unparseable row: {line!r}") from None
    if not rows:
        raise InputError("EMPTY_CSV", f"no numeric rows in {path}")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise InputError(
                "RAGGED_CSV", f"row {i + 1} has {len(r)} fields, expected {width}")
    return np.asarray(rows, dtype=float)


def write_matrix(path: str, header, rows) -> None:
    """Writes rows of numbers as CSV with 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append(_float_str(float(v)))
            fh.write(",".join(cells) + "\n")


# ------------------------------------------------------------------ helpers

def _parse_norm(text: str):
    if text == "sup":
        return "sup"
    try:
        return float(text)
    except ValueError:
        raise InputError("BAD_NORM", f"norm must be 'sup' or a number, got {text!r}")


def _parse_grid(text: str) -> tuple:
    try:
        vals = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise InputError("BAD_GRID", f"grid must be comma-separated numbers, got {text!r}")
    if not vals:
        raise InputError("BAD_GRID", "grid must be nonempty")
    return vals


def _estimate_json(est) -> dict:
    out = {
        "mean": est.mean,
        "std_error": est.std_error,
        "trials": est.trials,
        "kind": est.kind,
        "method": est.method,
    }
    if est.support is not None:
        out["support"] = list(est.support)
    return out


def _witness_json(w) -> dict | None:
    if w is None:
        return None
    assignment = []
    for pattern, target in w.assignment.items():
        entry = {"pattern": "".join("+" if s > 0 else "-" for s in pattern)}
        if isinstance(target, (int, np.integer)):
            entry["function"] = int(target) + 1
        else:
            entry["weights"] = [float(v) for v in np.asarray(target).ravel()]
        assignment.append(entry)
    out = {
        "sigma": list(w.sigma.indices),
        "levels": [float(v) for v in np.asarray(w.level).ravel()],
        "scale": float(w.scale),
        "assignment": assignment,
    }
    if w.margin is not None:
        out["margin"] = float(w.margin)
    return out


def _constant_json(c) -> dict:
    return {
        "name": c.name,
        "value": c.value,
        "protocol": c.protocol,
        "inputs_digest": c.inputs_digest,
    }


# ----------------------------------------------------------------- commands

def _run_psi(args, data, rng):
    res = psi_norms(data, args.p, tol=args.tol)
    rows = [
        {"index": i + 1, "psi": float(v), "iterations": res.iterations, "residual": float(r)}
        for i, (v, r) in enumerate(zip(res.values, res.residuals))
    ]
    csv_rows = [(row["index"], row["psi"]) for row in rows]
    results = {"p": args.p, "rows": rows}
    return results, [], [], (["index", "psi"], csv_rows)


def _run_project(args, data, rng):
    rows = []
    csv_rows = []
    flags: set = set()
    header = ["index", "success_prob", "exact_success_prob"]
    if args.t is not None:
        header += ["empirical_prob", "chernoff_bound", "fitted_c"]
    check_substreams(2 * len(data), f"{len(data)} rows")  # row i takes label 2i + 1
    for i, vec in enumerate(data):
        success, exact, tail = selector_experiment(vec, args.delta, args.eps, args.trials,
                                                   rng.substream(2 * i + 1), t=args.t)
        entry = {"index": i + 1, "success_prob": success, "exact_success_prob": exact}
        line = [i + 1, success, exact if exact is not None else math.nan]
        if tail is not None:
            entry["tail"] = {
                "t": tail.t,
                "empirical_prob": tail.empirical_prob,
                "two_sided_prob": tail.two_sided_prob,
                "chernoff_bound": tail.chernoff_bound,
                "exact_prob": tail.exact_prob,
                "fitted_c": tail.fitted_c,
                "psi1": tail.psi1,
            }
            flags.update(tail.flags)
            line += [tail.empirical_prob, tail.chernoff_bound,
                     tail.fitted_c if tail.fitted_c is not None else math.nan]
        rows.append(entry)
        csv_rows.append(tuple(line))
    results = {"delta": args.delta, "eps": args.eps, "trials": args.trials, "rows": rows}
    return results, [], sorted(flags), (header, csv_rows)


def _run_jl(args, data, rng):
    c_fit = DEFAULT_JL_CONSTANT if args.cfit is None else args.cfit
    report = coordinate_jl(data, args.eps, rng, c_fit=c_fit)
    ratios = [float(r) for r in report.per_vector_ratio]
    results = {
        "c_fit": c_fit,
        "eps": args.eps,
        "n": int(data.shape[1]),
        "vectors": int(data.shape[0]),
        "target_cardinality": report.target_cardinality,
        "delta": report.delta,
        "sigma_size": report.sigma.size,
        "sigma": list(report.sigma.indices),
        "psi2_max": report.psi2_max,
        "max_deviation": report.max_deviation,
        "success": bool(report.max_deviation <= args.eps),
        "ratios": ratios,
    }
    csv_rows = [(i + 1, r) for i, r in enumerate(ratios)]
    return results, [], sorted(report.flags), (["index", "ratio"], csv_rows)


def _run_shatter(args, data, rng):
    F = FunctionClass(data)
    res = vc_dimension(F, args.t, max_sigma=args.max_sigma)
    results = {
        "t": args.t,
        "functions": F.m,
        "points": F.n,
        "dimension": res.dimension,
        "witness": _witness_json(res.witness),
    }
    csv_rows = []
    if res.witness is not None:
        for pos, idx in enumerate(res.witness.sigma.indices):
            csv_rows.append((idx, float(res.witness.level[pos])))
    return results, [], [], (["point", "level"], csv_rows)


def _run_hull(args, data, rng):
    count = data.shape[0]
    dom = l1_domination(data, norm=_parse_norm(args.norm), rng=rng.substream(0),
                        samples=args.samples)
    F = dual_ball_class(data)
    witness = vc_convex_hull(F, CoordinateSubset.full(count), args.t,
                             max_sigma=args.max_sigma)
    shattered = witness is not None
    results = {
        "t": args.t,
        "points": count,
        "epsilon_star": dom.epsilon_star,
        "domination_method": dom.method,
        "minimizer": [float(v) for v in dom.minimizer],
        "hull_shattered": shattered,
        "hull_witness": _witness_json(witness),
        "agreement": shattered == (dom.epsilon_star >= args.t - _LP_FEAS_TOL * args.t),
    }
    csv_rows = [(i + 1, float(v)) for i, v in enumerate(dom.minimizer)]
    return results, [], [], (["index", "coefficient"], csv_rows)


def _run_entropy(args, data, rng):
    F = FunctionClass(data)
    audit = entropy_inequality_audit(F, _parse_grid(args.t_grid),
                                     c_assumed=args.c_assumed)
    rows = []
    csv_rows = []
    for row in audit.rows:
        rows.append({
            "t": row.t,
            "covering": row.covering,
            "covering_is_exact": row.covering_is_exact,
            "log_covering": row.log_covering,
            "vc": row.vc,
            "term": row.term,
        })
        csv_rows.append((row.t, row.covering, row.vc,
                         row.term if row.term is not None else math.nan))
    results = {"c_assumed": audit.c_assumed, "rows": rows}
    return (results, [_constant_json(audit.constant)], sorted(audit.flags),
            (["t", "covering", "vc", "term"], csv_rows))


def _run_complexity(args, data, rng):
    if args.csv_out and args.eps is None:  # the plot-ready curve is t(F, eps)
        raise InputError("BAD_INPUT", "complexity writes --csv-out only with --eps")
    F = FunctionClass(data)
    k_max = check_count(args.kmax, "k_max", 1, "BAD_K")  # checked with or without --eps
    k = None if args.k is None else check_count(args.k, "k", 1, "BAD_K")
    check_substreams(max(k or 0, k_max) + 1, "ell_k estimates")  # ell_k: label k of substream 3
    results: dict = {"trials": args.trials}
    flags: set = set()
    csv = None
    if args.kind in ("gaussian", "both"):
        results["gaussian"] = _estimate_json(
            gaussian_complexity(F, trials=args.trials, rng=rng.substream(0)))
    if args.kind in ("rademacher", "both"):
        results["rademacher"] = _estimate_json(
            rademacher_complexity(F, trials=args.trials, rng=rng.substream(1)))
    kind = "rademacher" if args.kind == "rademacher" else "gaussian"
    tres = None if args.eps is None else t_parameter(F, args.eps, k_max, trials=args.trials,
                                                     rng=rng.substream(3), kind=kind)
    if k is not None:  # t_parameter has estimated ell_k already when k <= k_max
        results["ell"] = _estimate_json(
            tres.per_k[k - 1] if tres is not None and k <= k_max else
            ell_parameter(F, k, trials=args.trials, rng=rng.substream(3).substream(k), kind=kind))
    if tres is not None:
        results["t_parameter"] = {
            "value": tres.value,
            "capped": tres.capped,
            "epsilon": tres.epsilon,
            "kind": tres.kind,
            "per_k": [_estimate_json(e) for e in tres.per_k],
        }
        if tres.capped:
            flags.add("CAPPED")
        csv = (["k", "mean", "std_error"],
               [(k + 1, e.mean, e.std_error) for k, e in enumerate(tres.per_k)])
    return results, [], sorted(flags), csv


def _run_typecmp(args, data, rng):
    report = type_infratype_report(
        data, norm=_parse_norm(args.norm), delta_grid=_parse_grid(args.delta_grid),
        trials=args.trials, rng=rng, subsets_per_size=args.subsets)
    rows = []
    csv_rows = []
    for row in report.rows:
        rows.append({
            "lambda": row.lam,
            "subset_size": row.subset_size,
            "m_emp": row.m_emp,
            "c_emp": row.c_emp,
            "min_sign_method": row.min_sign_method,
        })
        csv_rows.append((row.lam, row.subset_size, row.m_emp, row.c_emp))
    results = {
        "n": report.n,
        "norm": args.norm,
        "gaussian_mean": report.gaussian_mean,
        "gaussian_std_error": report.gaussian_std_error,
        "trials": report.trials,
        "rows": rows,
    }
    return (results, [], sorted(report.flags),
            (["lambda", "subset_size", "m_emp", "c_emp"], csv_rows))


def _run_audit(args, data, rng):
    F = FunctionClass(data)
    audit = entropy_integral_audit(F, trials=args.trials, rng=rng,
                                   grid_points=args.grid_points)
    results = {
        "e_mean": audit.e_mean,
        "e_std_error": audit.e_std_error,
        "trials": audit.trials,
        "integral": audit.integral,
        "grid": list(audit.grid),
        "vc_curve": list(audit.vc_curve),
    }
    csv_rows = list(zip(audit.grid, audit.vc_curve))
    return (results, [_constant_json(audit.constant)], sorted(audit.flags),
            (["t", "vc"], csv_rows))


_RUNNERS = {
    "psi": _run_psi,
    "project": _run_project,
    "jl": _run_jl,
    "shatter": _run_shatter,
    "hull": _run_hull,
    "entropy": _run_entropy,
    "complexity": _run_complexity,
    "typecmp": _run_typecmp,
    "audit": _run_audit,
}


# ------------------------------------------------------------------- parser

def _add_common(sp):
    sp.add_argument("--input", required=True, help="CSV file, one vector per row")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--output", default=None, help="write the JSON report here")
    sp.add_argument("--csv-out", default=None, help="write plot-ready CSV here")
    sp.add_argument("--deterministic", action="store_true",
                    help="omit wall-clock timing from the report")


@functools.cache  # one parser per process, however many times main runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordproj",
        description="Coordinate-projection experiments: Orlicz norms, selector "
                    "projections, shattering, entropy, and complexity averages.")
    parser.add_argument("--version", action="version", version=f"coordproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("psi", help="psi_p Orlicz norm of each input row")
    _add_common(sp)
    sp.add_argument("--p", type=float, default=2.0, help="Orlicz exponent, p >= 1")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="bisection tolerance, relative to each psi value")

    sp = sub.add_parser("project", help="selector-projection experiments per row")
    _add_common(sp)
    sp.add_argument("--delta", type=float, required=True, help="selector mean in (0, 1]")
    sp.add_argument("--eps", type=float, default=0.25, help="isometry tolerance in (0, 1)")
    sp.add_argument("--t", type=float, default=None,
                    help="also report the tail at threshold scale t, from the same draws")
    sp.add_argument("--trials", type=int, default=10000, help="Monte-Carlo trials")

    sp = sub.add_parser("jl", help="rotate rows and project onto a random subset")
    _add_common(sp)
    sp.add_argument("--eps", type=float, required=True, help="distortion target in (0, 1)")
    sp.add_argument("--cfit", type=float, default=None,
                    help=f"subset-size constant (default {DEFAULT_JL_CONSTANT})")

    sp = sub.add_parser("shatter", help="exact shattering dimension of the row class")
    _add_common(sp)
    sp.add_argument("--t", type=float, required=True, help="shattering scale, t > 0")
    sp.add_argument("--max-sigma", type=int, default=None,
                    help="largest subset size to try")

    sp = sub.add_parser("hull", help="l1-domination versus convex-hull shattering")
    _add_common(sp)
    sp.add_argument("--t", type=float, required=True, help="shattering scale, t > 0")
    sp.add_argument("--norm", default="sup", help="'sup' or a p >= 1 exponent")
    sp.add_argument("--samples", type=int, default=512,
                    help="directions when the domination is sampled: under a p-norm,"
                         " or past the exact cap on independent points")
    sp.add_argument("--max-sigma", type=int, default=_DEFAULT_MAX_HULL_SIGMA,
                    help="hull cap on the point count: a witness holds 2^k weight vectors")

    sp = sub.add_parser("entropy", help="covering numbers and the entropy audit")
    _add_common(sp)
    sp.add_argument("--t-grid", default="0.3,0.5,0.7",
                    help="comma-separated scales in (0, 1)")
    sp.add_argument("--c-assumed", type=float, default=0.25,
                    help="scale factor inside the dimension term")

    sp = sub.add_parser("complexity", help="Gaussian/Rademacher averages and ell_k")
    _add_common(sp)
    sp.add_argument("--kind", choices=["gaussian", "rademacher", "both"], default="both")
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--k", type=int, default=None, help="also estimate ell_k")
    sp.add_argument("--eps", type=float, default=None,
                    help="also compute t(F, eps) up to --kmax")
    sp.add_argument("--kmax", type=int, default=8)

    sp = sub.add_parser("typecmp", help="Gaussian average versus subset sign minima")
    _add_common(sp)
    sp.add_argument("--norm", default="2", help="'sup' or a p >= 1 exponent")
    sp.add_argument("--delta-grid", default="0.05,0.1,0.2",
                    help="comma-separated subset fractions")
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--subsets", type=int, default=8, help="subsets sampled per size")

    sp = sub.add_parser("audit", help="entropy-integral audit of the Gaussian average")
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--grid-points", type=int, default=17)

    return parser


def _config_echo(args) -> dict:
    skip = {"command", "seed", "output", "csv_out"}
    config = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        val = getattr(args, key)
        if val is None or isinstance(val, (bool, int, float, str)):
            config[key] = val
    config["output"] = args.output
    config["csv_out"] = args.csv_out
    return config


def run(args) -> dict:
    """Executes one parsed command and returns the report dict."""
    data = read_matrix(args.input)
    rng = RngStream(args.seed)
    start = time.perf_counter()
    results, constants, flags, csv = _RUNNERS[args.command](args, data, rng)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "schema": 12,
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "seed": args.seed,
        "results": results,
        "fitted_constants": constants,
        "flags": flags,
    }
    if not args.deterministic:
        report["timing_ms"] = elapsed_ms
    if args.csv_out and csv is not None:
        write_matrix(args.csv_out, csv[0], csv[1])
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
        text = render_report(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return _EXIT_OK
    except InputError as exc:
        code, message, exit_code = exc.code, str(exc), _EXIT_VALIDATION
    except SizeCapError as exc:
        code, message, exit_code = "SIZE_CAP", str(exc), _EXIT_SIZE_CAP
    except MemoryError as exc:
        code, message, exit_code = "MEMORY", str(exc) or "out of memory", _EXIT_SIZE_CAP
    except CertificateError as exc:
        code, message, exit_code = exc.code, str(exc), _EXIT_CERTIFICATE
    except OSError as exc:
        code, message, exit_code = "IO", str(exc), _EXIT_IO
    print(render_report({"error": {"code": code, "message": message}}),
          file=sys.stderr, end="")
    return exit_code
