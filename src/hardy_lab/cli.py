"""Command line front end.

Subcommands
-----------
model      inspect a model or write it to the radial-model file format
weight     tabulate the optimal weight profile (csv or json)
green      tabulate Green function, Green weight and domination margins
verify     run verification suites and report pass/fail lines or json
continuum  closed-form weights on model manifolds and their residual checks

Model specs: ``tree:<d>:<depth>``, ``antitree:poly:<p>:<depth>`` (sphere
sizes (r+1)**p), or ``file:<path>``.  Space specs: ``hyperbolic:<d>``,
``dr:<p>:<q>``, or ``file:<path>``.

Exit codes: 0 all checks passed (or plain tables were produced), 1 at least
one check failed, 2 usage or domain error, 3 nothing failed but nothing
passed either (only inconclusive / hypothesis-not-met results).  Output
contains no timestamps; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import continuum as cont
from .errors import (
    HardyLabError,
    InconclusiveTransienceError,
    InvalidParameterError,
    NoCanonicalRealizationError,
    NoGreenFunctionError,
    SizeLimitExceededError,
)
from .greens import compare_to_green
from .hardy_weights import (
    check_superharmonic_ground,
    check_superharmonic_sqrt_ground,
    closed_form_weight,
)
from .optimality import (
    check_bounded_oscillation,
    check_criticality_agreement,
    check_cutoff_decay,
    check_ground_state_identity,
    check_ground_state_transform,
    check_lambda0_bound,
    check_null_criticality,
    check_properness,
    default_probe_bases,
    inflation_refutation,
    optimality_probe,
)
from .radial_model import load_model, make_antitree, make_tree, save_model
from .reporting import VerificationReport, _atomic_write, csv_text, json_text

SUITES = ("all", "criticality", "nullcrit", "probe", "lambda0")


def _spec_int(token, text):
    try:
        return int(token)
    except ValueError:
        raise InvalidParameterError(f"bad integer {token!r} in spec {text!r}") from None


def _parse_model_spec(text):
    parts = text.split(":")
    if parts[0] == "tree" and len(parts) == 3:
        return make_tree(_spec_int(parts[1], text), _spec_int(parts[2], text))
    if parts[0] == "antitree" and len(parts) == 4 and parts[1] == "poly":
        p, depth = _spec_int(parts[2], text), _spec_int(parts[3], text)
        if p < 0:
            raise InvalidParameterError("antitree exponent must be nonnegative")
        return make_antitree(
            lambda r: (r + 1) ** p, depth, label=f"antitree(poly,{p})"
        )
    if parts[0] == "file" and len(parts) >= 2:
        return load_model(text.partition(":")[2])
    raise InvalidParameterError(
        f"bad model spec {text!r}; expected tree:<d>:<depth>, "
        "antitree:poly:<p>:<depth> or file:<path>"
    )


def _parse_space_spec(text):
    parts = text.split(":")
    if parts[0] == "hyperbolic" and len(parts) == 2:
        return cont.hyperbolic_space(_spec_int(parts[1], text))
    if parts[0] == "dr" and len(parts) == 3:
        return cont.damek_ricci_space(_spec_int(parts[1], text), _spec_int(parts[2], text))
    if parts[0] == "file" and len(parts) >= 2:
        return cont.load_density(text.partition(":")[2])
    raise InvalidParameterError(
        f"bad space spec {text!r}; expected hyperbolic:<d>, dr:<p>:<q> "
        "or file:<path>"
    )


def _parse_gamma(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameterError(f"bad gamma {text!r}; expected a number") from None


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _exit_code(reports):
    statuses = [r.status for r in reports]
    if "fail" in statuses:
        return 1
    if "pass" not in statuses and statuses:
        return 3
    return 0


def _nan_to_none(values):
    return [None if (isinstance(v, float) and v != v) else float(v) for v in values]


def _guarded(check_name, model_label, fn):
    """Run a check; degrade domain refusals to a labeled non-verdict."""
    try:
        return fn()
    except (NoGreenFunctionError, NoCanonicalRealizationError,
            SizeLimitExceededError) as exc:
        return VerificationReport(
            check=check_name, status="hypothesis-not-met",
            params={"model": model_label}, notes=(str(exc),),
        )
    except InconclusiveTransienceError as exc:
        return VerificationReport(
            check=check_name, status="inconclusive",
            params={"model": model_label}, notes=(str(exc),),
        )


# -- subcommands ---------------------------------------------------------------

def cmd_model(args):
    model = _parse_model_spec(args.model)
    if args.out is not None:
        save_model(model, args.out, r_max=args.r_max)
        return 0
    r_max = args.r_max if args.r_max is not None else min(model.depth, 20)
    tail = model.tail
    lines = [
        f"label {model.label}",
        f"depth {model.depth}",
        f"tail {tail.kind}" + (
            f" kappa_inf={tail.kappa_inf} start={tail.start}"
            if tail.kind == "eventually-geometric" else ""
        ),
        "r k_plus k_minus vol area",
    ]
    for r, kp, km, vol in model.radial_data(r_max):
        kp_txt = "-" if kp is None else str(kp)
        lines.append(f"{r} {kp_txt} {km} {vol} {model.area(r)}")
    _emit("\n".join(lines) + "\n", None)
    return 0


def cmd_weight(args):
    model = _parse_model_spec(args.model)
    gamma = _parse_gamma(args.gamma)
    r_max = min(args.r_max, model.depth - 1)
    profile = closed_form_weight(model, gamma, r_max)
    rows = [
        (r, float(profile.values[r]),
         float(profile.floor_values[r]), profile.admissible)
        for r in range(r_max + 1)
    ]
    if args.format == "json":
        payload = {
            "model": model.label,
            "gamma": str(gamma),
            "r_min": profile.r_min,
            "admissible": profile.admissible,
            "notes": list(profile.notes),
            "w": _nan_to_none(profile.values),
            "floor": _nan_to_none(profile.floor_values),
        }
        _emit(json_text(payload), args.out)
    else:
        _emit(csv_text(("r", "w", "floor", "admissible"), rows), args.out)
    return 0


def cmd_green(args):
    model = _parse_model_spec(args.model)
    r_max = min(args.r_max, model.depth - 2)
    try:
        comparison = compare_to_green(model, r_max)
    except (NoGreenFunctionError, InconclusiveTransienceError) as exc:
        print(f"no-green-function: {exc}", file=sys.stderr)
        return 3
    profile = comparison.green_profile
    if args.format == "json":
        payload = {
            "model": model.label,
            "tail_method": profile.tail_method,
            "tail_error_bound": profile.tail_error_bound,
            "G": _nan_to_none(profile.values),
            "w_green": _nan_to_none(comparison.w_green),
            "w0": _nan_to_none(comparison.w_optimal),
            "margin": _nan_to_none(comparison.margins),
            "report": comparison.report.to_dict(),
        }
        _emit(json_text(payload), args.out)
    else:
        rows = [
            (r, float(profile.values[r]), float(comparison.w_green[r]),
             float(comparison.w_optimal[r]), float(comparison.margins[r]))
            for r in range(r_max + 1)
        ]
        _emit(csv_text(("r", "G", "w_green", "w0", "margin"), rows), args.out)
        print(comparison.report.summary_line(), file=sys.stderr)
    return _exit_code([comparison.report])


def _probe_bases(args, r_max):
    bases = default_probe_bases(r_max, args.window)
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        hi = r_max - args.window
        if hi > 1:
            bases = sorted(set(bases) | set(
                int(b) for b in rng.integers(1, hi, size=8)
            ))
    return bases


def cmd_verify(args):
    model = _parse_model_spec(args.model)
    gamma = _parse_gamma(args.gamma)
    depth = model.depth
    seed = args.seed if args.seed is not None else 2026
    reports = []
    suite = args.suite

    if suite in ("all", "criticality"):
        n_values = tuple(n for n in (10, 100, 1000) if n <= depth)
        if len(n_values) < 2:
            raise InvalidParameterError(
                "criticality needs depth >= 100 so at least two scales fit"
            )
        reports.append(check_criticality_agreement(model, n_values, gamma=gamma))
        reports.append(check_cutoff_decay())
    if suite in ("all", "nullcrit"):
        reports.append(check_null_criticality(
            model, gamma=gamma, r_max=min(10 ** 4, depth - 1)
        ))
    if suite in ("all", "probe"):
        r_max = min(2048, depth - 1)
        w = closed_form_weight(model, gamma, r_max).values
        reports.append(optimality_probe(
            model, w, lam=args.lam, window=args.window, r_max=r_max,
            bases=_probe_bases(args, r_max),
        ))
        reports.append(inflation_refutation(
            model, lam=max(args.lam, 0.1), gamma=gamma, b_max=r_max
        ))
    if suite in ("all", "lambda0"):
        reports.append(check_lambda0_bound(model))
    if suite == "all":
        r_mid = min(512, depth - 1)
        reports.append(check_superharmonic_ground(model, gamma, r_mid))
        reports.append(check_superharmonic_sqrt_ground(model, gamma, r_mid))
        reports.append(check_ground_state_identity(
            model, gamma, min(64, depth - 1), level="radial"
        ))
        reports.append(_guarded(
            "ground-state-identity-vertex", model.label,
            lambda: check_ground_state_identity(
                model, gamma, 6, level="vertex"
            ),
        ))
        reports.append(_guarded(
            "ground-state-transform", model.label,
            lambda: check_ground_state_transform(model, gamma, 8, seed=seed),
        ))
        reports.append(check_bounded_oscillation(model, min(1000, depth - 1)))
        reports.append(_guarded(
            "properness-proxy", model.label, lambda: check_properness(model)
        ))
        reports.append(_guarded(
            "weight-dominates-green", model.label,
            lambda: compare_to_green(model, min(128, depth - 2)).report,
        ))

    for r in reports:
        r.params.setdefault("seed", seed)
    if args.json:
        _emit(json_text(reports), args.out)
    else:
        _emit("".join(r.summary_line() + "\n" for r in reports), args.out)
    return _exit_code(reports)


def cmd_continuum(args):
    space = _parse_space_spec(args.space)
    if args.check == "table":
        closed = cont.closed_form_weight_fn(space)
        grid = np.linspace(args.r_min, args.r_max, args.n_points)
        rows = []
        for ri in grid:
            w = float(cont.density_weight(space, float(ri)))
            if closed is None:
                rows.append((float(ri), w, float("nan"), float("nan")))
            else:
                c = float(closed(float(ri)))
                rows.append((float(ri), w, c, abs(w - c)))
        _emit(csv_text(("r", "w", "closed_form", "abs_diff"), rows), args.out)
        return 0
    reports = [
        cont.check_harmonicity(space, args.r_min, args.r_max,
                               h_step=args.step, which="sqrt-u",
                               n_points=args.n_points),
        cont.check_harmonicity(space, args.r_min, args.r_max,
                               h_step=args.step, which="sqrt-u-log",
                               n_points=args.n_points),
        cont.check_closed_form_agreement(space, args.r_min, args.r_max,
                                         n_points=args.n_points),
        cont.check_harmonic_condition(space, args.r_min, args.r_max,
                                      n_points=args.n_points),
    ]
    if args.json:
        _emit(json_text(reports), args.out)
    else:
        _emit("".join(r.summary_line() + "\n" for r in reports), args.out)
    return _exit_code(reports)


# -- parser --------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hardy-lab",
        description="optimal Hardy weights on radial graph models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True,
                       help="tree:<d>:<depth> | antitree:poly:<p>:<depth> | file:<path>")

    p = sub.add_parser("model", help="inspect or save a model")
    add_model(p)
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="write the radial-model file here instead of printing")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("weight", help="tabulate the optimal weight")
    add_model(p)
    p.add_argument("--gamma", default="0")
    p.add_argument("--r-max", type=int, default=32)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_weight)

    p = sub.add_parser("green", help="Green function and domination margins")
    add_model(p)
    p.add_argument("--r-max", type=int, default=64)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("verify", help="run verification suites")
    add_model(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--gamma", default="0")
    p.add_argument("--lam", type=float, default=0.01,
                   help="inflation size for the probe suite")
    p.add_argument("--window", type=int, default=8,
                   help="inflation window width for the probe suite")
    p.add_argument("--seed", type=int, default=None,
                   help="adds seeded random probe bases to the deterministic ones")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("continuum", help="weights on model manifolds")
    p.add_argument("--space", required=True,
                   help="hyperbolic:<d> | dr:<p>:<q> | file:<path>")
    p.add_argument("--check", choices=("residual", "table"), default="residual")
    p.add_argument("--r-min", type=float, default=0.5)
    p.add_argument("--r-max", type=float, default=8.0)
    p.add_argument("--step", type=float, default=1e-3,
                   help="finite difference step for residual checks")
    p.add_argument("--n-points", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_continuum)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HardyLabError, OSError) as exc:
        # OSError: a model, density or --out path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
