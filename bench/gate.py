"""Correctness gate behind the benchmark's ``failed`` count.

``observe`` turns one operation's output into the checks it reports:
``verify`` / ``continuum`` summary lines, ``--json`` report lists, or the
JSON the library operations emit.  ``judge`` compares an observation with
the reference recorded in ``reference.json`` and with the pinned
tolerances below.  An operation fails when it raised, exited 1 or 2, lost
a reference check, got a worse status than the reference (pass becomes
anything else, or anything becomes fail) or moved a pinned residual out of
its tolerance.
"""

from __future__ import annotations

import json
import re

_LINE = re.compile(r"^(?P<status>[A-Z-]+)\s+(?P<check>\S+)(?:\s+\[(?P<res>.*)\])?$")

# The package's own tolerances.
ROUTE_TOL = 1e-12          # 50-digit ratio route against the closed form
BOTTOM_TOL = -1e-10        # section and ball bottoms stay nonnegative
CRITICALITY_TOL = 1e-10    # the two criticality routes agree
TREE2_FIRST_REFUTED = 32   # inflation by 0.1 is refuted on the annulus [2, 32]


def _parse_residuals(text):
    out = {}
    for item in text.split(", ") if text else ():
        key, _, value = item.partition("=")
        out[key] = float(value)
    return out


def observe(output):
    """[(check, status, residuals, params)] reported by one operation."""
    stripped = output.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        payload = json.loads(output)
        reports = payload if isinstance(payload, list) else [payload]
        return [(r["check"], r["status"], r.get("residuals", {}),
                 r.get("params", {})) for r in reports]
    observed = []
    for line in output.splitlines():
        match = _LINE.match(line.rstrip())
        if match and match["status"].lower() in (
                "pass", "fail", "inconclusive", "hypothesis-not-met"):
            observed.append((match["check"], match["status"].lower(),
                             _parse_residuals(match["res"]), {}))
    return observed


def _pinned(check, residuals, params):
    problems = []
    for key, value in residuals.items():
        if key.endswith("bottom") and value < BOTTOM_TOL:
            problems.append(f"{check}.{key}={value!r} < {BOTTOM_TOL}")
    if check == "criticality-two-routes":
        value = residuals.get("max_rel_diff")
        if value is None or not value <= CRITICALITY_TOL:
            problems.append(f"{check}.max_rel_diff={value!r} > {CRITICALITY_TOL}")
    if check == "weight-routes-agree":
        value = residuals.get("route_max_rel_diff")
        if value is None or not value <= ROUTE_TOL:
            problems.append(f"{check}.route_max_rel_diff={value!r} > {ROUTE_TOL}")
    if check == "inflation-refutation" and params.get("model") == "tree(d=2)":
        if params.get("first_refuted") != TREE2_FIRST_REFUTED:
            problems.append(f"{check}.first_refuted={params.get('first_refuted')!r}"
                            f" != {TREE2_FIRST_REFUTED}")
    return problems


def judge(op, reference):
    """Reasons why one operation result fails the gate; empty when it passes.

    ``op`` holds ``exit``, ``error`` and ``observed`` (from ``observe``);
    ``reference`` holds the recorded ``exit`` and ``checks`` or is None.
    """
    if op["error"] is not None:
        return [f"raised {op['error']}"]
    problems = []
    if op["exit"] in (1, 2):
        problems.append(f"exit code {op['exit']}")
    if reference is None:
        return problems + ["no reference recorded for this operation"]
    if op["exit"] == 3 and reference["exit"] == 0:
        problems.append("exit code 3, reference 0")
    seen = {check: status for check, status, _, _ in op["observed"]}
    for check, ref_status in reference["checks"]:
        status = seen.get(check)
        if status is None:
            problems.append(f"{check} missing")
        elif (ref_status == "pass" and status != "pass") or (
                status == "fail" and ref_status != "fail"):
            problems.append(f"{check} {status}, reference {ref_status}")
    known = {check for check, _ in reference["checks"]}
    for check, status, residuals, params in op["observed"]:
        if check not in known and status == "fail":
            problems.append(f"new check {check} fails")
        problems.extend(_pinned(check, residuals, params))
    return problems


def reference_entry(op):
    """What ``reference.json`` records for one operation."""
    return {"exit": op["exit"],
            "checks": [[check, status] for check, status, _, _ in op["observed"]]}
