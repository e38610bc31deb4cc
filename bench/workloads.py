"""The benchmark's three workloads, as ordered lists of operations.

Every operation runs inside one worker process and returns
``(exit_code, output_text)``.  Command line operations call
``hardy_lab.cli.main`` with an argument list; the caller captures what it
writes to stdout.  Library operations return their results serialized by
the package's own ``json_text``, so every operation has a byte output that
the correctness gate can parse and compare across passes.

The workload seed reaches the program in two places only: as
``verify --seed <seed>`` and as the extra seeded bases handed to
``optimality_probe`` in ``sections-1e5``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("battery-1200", "battery-deep", "sections-1e5")

# The ROADMAP roster at depth 1200: (spec, gamma, use --json).
ROSTER_1200 = (
    ("tree:2:1200", "0", True),
    ("tree:3:1200", "0", False),
    ("tree:3:1200", "1/3", False),
    ("antitree:poly:1:1200", "0", False),
    ("antitree:poly:2:1200", "0", True),
)
ROUND_TRIP_1200 = ("tree:2:1200", "antitree:poly:2:1200")
SPACES = ("hyperbolic:3", "hyperbolic:4", "dr:2:1", "dr:3:1", "dr:2:2")
CONTINUUM_POINTS = 2000

# tree:3 at 1e5 is left out on purpose: it costs 92 s, all of it the same
# quadratic d**r cost that tree:2 already shows.
ROSTER_DEEP = (
    ("tree:2:100000", "0", True),
    ("antitree:poly:1:100000", "0", False),
    ("antitree:poly:2:100000", "0", False),
)

SECTION_RADIUS = 10 ** 5
SECTION_SPECS = (f"tree:2:{SECTION_RADIUS + 1}", f"antitree:poly:1:{SECTION_RADIUS + 1}")
PROBE_LAM = 0.01
PROBE_WINDOW = 8
SEEDED_BASES = 8
INFLATION_LAM = 0.1
FITZSIMMONS_RADIUS = 1000
CRITICALITY_SCALES = (100, 1000, 10 ** 4, SECTION_RADIUS)


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], tuple]


def _cli(argv):
    def run():
        from hardy_lab.cli import main
        return main(list(argv)), None
    return run


def _save_then_digest(argv, path):
    """``model --out``: the output is the digest of the file it wrote."""
    def run():
        from hardy_lab.cli import main
        code = main(list(argv))
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return code, f"model file sha256 {digest}\n"
    return run


def _verify_argv(spec, gamma, seed, as_json):
    argv = ["verify", "--model", spec, "--gamma", gamma, "--suite", "all",
            "--seed", str(seed)]
    return argv + ["--json"] if as_json else argv


def _verify_op(spec, gamma, seed, as_json):
    name = f"verify {spec} gamma={gamma}" + (" --json" if as_json else "")
    return Operation(name, _cli(_verify_argv(spec, gamma, seed, as_json)))


def battery_1200(seed, tmp_dir):
    ops = [_verify_op(spec, gamma, seed, as_json)
           for spec, gamma, as_json in ROSTER_1200]
    for spec in ROUND_TRIP_1200:
        path = os.path.join(tmp_dir, spec.replace(":", "_") + ".model")
        ops.append(Operation(
            f"model {spec} --out",
            _save_then_digest(["model", "--model", spec, "--out", path], path),
        ))
        ops.append(Operation(
            f"verify file:<{spec}>",
            _cli(_verify_argv(f"file:{path}", "0", seed, False)),
        ))
    for space in SPACES:
        ops.append(Operation(
            f"continuum {space}",
            _cli(["continuum", "--space", space,
                  "--n-points", str(CONTINUUM_POINTS)]),
        ))
    return ops


def battery_deep(seed, tmp_dir):
    return [_verify_op(spec, gamma, seed, as_json)
            for spec, gamma, as_json in ROSTER_DEEP]


def seeded_bases(seed, r_max=SECTION_RADIUS, window=PROBE_WINDOW):
    """The default probe spine plus SEEDED_BASES bases drawn from ``seed``."""
    import numpy as np
    from hardy_lab.optimality import default_probe_bases
    rng = np.random.default_rng(seed)
    drawn = rng.integers(1, r_max - window, size=SEEDED_BASES)
    return sorted(set(default_probe_bases(r_max, window)) | {int(b) for b in drawn})


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


class _Section:
    """The seven radius-1e5 library calls on one model, sharing state."""

    def __init__(self, spec, bases):
        self.spec = spec
        self.bases = bases
        self.model = None
        self.weight = None

    @staticmethod
    def _text(payload):
        from hardy_lab.reporting import json_text
        return 0, json_text(payload)

    def build(self):
        # built through the CLI spec parser, exactly as `verify` builds it
        from hardy_lab.cli import _parse_model_spec
        self.model = _parse_model_spec(self.spec)
        return self._text([{"check": "model", "status": "ok",
                            "params": {"model": self.model.label,
                                       "depth": self.model.depth}}])

    def closed_form(self):
        import hardy_lab
        profile = hardy_lab.closed_form_weight(self.model, 0, SECTION_RADIUS)
        self.weight = profile.values
        return self._text([{
            "check": "closed-form-weight", "status": "ok",
            "params": {"model": self.model.label, "r_max": profile.r_max,
                       "values_sha256": _digest(profile.values),
                       "floor_sha256": _digest(profile.floor_values)},
        }])

    def fitzsimmons(self):
        import numpy as np
        import hardy_lab
        direct = hardy_lab.fitzsimmons_weight(self.model, 0, FITZSIMMONS_RADIUS)
        closed = self.weight[: FITZSIMMONS_RADIUS + 1]
        scale = np.maximum(1.0, np.abs(closed))
        diff = float(np.max(np.abs(direct - closed) / scale))
        return self._text([{
            "check": "weight-routes-agree", "status": "ok",
            "residuals": {"route_max_rel_diff": diff},
            "params": {"model": self.model.label, "r_max": FITZSIMMONS_RADIUS,
                       "values_sha256": _digest(direct)},
        }])

    def bottom(self):
        import hardy_lab
        form = hardy_lab.hardy_form_matrix(self.model, self.weight, 1, SECTION_RADIUS)
        bottom = hardy_lab.smallest_eigenvalue(form)
        return self._text([{
            "check": "section-bottom", "status": "ok",
            "residuals": {"section_bottom": bottom},
            "params": {"model": self.model.label, "n": form.n},
        }])

    def probe(self):
        import hardy_lab
        report = hardy_lab.optimality_probe(
            self.model, self.weight, PROBE_LAM, PROBE_WINDOW, SECTION_RADIUS,
            bases=self.bases,
        )
        return self._text([report])

    def inflation(self):
        import hardy_lab
        return self._text([hardy_lab.inflation_refutation(
            self.model, INFLATION_LAM, b_max=SECTION_RADIUS)])

    def criticality(self):
        import hardy_lab
        return self._text([hardy_lab.check_criticality_agreement(
            self.model, CRITICALITY_SCALES)])

    def nullcrit(self):
        import hardy_lab
        return self._text([hardy_lab.check_null_criticality(
            self.model, r_max=SECTION_RADIUS)])

    def operations(self):
        steps = ("build", "closed_form", "fitzsimmons", "bottom", "probe",
                 "inflation", "criticality", "nullcrit")
        return [Operation(f"{self.spec} {step}", getattr(self, step))
                for step in steps]


def sections_1e5(seed, tmp_dir):
    bases = seeded_bases(seed)
    ops = []
    for spec in SECTION_SPECS:
        ops.extend(_Section(spec, bases).operations())
    return ops


def sizes(workload, seed):
    """The workload's inputs, for the environment record."""
    if workload == "battery-1200":
        return {"roster": [list(r) for r in ROSTER_1200],
                "round_trip": list(ROUND_TRIP_1200), "spaces": list(SPACES),
                "continuum_points": CONTINUUM_POINTS}
    if workload == "battery-deep":
        return {"roster": [list(r) for r in ROSTER_DEEP]}
    return {"models": list(SECTION_SPECS), "radius": SECTION_RADIUS,
            "criticality_scales": list(CRITICALITY_SCALES),
            "probe_bases": seeded_bases(seed)}


def operations(workload, seed, tmp_dir):
    """The ordered operations of one pass of ``workload``."""
    builders = {
        "battery-1200": battery_1200,
        "battery-deep": battery_deep,
        "sections-1e5": sections_1e5,
    }
    return builders[workload](seed, tmp_dir)
