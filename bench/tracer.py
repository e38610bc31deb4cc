"""Per-layer spans around hardy_lab, installed at run time from outside it.

``Tracer.install`` replaces each public function of every module of
``src/hardy_lab`` (and the ``RadialModel`` / ``VerificationReport``
methods) by a timing wrapper.  It rebinds every name that refers to the
original function, so names copied by ``from .x import f`` in ``cli``,
``optimality``, ``greens`` and the package ``__init__`` are wrapped too.
Nothing under ``src/`` changes.

Each call gets a frame on one stack.  A frame's self time is its duration
minus the durations of the wrapped calls made inside it, so self times of
all frames plus the benchmark's own glue add up to the traced pass.

Every frame belongs to a stage ``<module>.<stage>``: its function's own
stage from ``STAGES``, else its caller's stage when the caller is in the
same module, else ``<module>.other``.  Time and call counts are kept per
(function, stage).  Span records (id, parent id, operation index, name,
stage, start, end) are kept in memory for the first ``SPAN_CAP`` calls of
each function and only counted and timed past it.  The per-radius
``RadialModel`` accessors are called hundreds of thousands of times, so
they are never recorded as spans: only their call count and total time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import defaultdict

MODULES = ("radial_model", "hardy_weights", "spectral_ops", "optimality",
           "greens", "continuum", "reporting", "cli")

# Classes whose public methods are wrapped like module functions.
CLASSES = {"radial_model": ("RadialModel",), "reporting": ("VerificationReport",)}

# Private cli helpers that are wrapped as well: spec parsing is a layer.
CLI_PARSERS = ("_parse_model_spec", "_parse_space_spec", "_parse_gamma")

SCALAR_ACCESSORS = ("k_plus", "k_minus", "vol", "area", "kappa")
# Per-radius accessors that call nothing wrapped; they get a lean wrapper
# that keeps call counts and time only.
LEAVES = frozenset(f"RadialModel.{name}" for name in SCALAR_ACCESSORS)

STAGES = {
    "radial_model": {
        **{f"RadialModel.{name}": "scalar" for name in SCALAR_ACCESSORS},
        **{f"RadialModel.{name}_floats": "float_view"
           for name in ("k_plus", "k_minus", "kappa", "log_vol", "log_area")},
        "expand_vertex_graph": "expand",
        "save_model": "io",
        "load_model": "io",
    },
    "hardy_weights": {
        "closed_form_weight": "closed_form",
        "general_closed_form": "closed_form",
        "weight_floor": "closed_form",
        "fitzsimmons_weight": "mpmath",
        "fitzsimmons_ratio": "mpmath",
        "check_superharmonic_ground": "superharmonic",
        "check_superharmonic_sqrt_ground": "superharmonic",
    },
    "spectral_ops": {
        "hardy_form_matrix": "assembly",
        "count_eigenvalues_below": "sturm",
        "tree_ball_pivots": "tree_pivot",
        "tree_ball_is_positive": "tree_pivot",
        "tree_ball_bottom_eigenvalue": "tree_pivot",
        "vertex_energy": "vertex",
        "vertex_laplacian": "vertex",
        "ball_form_matrix": "vertex",
    },
    "optimality": {
        "check_criticality_agreement": "criticality",
        "criticality_energy": "criticality",
        "check_cutoff_decay": "criticality",
        "optimality_probe": "probe",
        "inflation_refutation": "probe",
        "check_lambda0_bound": "lambda0",
        "check_properness": "properness",
        "check_bounded_oscillation": "oscillation",
        "check_null_criticality": "nullcrit",
        "ground_weight_mass_terms": "nullcrit",
        "check_ground_state_transform": "transform",
        "check_ground_state_identity": "transform",
    },
    "greens": {
        "transience_test": "transience",
        "green_function": "recursion",
        "green_function_exact": "recursion",
        "green_weight": "recursion",
        "compare_to_green": "compare",
    },
    "continuum": {
        "check_harmonicity": "residual",
        "harmonicity_residual": "residual",
        "check_closed_form_agreement": "residual",
        "check_harmonic_condition": "residual",
        "check_model_optimality_condition": "residual",
    },
    "reporting": {
        "json_text": "serialize",
        "csv_text": "serialize",
        "write_json": "serialize",
        "write_csv": "serialize",
        "VerificationReport.to_dict": "serialize",
        "VerificationReport.summary_line": "serialize",
    },
    "cli": {name: "parse" for name in CLI_PARSERS},
}

SPAN_CAP = 1000


def _n_points(signature):
    def count(args, kwargs, result, parent):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n_points"]
    return count


def _counters(qualname, fn):
    """(counter name, fn(args, kwargs, result, parent qualname) -> int) pairs."""
    if qualname == "expand_vertex_graph":
        return [("radial_model.expanded_edges", lambda a, k, res, p: res.n_edges)]
    if qualname == "closed_form_weight":
        return [("hardy_weights.closed_form_radii", lambda a, k, res, p: res.r_max + 1)]
    if qualname == "fitzsimmons_weight":
        return [("hardy_weights.mpmath_radii", lambda a, k, res, p: len(res))]
    if qualname == "hardy_form_matrix":
        return [("spectral_ops.assembled_rows", lambda a, k, res, p: res.n)]
    if qualname == "count_eigenvalues_below":
        return [
            ("spectral_ops.sturm_rows",
             lambda a, k, res, p: (a[0] if a else k["form"]).n),
            ("spectral_ops.bisection_steps",
             lambda a, k, res, p: int(p == "smallest_eigenvalue")),
        ]
    if qualname in ("harmonicity_residual", "check_closed_form_agreement",
                    "check_harmonic_condition"):
        return [("continuum.grid_points", _n_points(inspect.signature(fn)))]
    return []


class Tracer:
    """Timing wrappers, the frame stack and what the frames recorded."""

    def __init__(self):
        # frame: [child seconds, stage, module, span id, qualname]
        self._stack = [[0.0, "bench", "bench", 0, "bench"]]
        self._agg = defaultdict(lambda: [0, 0.0, 0.0])  # count, self, inclusive
        self._counts = defaultdict(int)
        self.spans = []
        self.op_index = -1
        self._ids = itertools.count(1)
        self._pass_start = None

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every traced function of ``package`` and rebind all its names."""
        import importlib

        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in MODULES}
        replaced = {}
        for module_name, module in modules.items():
            for name, obj in list(vars(module).items()):
                traced_name = (not name.startswith("_")) or (
                    module_name == "cli" and name in CLI_PARSERS)
                if (traced_name and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    replaced[id(obj)] = self._wrap(obj, name, module_name)
            for cls_name in CLASSES.get(module_name, ()):
                cls = getattr(module, cls_name)
                for name, obj in list(vars(cls).items()):
                    if not name.startswith("_") and inspect.isfunction(obj):
                        setattr(cls, name, self._wrap(obj, f"{cls_name}.{name}",
                                                      module_name))
        # rebind in every namespace that holds one of the originals
        for namespace in [package, *modules.values()]:
            for name, obj in list(vars(namespace).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(namespace, name, wrapper)

    def _wrap(self, fn, qualname, module):
        own = STAGES.get(module, {}).get(qualname)
        own_stage = f"{module}.{own}" if own else None
        other_stage = f"{module}.other"
        counters = _counters(qualname, fn)
        stack, agg, counts, spans = self._stack, self._agg, self._counts, self.spans
        perf = time.perf_counter

        if qualname in LEAVES:
            entry = agg[(qualname, own_stage)]

            def traced_leaf(*args, **kwargs):
                # calls nothing wrapped: no frame, no span record, only totals
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf() - t0
                    stack[-1][0] += duration
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration

            return functools.update_wrapper(traced_leaf, fn)

        entries = {}  # stage -> this function's totals in that stage
        n_spans = [0]
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1]
            if own_stage is not None:
                stage = own_stage
            elif parent[2] == module:
                stage = parent[1]
            else:
                stage = other_stage
            recorded = n_spans[0] < SPAN_CAP
            if recorded:
                n_spans[0] += 1
                span_id = next(ids)
            else:
                span_id = parent[3]
            frame = [0.0, stage, module, span_id, qualname]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                parent[0] += duration
                entry = entries.get(stage)
                if entry is None:
                    entry = entries[stage] = agg[(qualname, stage)]
                entry[0] += 1
                entry[1] += duration - frame[0]
                entry[2] += duration
                if recorded:
                    spans.append((span_id, parent[3], self.op_index, qualname,
                                  stage, t0, t1))
            for name, count in counters:
                counts[name] += count(args, kwargs, result, parent[4])
            return result

        return functools.update_wrapper(traced, fn)

    # -- pass boundaries and results --------------------------------------

    def start_pass(self):
        self._pass_start = time.perf_counter()

    def finish_pass(self):
        """Close the root frame; returns the pass's wall time."""
        wall = time.perf_counter() - self._pass_start
        root = self._stack[0]
        self._agg[("bench", "bench")] = [1, wall - root[0], wall]
        return wall

    def layers(self, wall, stdout_bytes):
        """Per-layer metrics as {name: (value, unit)}."""
        self_s = defaultdict(float)
        stage_s = defaultdict(float)
        calls = defaultdict(int)
        parse_s = 0.0
        for (qualname, stage), (count, self_t, incl) in self._agg.items():
            module = stage.split(".", 1)[0]
            self_s[module] += self_t
            stage_s[stage] += self_t
            calls[qualname] += count
            if qualname in CLI_PARSERS:
                parse_s += incl
        out = {}
        for module in MODULES:
            out[f"{module}.self_s"] = (self_s[module], "s")
        for module, stages in STAGES.items():
            for stage in sorted(set(stages.values())):
                if module == "cli":
                    continue
                out[f"{module}.{stage}_s"] = (stage_s[f"{module}.{stage}"], "s")
        out["cli.parse_s"] = (parse_s, "s")
        out["radial_model.scalar_calls"] = (
            sum(calls[f"RadialModel.{n}"] for n in SCALAR_ACCESSORS), "count")
        out["spectral_ops.sturm_calls"] = (calls["count_eigenvalues_below"], "count")
        for name in ("radial_model.expanded_edges", "hardy_weights.closed_form_radii",
                     "hardy_weights.mpmath_radii", "spectral_ops.assembled_rows",
                     "spectral_ops.sturm_rows", "spectral_ops.bisection_steps",
                     "continuum.grid_points"):
            out[name] = (self._counts[name], "count")
        out["reporting.bytes_out"] = (stdout_bytes, "bytes")
        out["bench.self_s"] = (self_s["bench"], "s")
        layer_total = sum(self_s[m] for m in MODULES)
        out["trace.coverage"] = (layer_total / wall if wall > 0 else 0.0, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, stage, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "stage": stage, "start": t0 - self._pass_start,
                    "end": t1 - self._pass_start,
                }) + "\n")
            for (qualname, stage), (count, self_t, incl) in sorted(self._agg.items()):
                fh.write(json.dumps({
                    "aggregate": qualname, "stage": stage, "calls": count,
                    "self_s": self_t, "inclusive_s": incl,
                }) + "\n")
