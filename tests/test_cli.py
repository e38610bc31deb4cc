import ast
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardy_lab
from hardy_lab import (
    Tail,
    cli,
    load_model,
    make_antitree,
    make_custom,
    save_model,
    spectral_ops,
    transience_test,
)
from hardy_lab.cli import main
from hardy_lab.continuum import MAX_GRID_POINTS
from object_storage import object_storage


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weight_csv_half_line(capsys):
    code, out, _ = run(capsys, "weight", "--model", "tree:1:100",
                       "--gamma", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,w,floor,admissible"
    row1 = lines[2].split(",")
    assert int(row1[0]) == 1
    assert float(row1[1]) == pytest.approx(2 - math.sqrt(2), rel=1e-15)


def test_weight_r_max_is_clamped_to_depth(capsys):
    # default r-max is 32; a depth-10 model must still work
    code, out, _ = run(capsys, "weight", "--model", "tree:2:10")
    assert code == 0
    assert out.splitlines()[-1].startswith("9,")


@pytest.mark.parametrize("command, depth", [("weight", 2), ("green", 2), ("green", 3)])
def test_model_too_short_for_the_command_exits_2_naming_its_depth(tmp_path, capsys,
                                                                  command, depth):
    path = tmp_path / "short.model"
    assert run(capsys, "model", "--model", "tree:2:10", "--out", str(path),
               "--r-max", str(depth))[0] == 0
    code, out, err = run(capsys, command, "--model", f"file:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"has depth {depth}" in err and "r_max" not in err


def test_weight_json_contains_profile_metadata(capsys):
    code, out, _ = run(capsys, "weight", "--model", "tree:2:50",
                       "--gamma", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == "1/2"
    assert payload["admissible"] is True
    assert payload["r_min"] == 0
    assert payload["w"][0] == pytest.approx(0.0, abs=5e-16)


def test_green_on_recurrent_model_exits_3(capsys):
    code, out, err = run(capsys, "green", "--model", "tree:1:100")
    assert code == 3
    assert "no-green-function" in err
    assert out == ""


def test_green_table_on_transient_tree(capsys):
    code, out, err = run(capsys, "green", "--model", "tree:2:80", "--r-max", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,G,w_green,w0,margin"
    r3 = lines[4].split(",")
    assert float(r3[1]) == pytest.approx(1.0 / 8.0, rel=1e-12)  # G(3) = 1/2**3
    assert "PASS" in err


def test_verify_all_passes_on_tree(capsys):
    code, out, _ = run(capsys, "verify", "--model", "tree:2:1200")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 14
    assert all(ln.startswith(("PASS", "INCONCLUSIVE")) for ln in lines)
    assert sum(ln.startswith("PASS") for ln in lines) == 13


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--model", "tree:2:150",
                         "--json", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_recorded_in_every_report(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--model", "tree:2:150",
                     "--seed", "7", "--json", "--out", str(path))
    assert code == 0
    reports = json.loads(path.read_text())
    assert len(reports) >= 10
    assert all(rep["params"]["seed"] == 7 for rep in reports)


def test_verify_default_seed_is_recorded(capsys):
    code, out, _ = run(capsys, "verify", "--model", "tree:2:150", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(rep["params"]["seed"] == 2026 for rep in reports)


def test_verify_gamma_fraction_on_ternary_tree(capsys):
    code, out, _ = run(capsys, "verify", "--model", "tree:3:1100",
                       "--gamma", "1/3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_probe_only_quadratic_antitree_exits_3(capsys):
    code, out, _ = run(capsys, "verify", "--model", "antitree:poly:2:300",
                       "--suite", "probe")
    assert code == 3
    assert all(ln.startswith("INCONCLUSIVE") for ln in out.splitlines() if ln)


def test_verify_single_suites(capsys):
    for suite in ("criticality", "nullcrit", "lambda0"):
        code, out, _ = run(capsys, "verify", "--model", "tree:2:1100",
                           "--suite", suite)
        assert code == 0, suite
        assert "FAIL" not in out


def test_model_print_and_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "model", "--model", "tree:3:40")
    assert code == 0
    assert "label tree(d=3)" in out
    assert "tail eventually-geometric kappa_inf=3 start=1" in out

    path = tmp_path / "t3.model"
    code, _, _ = run(capsys, "model", "--model", "tree:3:40", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "weight", "--model", f"file:{path}",
                       "--r-max", "10")
    assert code == 0
    assert len(out.splitlines()) == 12


def test_model_file_too_short_to_reload_is_refused(tmp_path, capsys):
    path = tmp_path / "short.model"
    code, out, err = run(capsys, "model", "--model", "tree:2:10",
                         "--out", str(path), "--r-max", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "r_max" in err
    assert not path.exists()
    code, _, _ = run(capsys, "model", "--model", "tree:2:10",
                     "--out", str(path), "--r-max", "2")
    assert code == 0
    code, out, _ = run(capsys, "model", "--model", f"file:{path}")
    assert code == 0
    assert out.splitlines()[1] == "depth 2"


def test_continuum_residual_suite(capsys):
    code, out, _ = run(capsys, "continuum", "--space", "hyperbolic:4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 4
    assert all(ln.startswith("PASS") for ln in lines)
    code, _, _ = run(capsys, "continuum", "--space", "dr:2:1")
    assert code == 0


def test_continuum_table_and_density_file(tmp_path, capsys):
    code, out, _ = run(capsys, "continuum", "--space", "hyperbolic:3",
                       "--check", "table", "--r-min", "1", "--r-max", "2",
                       "--n-points", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,w,closed_form,abs_diff"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.25, rel=1e-9)

    density = tmp_path / "space.txt"
    density.write_text("radial-density v1\nkind model\ndim 4\ncurve sinh\n")
    code, out, _ = run(capsys, "continuum", "--space", f"file:{density}")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("grid", [("--n-points=-1",), ("--n-points=0",),
                                  ("--n-points=1",), ("--r-min=5", "--r-max=1"),
                                  (f"--n-points={MAX_GRID_POINTS + 1}",)])
def test_continuum_table_refuses_the_grids_the_residuals_refuse(capsys, grid):
    for check in ("table", "residual"):
        code, out, err = run(capsys, "continuum", "--space", "hyperbolic:3",
                             "--check", check, *grid)
        assert code == 2, check
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, name", [(("--step", "nan"), "h_step"),
                                        (("--r-max", "inf"), "r_max"),
                                        (("--r-max", "inf", "--check", "table"), "r_max")])
def test_continuum_non_finite_arguments_exit_2_naming_them(capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code, out, err = run(capsys, "continuum", "--space", "hyperbolic:3", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert name in err and "finite" in err


@pytest.mark.parametrize("depth, where", [(900, "at radius 512"),
                                          (1200, "at radius 1023")])
def test_degrees_past_the_double_range_exit_2(tmp_path, capsys, depth, where):
    # sphere sizes 2**r: at depth 900 the form couplings k_plus(r) k_minus(r+1)
    # = 2**(2r+1) pass the double range from r = 512, at depth 1200 the
    # degrees themselves do, from k_plus(1023) = 2**1024
    path = tmp_path / "exp.model"
    save_model(make_antitree(lambda r: 2 ** r, depth, label="antitree(exp,2)"), path)
    code, out, err = run(capsys, "verify", "--model", f"file:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and where in err


def test_out_files_match_stdout(tmp_path, capsys):
    # every subcommand that writes a report: same exit code, nothing on
    # stdout with --out, the file holds what stdout held, no temp file left
    cases = [
        ("weight", "--model", "tree:2:40"),
        ("weight", "--model", "tree:2:40", "--format", "json"),
        ("green", "--model", "tree:2:100"),
        ("green", "--model", "tree:2:100", "--format", "json"),
        ("green", "--model", "tree:1:100", "--format", "json"),  # exit 3
        ("verify", "--model", "tree:2:1200"),
        ("verify", "--model", "tree:2:1200", "--json"),
        ("continuum", "--space", "hyperbolic:3"),
        ("continuum", "--space", "hyperbolic:3", "--check", "table"),
    ]
    for i, argv in enumerate(cases):
        code, out, _ = run(capsys, *argv)
        path = tmp_path / f"report-{i}"
        code_out, silent, _ = run(capsys, *argv, "--out", str(path))
        assert code_out == code, argv
        assert silent == "", argv
        assert (path.read_text() if path.exists() else "") == out, argv
    assert not list(tmp_path.glob(".tmp-report-*"))


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weight"])  # missing required --model
    assert exc.value.code == 2
    capsys.readouterr()

    code, _, err = run(capsys, "weight", "--model", "lattice:2:10")
    assert code == 2
    assert "bad model spec" in err

    code, _, err = run(capsys, "continuum", "--space", "hyperbolic:2")
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, "verify", "--model", "tree:2:50")
    assert code == 2  # criticality needs two scales to fit the depth


def test_malformed_model_spec_exits_2(capsys):
    code, out, err = run(capsys, "weight", "--model", "tree:x:10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tree:x:10" in err


@pytest.mark.parametrize("spec, family", [("tree:2:-5", "tree"),
                                          ("antitree:poly:2:-5", "antitree")])
def test_negative_depth_in_a_model_spec_is_named_as_a_depth(capsys, spec, family):
    code, out, err = run(capsys, "model", "--model", spec)
    assert (code, out) == (2, "")
    assert err == f"error: {family} depth must be at least 2, got -5\n"


def test_malformed_gamma_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--model", "tree:2:100", "--gamma", "abc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "abc" in err


@pytest.mark.parametrize("command", ["verify", "weight"])
@pytest.mark.parametrize("gamma", ["1e400", "1e-400", "-1e400", "-1"])
def test_gamma_outside_the_float_range_exits_2(capsys, command, gamma):
    code, out, err = run(capsys, command, "--model", "tree:2:100", f"--gamma={gamma}")
    assert (code, out) == (2, "")
    assert err.startswith("error: gamma") and err.count("\n") == 1 and len(err) < 200, err


def test_negative_seed_exits_2_before_any_check(capsys):
    with mock.patch.object(cli, "check_criticality_agreement") as first_check:
        code, out, err = run(capsys, "verify", "--model", "tree:2:100", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be nonnegative, got -1\n"
    first_check.assert_not_called()


def test_missing_model_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "nonexistent.model"
    code, out, err = run(capsys, "verify", "--model", f"file:{missing}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nonexistent.model" in err


@pytest.mark.parametrize("bad_line", ["x 2 0 1", "tail geometric 2 x"])
def test_bad_integer_in_model_file_exits_2(tmp_path, capsys, bad_line):
    rows = ["0 2 0 1", "1 2 1 2", "2 - 1 4"]
    if bad_line.startswith("tail"):
        lines = ["radial-model v1", bad_line] + rows
    else:
        lines = ["radial-model v1", "tail unspecified", bad_line] + rows[1:]
    path = tmp_path / "bad.model"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "model", "--model", f"file:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'x'" in err


@pytest.mark.parametrize("command", ["verify", "green", "model"])
def test_model_file_whose_rows_break_its_tail_line_exits_2(tmp_path, capsys, command):
    # the half line is recurrent; a geometric tail line of ratio 2 once gave it
    # a bounded-oscillation pass and a closed-form Green function
    path = tmp_path / "line.model"
    lines = ["radial-model v1", "tail geometric 2 1", "0 1 0 1"]
    lines += [f"{r} 1 1 1" for r in range(1, 1200)] + ["1200 - 1 1"]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, command, "--model", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: kappa(1) differs from the tail line's kappa_inf\n"


@pytest.mark.parametrize("depth", [120, 600, 1200])
def test_unspecified_tail_tree_file_verifies(tmp_path, capsys, depth):
    # the Green tail bound once cancelled, overflowed or hit NaN at these depths
    path = tmp_path / "tree.model"
    lines = ["radial-model v1", "tail unspecified"]
    lines += [f"{r} 2 {min(r, 1)} {2 ** r}" for r in range(depth)]
    lines.append(f"{depth} - 1 {2 ** depth}")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--model", f"file:{path}", "--json")
    assert code == 0
    green = next(r for r in json.loads(out) if r["check"] == "weight-dominates-green")
    assert math.isfinite(green["residuals"]["tail_error_bound"])
    assert any("truncated" in note for note in green["notes"])


def test_finite_tail_file_is_recurrent_and_round_trips(tmp_path, capsys):
    # a graph that ends at its stored depth: recurrent, so it has no Green
    # function, and the checks that need an infinite graph do not apply
    path = tmp_path / "finite.model"
    lines = ["radial-model v1", "tail finite"]
    lines += [f"{r} 2 {min(r, 1)} {2 ** r}" for r in range(300)] + [f"300 - 1 {2 ** 300}"]
    path.write_text("\n".join(lines) + "\n")
    model = load_model(path)
    assert model.tail == Tail("finite")
    assert transience_test(model) is False

    code, out, _ = run(capsys, "verify", "--model", f"file:{path}", "--json")
    assert code == 0
    status = {r["check"]: r["status"] for r in json.loads(out)}
    assert status["properness-proxy"] == "hypothesis-not-met"
    assert status["weight-dominates-green"] == "hypothesis-not-met"

    code, out, err = run(capsys, "green", "--model", f"file:{path}")
    assert (code, out) == (3, "")
    assert err.startswith("no-green-function:")

    saved = tmp_path / "saved.model"
    assert run(capsys, "model", "--model", f"file:{path}", "--out", str(saved))[0] == 0
    assert "tail finite" in saved.read_text().splitlines()


def test_green_below_three_radii_exits_2(capsys):
    code, out, err = run(capsys, "green", "--model", "tree:2:100", "--r-max", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "r_max" in err


@pytest.mark.parametrize("spec", ["tree:3:150", "antitree:poly:1:150"])
def test_saved_model_verifies_like_its_source(tmp_path, capsys, spec):
    path = tmp_path / "saved.model"
    code, _, _ = run(capsys, "model", "--model", spec, "--out", str(path))
    assert code == 0
    source, saved = tmp_path / "source.json", tmp_path / "saved.json"
    for model, out in ((spec, source), (f"file:{path}", saved)):
        code, _, _ = run(capsys, "verify", "--model", model, "--json",
                         "--out", str(out))
        assert code == 0
    assert saved.read_bytes() == source.read_bytes()
    _, printed_source, _ = run(capsys, "model", "--model", spec)
    _, printed_saved, _ = run(capsys, "model", "--model", f"file:{path}")
    assert printed_saved == printed_source


def test_density_file_without_dim_exits_2(tmp_path, capsys):
    density = tmp_path / "space.txt"
    density.write_text("radial-density v1\nkind hyperbolic\n")
    code, out, err = run(capsys, "continuum", "--space", f"file:{density}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'dim'" in err


def test_density_file_with_non_integer_dim_exits_2(tmp_path, capsys):
    density = tmp_path / "space.txt"
    density.write_text("radial-density v1\nkind hyperbolic\ndim x\n")
    code, out, err = run(capsys, "continuum", "--space", f"file:{density}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'x'" in err


def huge_tree():
    """A depth-3 tree whose vol(2) = d**2 has more digits than Python writes."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter writes ints of any length")
    return f"tree:{10 ** (limit // 2 + 1)}:3", limit


def test_model_with_unwritable_volume_exits_2_without_a_file(tmp_path, capsys):
    spec, limit = huge_tree()
    path = tmp_path / "huge.model"
    code, out, err = run(capsys, "model", "--model", spec, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: vol(2) has more than {limit} decimal digits")
    assert not path.exists()


def test_model_table_with_unwritable_volume_exits_2(capsys):
    spec, limit = huge_tree()
    code, out, err = run(capsys, "model", "--model", spec)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: vol(2) has more than {limit} decimal digits")
    d = spec.split(":")[1]
    code, out, _ = run(capsys, "model", "--model", spec, "--r-max", "1")
    assert code == 0
    assert out.splitlines()[-1] == f"1 {d} 1 {d} {d}"


def test_model_file_with_an_unreadable_number_exits_2_with_a_short_error(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads ints of any length")
    digits = "1" + "0" * (limit + 100)
    path = tmp_path / "long.model"
    path.write_text(f"radial-model v1\ntail unspecified\n0 1 0 1\n1 1 1 1\n2 - 1 {digits}\n")
    code, out, err = run(capsys, "model", "--model", f"file:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err) < 300
    assert "row 2" in err and str(limit) in err and "'1000" in err


_small_degree = st.one_of(
    st.integers(1, 4),
    st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3),
)


@st.composite
def verifiable_models(draw):
    """Random integer or Fraction radial data, deep enough for ``verify --suite all``."""
    depth = draw(st.integers(100, 130))
    degree = _small_degree if draw(st.booleans()) else st.integers(1, 4)
    pattern = draw(st.lists(st.tuples(degree, degree), min_size=1, max_size=6))
    rows = [pattern[r % len(pattern)] for r in range(depth + 1)]
    k_plus = [kp for kp, _ in rows[:depth]]
    k_minus = [0] + [km for _, km in rows[1:]]
    return make_custom(k_plus, k_minus, label="random")


@given(verifiable_models(), st.sampled_from(["0", "1/3"]))
def test_saved_random_model_verifies_like_its_source(model, gamma):
    parse = cli._parse_model_spec

    def source_or_file(text):
        return model if text == "source:" else parse(text)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.model")
        save_model(model, path)
        outputs = []
        for spec in ("source:", f"file:{path}"):
            out = os.path.join(tmp, "verify.txt")
            with mock.patch.object(cli, "_parse_model_spec", source_or_file):
                code = main(["verify", "--model", spec, "--gamma", gamma,
                             "--suite", "all", "--out", out])
            with open(out, encoding="utf-8") as fh:
                outputs.append((code, fh.read()))
    assert outputs[1] == outputs[0]


def _outputs(tmp_path, spec, model):
    """verify --json at gamma 0 and 1/3 and the model --out file, as bytes,
    with ``spec`` read as ``model``."""
    outputs = []
    with mock.patch.object(cli, "_parse_model_spec", lambda text: model):
        for gamma in ("0", "1/3"):
            out = tmp_path / "verify.json"
            code = main(["verify", "--model", spec, "--gamma", gamma, "--json",
                         "--out", str(out)])
            outputs.append((code, out.read_bytes()))
        out = tmp_path / "saved.model"
        assert main(["model", "--model", spec, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    return outputs


@pytest.mark.parametrize("spec, stored", [
    ("tree:2:1200", np.int64), ("tree:3:1200", np.int64),
    ("antitree:poly:1:1200", np.int64), ("antitree:poly:2:1200", np.int64),
    # 511**7 < 2**63 == 512**7: the last size past int64 makes the whole
    # array of sizes Python ints
    ("antitree:poly:7:510", np.int64), ("antitree:poly:7:511", object),
])
def test_every_storage_of_a_model_prints_the_same_bytes(tmp_path, spec, stored):
    source = cli._parse_model_spec(spec)
    assert source._k_plus.dtype == source._k_minus.dtype == stored
    forms = [source, object_storage(source)]
    if spec.startswith("antitree"):
        p, depth = map(int, spec.split(":")[2:])
        # read entry by entry, then stored like the spec's sizes
        forms.append(make_antitree([(r + 1) ** p for r in range(depth + 1)], depth,
                                   label=source.label))
    assert forms[1]._k_plus.dtype == object
    expected = _outputs(tmp_path, spec, source)
    for model in forms[1:]:
        assert _outputs(tmp_path, spec, model) == expected


def test_lambda0_on_trees_past_an_ulp_of_tol_exits_0(capsys, monkeypatch):
    # the bottom of tree:100000's spectrum is past 2**16, where one ulp is
    # more than the bisection's tol; the bisection used never to return
    calls = []

    def counted(*args, _positive=spectral_ops._tree_pivots_positive):
        calls.append(1)
        assert len(calls) <= 200, "the bisection does not stop"
        return _positive(*args)

    monkeypatch.setattr(spectral_ops, "_tree_pivots_positive", counted)
    for spec in ("tree:66100:200", "tree:100000:200"):
        code, out, _ = run(capsys, "verify", "--model", spec, "--suite", "lambda0")
        assert code == 0 and out.startswith("PASS")


# exported only for tests: named oracles and the acceptance helpers
# (radial_laplacian is the oracle of the radial ground-state identity's array
# expressions, helper_sum that of the constants check_cutoff_decay reads)
UNREAD_EXPORTS = {"green_function_exact", "tree_weight",
                  "count_eigenvalues_below", "tree_ball_pivots",
                  "tree_ball_is_positive", "series_expansion",
                  "series_remainder_bound", "ball_form_matrix", "radial_laplacian",
                  "helper_sum"}


PACKAGE = Path(hardy_lab.__file__).parent


def _exports():
    return {alias.asname or alias.name
            for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _trees(paths):
    return [(path, ast.parse(path.read_text())) for path in sorted(paths)]


def test_every_other_export_has_a_reader_in_the_package():
    loaded = set()
    for module, tree in _trees(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert _exports() - loaded == UNREAD_EXPORTS


# defaulted parameters of exports that only tests set: oracle knobs
UNSET_PARAMETERS = {
    # the sweep oracles of test_sturm_sweep.py drive arbitrary annuli through them
    ("inflation_refutation", "r_lo"), ("inflation_refutation", "b_values"),
    # the 50-digit reference of test_acceptance.py and test_hardy_weights.py
    ("fitzsimmons_weight", "dps"),
    # compared against a reference at several tolerances in test_spectral_ops.py
    ("tree_ball_bottom_eigenvalue", "tol"),
}


def test_every_defaulted_parameter_of_an_export_has_a_caller():
    # a check's thresholds are fixed and written into its report's params: a
    # default that no verdict path, command or benchmark workload passes is a
    # constant, not a parameter
    signatures = {name: inspect.signature(getattr(hardy_lab, name)).parameters
                  for name in _exports() if inspect.isfunction(getattr(hardy_lab, name))}
    defaulted = {(name, p) for name, params in signatures.items()
                 for p, spec in params.items() if spec.default is not spec.empty}
    passed = set()
    bench = PACKAGE.parent.parent / "bench"
    for _, tree in _trees([*PACKAGE.glob("*.py"), *bench.glob("*.py")]):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in signatures:
                passed |= {(name, p) for p in list(signatures[name])[:len(node.args)]}
                passed |= {(name, kw.arg) for kw in node.keywords}
    assert defaulted - passed == UNSET_PARAMETERS


BLAS_NAMES = {"@", "dot", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg"}


def _used_names(node):
    """The operator, attribute or imported module path a node names."""
    if isinstance(getattr(node, "op", None), ast.MatMult):
        return {"@"}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def test_no_blas_call_in_the_package():
    # BLAS splits a long product across threads, so its rounding, and every
    # byte printed from it, would follow the host's thread count
    found = [f"{module.name}:{node.lineno}"
             for module, tree in _trees(PACKAGE.glob("*.py")) for node in ast.walk(tree)
             if _used_names(node) & BLAS_NAMES]
    assert found == []


def test_verify_bytes_do_not_depend_on_the_blas_thread_count():
    # antitree:poly:2's radius-8 ball has 11568 edges, enough for OpenBLAS to
    # split a dot product; two threads at most
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "hardy_lab.cli", "verify", "--model",
                               "antitree:poly:2:1200", "--json"], capture_output=True, env=env)
        assert done.returncode in (0, 1, 3), done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_importing_the_command_line_loads_no_mpmath():
    # a fresh interpreter: this test process has mpmath loaded for the references
    src = str(PACKAGE.parent)
    probe = "import sys, hardy_lab.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "False\n"


def test_a_seeded_probe_loads_no_numpy_random():
    src = str(PACKAGE.parent)
    probe = ("import sys, hardy_lab.cli as c; "
             "c.main(['verify', '--model', 'tree:2:300', '--suite', 'probe', '--seed', '7']); "
             "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.endswith("\nFalse\n")


def test_seed_7_draws_pinned_probe_bases(capsys):
    # random.Random(7).random(), 8 draws of 1 + floor(u * 290) on tree:2:300
    # (r_max 299, bases below 299 - 8); the rest is the deterministic spine
    code, out, _ = run(capsys, "verify", "--model", "tree:2:300", "--suite", "probe",
                       "--seed", "7", "--json")
    assert code == 0
    bases = json.loads(out)[0]["params"]["bases"]
    assert sorted(set(bases) - {1, 2, 4, 8, 16, 32, 64, 128, 256}) == \
        [17, 22, 44, 94, 107, 148, 156, 189]


def test_the_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for seed in ("7", "8"):
        run(capsys, "verify", "--model", "tree:2:150", "--suite", "lambda0", "--seed", seed)
    assert cli.build_parser.cache_info().misses == 1
    first = cli.build_parser().parse_args(["verify", "--model", "tree:2:150", "--json"])
    second = cli.build_parser().parse_args(["verify", "--model", "tree:2:150"])
    assert first is not second and (first.json, second.json) == (True, False)


def test_main_calls_in_one_process_print_the_bytes_of_fresh_processes(tmp_path):
    # the cached parser must carry nothing from one call to the next:
    # --json then plain, and --out then stdout
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out_path = tmp_path / "fresh.json"
    calls = [["verify", "--model", "tree:2:150", "--seed", "7", "--json"],
             ["verify", "--model", "tree:2:150", "--seed", "7"],
             ["verify", "--model", "tree:2:150", "--json", "--out", str(out_path)],
             ["verify", "--model", "tree:3:150", "--suite", "probe"]]
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "hardy_lab.cli", *argv],
                              capture_output=True, env=env)
        assert done.returncode == 0, done.stderr
        fresh.append(done.stdout)
    fresh_file = out_path.read_bytes()
    out_path.unlink()
    probe = ("import sys, hardy_lab.cli as c; "
             f"[c.main(argv) for argv in {calls!r}]")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"".join(fresh)
    assert out_path.read_bytes() == fresh_file


def test_lambda0_on_a_tree_past_an_ulp_of_tol_exits_0(capsys, monkeypatch):
    # one ulp of each section bottom near d = 1e11 exceeds the bisection
    # tolerance; a call counter, not a timeout, shows that no bisection spins
    calls = []

    def counted(*args, _negative=spectral_ops._negative_pivots):
        calls.append(args[1])
        assert len(calls) <= 2000, "a bisection does not stop"
        return _negative(*args)

    monkeypatch.setattr(spectral_ops, "_negative_pivots", counted)
    code, out, _ = run(capsys, "verify", "--model", "tree:100000000000:300",
                       "--suite", "lambda0")
    assert code == 0
    assert out.startswith("PASS               spectral-bottom-bound ")


@pytest.mark.parametrize("command, spec", [("verify", "tree:2:1000000000"),
                                           ("verify", "antitree:poly:1:1000000000"),
                                           ("model", "tree:2:1000000000"),
                                           ("model", "antitree:poly:3:10000001")])
def test_model_depth_past_the_cap_exits_2_naming_it(capsys, command, spec):
    family, depth = spec.split(":")[0], spec.split(":")[-1]
    code, out, err = run(capsys, command, "--model", spec)
    assert (code, out) == (2, "")
    assert err == f"error: {family} depth {depth} is past the cap 10000000\n"


def test_lambda0_needs_the_root_degree_of_radius_1(capsys):
    # at depth 2 no radius past 1 is stored, so only k_plus(0) = k_plus(1)
    # tells a tree from an antitree, whose k_plus(0) = 4 (or 8) misses the
    # bound's root condition k_plus(0) >= d - sqrt(d) (d = 9 or 27)
    for spec, code, status in [("antitree:poly:2:2", 3, "HYPOTHESIS-NOT-MET"),
                               ("antitree:poly:3:2", 3, "HYPOTHESIS-NOT-MET"),
                               ("tree:2:2", 0, "PASS"), ("tree:3:2", 0, "PASS")]:
        got, out, _ = run(capsys, "verify", "--model", spec, "--suite", "lambda0", "--json")
        (report,) = json.loads(out)
        assert (got, report["status"].upper()) == (code, status), spec
        if code:
            assert report["params"]["first_inhomogeneous_radius"] == 0
