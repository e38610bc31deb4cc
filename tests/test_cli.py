import json
import math

import pytest

from hardy_lab.cli import main


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


def test_out_files_match_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "weight", "--model", "tree:2:40",
                       "--format", "json")
    assert code == 0
    path = tmp_path / "w.json"
    code, silent, _ = run(capsys, "weight", "--model", "tree:2:40",
                          "--format", "json", "--out", str(path))
    assert code == 0
    assert silent == ""
    assert path.read_text() == out
    assert not list(tmp_path.glob(".tmp-*"))


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


def test_malformed_gamma_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--model", "tree:2:100", "--gamma", "abc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "abc" in err


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
