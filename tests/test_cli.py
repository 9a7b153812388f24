"""Command-line interface: parsing, dispatch, files, exit codes."""

import json
import math
import os

import pytest

from gfp import sets
from gfp.cli import main
from gfp.mehler import kernel_K
from gfp.spectral import expand, spectral_seminorm_sq


@pytest.fixture()
def half_json(tmp_path):
    path = tmp_path / "E.json"
    path.write_text(sets.set_to_json(
        sets.IntervalUnion(intervals=((0.0, math.inf),)), 1))
    return str(path)


@pytest.fixture()
def window_json(tmp_path):
    path = tmp_path / "Om.json"
    path.write_text(sets.set_to_json(
        sets.IntervalUnion(intervals=((-1.0, 1.0),)), 1))
    return str(path)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_matches_library(capsys):
    assert main(["kernel", "--sigma", "0.5", "--x", "0", "--y", "1"]) == 0
    out = capsys.readouterr().out
    ref = kernel_K(0.5, (0.0,), (1.0,))
    assert out == f"kernel value={ref.value!r} err={ref.error_bound!r}\n"


def test_kernel_singular_input_exits_2(capsys):
    assert main(["kernel", "--sigma", "0.5", "--x", "0", "--y", "0"]) == 2
    assert "singular" in capsys.readouterr().err


def test_kernel_sigma_out_of_range_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["kernel", "--sigma", "2.5", "--x", "0", "--y", "1"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# limit / perimeter / jlambda
# ---------------------------------------------------------------------------

def test_limit_halfspace_prints_half(capsys, half_json):
    assert main(["limit", "--set", half_json]) == 0
    assert "limit value=0.5 err=0.0" in capsys.readouterr().out


def test_limit_bounded_window(capsys, half_json, window_json, tmp_path):
    out = tmp_path / "lim.json"
    assert main(["limit", "--set", half_json, "--omega", window_json,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mu"] == pytest.approx(0.44966, abs=5e-5)
    assert doc["method"] == "closed-form"


def test_limit_missing_file_exits_3(capsys, tmp_path):
    assert main(["limit", "--set", str(tmp_path / "nope.json")]) == 3


def test_perimeter_writes_csv(half_json, tmp_path, capsys):
    out = tmp_path / "per.csv"
    assert main(["perimeter", "--set", half_json, "--s", "0.5",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,value,error,method"
    s, value, error, method = lines[1].split(",")
    assert float(s) == 0.5
    assert float(value) > 0
    assert method == "graded-quadrature-1d"


def test_jlambda_json_output(half_json, tmp_path):
    out = tmp_path / "j.json"
    assert main(["jlambda", "--set", half_json, "--s", "0.5",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] > 0
    assert doc["method"] == "u-quadrature-1d"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_shape_and_fit_block(half_json, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--set", half_json,
                 "--s-list", "0.5,0.25,0.125,0.0625",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,value,error,method"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5
    assert lines[-1].startswith("# fit a=")


def test_sweep_bad_s_list_is_usage_error(half_json):
    # an empty list must not fall back to the default grid
    for s_list in ("0.5,1.5,0.25,0.1", ",", ""):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--set", half_json, "--s-list", s_list])
        assert info.value.code == 2, s_list


# ---------------------------------------------------------------------------
# spectral / example
# ---------------------------------------------------------------------------

def test_spectral_mode_one_closed_form(capsys):
    assert main(["spectral", "--u", "h1", "--s", "0.25"]) == 0
    value = float(capsys.readouterr().out.split("value=")[1].split(" ")[0])
    assert 0.25 * value == pytest.approx(2.0 * math.gamma(0.75), rel=1e-12)


@pytest.mark.parametrize("mode", ["h-1", "hx", "h"])
def test_spectral_bad_mode_is_usage_error(mode):
    with pytest.raises(SystemExit) as info:
        main(["spectral", "--u", mode, "--s", "0.25"])
    assert info.value.code == 2


def test_spectral_chi_requires_set():
    with pytest.raises(SystemExit) as info:
        main(["spectral", "--u", "chi", "--s", "0.25"])
    assert info.value.code == 2


def test_spectral_chi_refuses_divergent_index(half_json):
    # an indicator with a boundary point has infinite seminorm at s >= 1/2
    with pytest.raises(SystemExit) as info:
        main(["spectral", "--u", "chi", "--set", half_json, "--s", "0.6"])
    assert info.value.code == 2


def test_spectral_chi_matches_library(half_json, tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectral", "--u", "chi", "--set", half_json, "--s", "0.25",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    e = sets.IntervalUnion(intervals=((0.0, math.inf),))
    ref = spectral_seminorm_sq(expand(e, 10 ** 5), 0.25)
    assert doc["value"] == ref.value
    assert doc["truncation"] == ref.truncation


def test_example_grows_with_pairs(capsys):
    assert main(["example", "--pairs", "100", "--s", "0.5"]) == 0
    small = float(capsys.readouterr().out.split("value=")[1].split(" ")[0])
    assert main(["example", "--pairs", "10000", "--s", "0.5"]) == 0
    large = float(capsys.readouterr().out.split("value=")[1].split(" ")[0])
    assert large >= 3.0 * small


# ---------------------------------------------------------------------------
# determinism and atomicity
# ---------------------------------------------------------------------------

def test_output_files_are_byte_identical_across_runs(half_json, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["jlambda", "--set", half_json, "--s", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_temp_files_left_behind(half_json, tmp_path):
    out = tmp_path / "out.json"
    assert main(["limit", "--set", half_json, "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".gfp-")] == []


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["kernel", "--sigma", "0.5", "--x", "0", "--y", "1", "--seed", "1"],
    ["limit", "--set", "E", "--format", "json"],
    ["spectral", "--u", "h1", "--s", "0.25", "--budget", "5"],
    ["jlambda", "--set", "E", "--s", "0.5", "--seed", "7"],
    ["perimeter", "--set", "E", "--s", "0.5", "--tol", "1e-6"],
    ["sweep", "--set", "E", "--workers", "2"],
    ["example", "--pairs", "10", "--s", "0.5", "--format", "json"],
    ["perimeter", "--set", "E", "--s", "0.5", "--budget", "5"],
    ["jlambda", "--set", "E", "--s", "0.5", "--budget", "5"],
    ["sweep", "--set", "E", "--budget", "5"],
    ["limit", "--set", "E", "--seed", "1"],
])
def test_unread_flag_is_usage_error(argv, half_json):
    argv = [half_json if a == "E" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["perimeter", "--set", "E", "--s", "1.5"],
    ["jlambda", "--set", "E", "--s", "0"],
    ["spectral", "--u", "h1", "--s", "-0.25"],
    ["example", "--pairs", "10", "--s", "1"],
])
def test_s_outside_zero_one_is_usage_error(argv, half_json, capsys):
    argv = [half_json if a == "E" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must lie in (0, 1)" in capsys.readouterr().err


def test_main_leaves_environment_unchanged(half_json, monkeypatch, capsys):
    monkeypatch.delenv("GFP_WORKERS", raising=False)
    before = dict(os.environ)
    assert main(["limit", "--set", half_json]) == 0
    assert dict(os.environ) == before
