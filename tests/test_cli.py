import json
import os
import subprocess
import stat
import sys
import tracemalloc
from pathlib import Path

import pytest

import newton2d
from newton2d import jsonio
from newton2d.cli import (
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SWEEP_STEPS,
    main,
)
from newton2d.geometry import ProblemSpec, make_triangle, profile_to_dict


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_python(*args):
    # a fresh interpreter sees import side effects and uncaught tracebacks
    src = str(Path(newton2d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def _write_profile(tmp_path, name="profile.json", r=1.0, H=1.0, variant="restricted"):
    spec = ProblemSpec(r=r, H=H, variant=variant)
    path = tmp_path / name
    path.write_text(jsonio.dumps(profile_to_dict(make_triangle(spec), spec)))
    return path


def test_solve_unique_minimizer(capsys):
    code, out, _ = _run(
        capsys, ["solve", "--r", "1", "--H", "2", "--variant", "restricted"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "UniqueMinimizer"
    assert payload["resistance"] == pytest.approx(0.2, rel=1e-12)


def test_solve_infinite_family(capsys):
    code, out, _ = _run(
        capsys, ["solve", "--r", "1", "--H", "0.4", "--variant", "restricted"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "InfiniteFamily"
    assert payload["resistance"] == pytest.approx(0.8, rel=1e-12)
    assert len(payload["profiles"]) >= 2


def test_solve_answers_a_body_whose_flat_budget_rounds(capsys):
    # r - H rounds at H = 1e-16, so a rise misses slope 1, but over a width
    # so small that each representative's drag is r - H/2 to its rounding
    code, out, _ = _run(
        capsys, ["solve", "--r", "1", "--H", "1e-16", "--variant", "restricted"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "InfiniteFamily"
    assert len(payload["profiles"]) == 3


def test_solve_no_solution_exit_code(capsys):
    code, out, _ = _run(
        capsys, ["solve", "--r", "1", "--H", "0.5", "--variant", "unrestricted"]
    )
    assert code == EXIT_NO_SOLUTION
    payload = json.loads(out)
    assert payload["status"] == "NoSolution"
    assert payload["resistance"] is None


def test_solve_local_minimizer_only(capsys):
    code, out, _ = _run(
        capsys, ["solve", "--r", "1", "--H", "2", "--variant", "unrestricted"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "LocalMinimizerOnly"


def test_solve_writes_identical_artifact(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    argv = [
        "solve", "--r", "1", "--H", "0.4", "--variant", "restricted",
        "--out", str(out_path),
    ]
    code, out, _ = _run(capsys, argv)
    assert code == EXIT_OK
    first = out_path.read_text()
    assert first == out
    _run(capsys, argv)
    assert out_path.read_text() == first  # byte-identical reruns


def test_usage_errors(capsys):
    assert _run(capsys, ["solve", "--r", "1", "--H", "2"])[0] == EXIT_USAGE
    assert (
        _run(capsys, ["solve", "--r", "-1", "--H", "2", "--variant", "restricted"])[0]
        == EXIT_USAGE
    )
    assert _run(capsys, ["frobnicate"])[0] == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--r", "--H"])
def test_non_finite_dimensions_are_usage_errors(capsys, flag):
    argv = ["solve", "--r", "1", "--H", "0.4", "--variant", "restricted"]
    argv[argv.index(flag) + 1] = "inf"
    code, out, err = _run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{flag[2:]} must be positive and finite" in err
    assert "NaN" not in err and "JSON" not in err


def test_eval_profile(tmp_path, capsys):
    path = _write_profile(tmp_path, r=1.0, H=1.0)
    code, out, _ = _run(capsys, ["eval", "--profile", str(path)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["resistance_2d"] == pytest.approx(0.5, rel=1e-12)
    assert "resistance_3d" not in payload

    code, out, _ = _run(capsys, ["eval", "--profile", str(path), "--dim", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["resistance_3d"] == pytest.approx(0.25, rel=1e-12)


def test_eval_missing_and_invalid_files(tmp_path, capsys):
    code, _, err = _run(capsys, ["eval", "--profile", str(tmp_path / "nope.json")])
    assert code == EXIT_USAGE
    assert "cannot read profile" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"r": 1.0}')
    assert _run(capsys, ["eval", "--profile", str(bad)])[0] == EXIT_USAGE

    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(
        jsonio.dumps(
            {
                "r": 1.0,
                "H": 2.0,
                "variant": "restricted",
                "breakpoints": [[0.0, 0.0], [1.0, 1.0]],
            }
        )
    )
    code, _, err = _run(capsys, ["eval", "--profile", str(mismatched)])
    assert code == EXIT_USAGE
    assert "invalid profile" in err


def _check_verify_all_oracles_pass(capsys, H):
    code, out, _ = _run(
        capsys,
        [
            "verify", "--r", "1", "--H", H, "--variant", "restricted",
            "--cells", "100", "--levels", "100",
            "--trials", "64", "--eps", "0.005",
            "--samples", "200000", "--seed", "42",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["checks"]) >= 3
    for check in payload["checks"]:
        assert {"claim", "expected", "observed", "tolerance", "pass"} <= set(check)
    return payload


def test_verify_all_oracles_pass(capsys):
    _check_verify_all_oracles_pass(capsys, "0.4")


@pytest.mark.parametrize("H", ["1", "1.5"])
def test_verify_all_oracles_pass_on_tall_bodies(capsys, H):
    # for H >= r the restricted minimum is the straight contour's drag
    payload = _check_verify_all_oracles_pass(capsys, H)
    dp = payload["checks"][0]
    assert dp["claim"].startswith("restricted ")
    assert dp["expected"] == 1.0 / (1.0 + float(H) ** 2)


def test_verify_rejects_bad_flags_before_any_oracle_runs(capsys, monkeypatch):
    from newton2d import oracle

    def dp_must_not_run(*args, **kwargs):
        raise AssertionError("the DP ran before the flags were checked")

    monkeypatch.setattr(oracle, "dp_min_resistance", dp_must_not_run)
    code, out, err = _run(
        capsys,
        ["verify", "--r", "1", "--H", "0.4", "--variant", "restricted", "--eps", "nan"],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "epsilon" in err


@pytest.mark.parametrize("samples", ["0", "-5", "1", str(2**25 + 1)])
def test_verify_rejects_bad_samples_before_any_oracle_runs(capsys, monkeypatch, samples):
    from newton2d import oracle

    def dp_must_not_run(*args, **kwargs):
        raise AssertionError("the DP ran before the flags were checked")

    monkeypatch.setattr(oracle, "dp_min_resistance", dp_must_not_run)
    code, out, err = _run(
        capsys,
        ["verify", "--r", "1", "--H", "0.4", "--variant", "restricted", "--samples", samples],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "n_samples" in err


def test_verify_rejects_bad_seed_before_any_oracle_runs(capsys, monkeypatch):
    from newton2d import oracle

    def dp_must_not_run(*args, **kwargs):
        raise AssertionError("the DP ran before the flags were checked")

    monkeypatch.setattr(oracle, "dp_min_resistance", dp_must_not_run)
    code, out, err = _run(
        capsys,
        ["verify", "--r", "1", "--H", "0.4", "--variant", "restricted", "--seed", "-1"],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "rng_seed must be a non-negative int" in err


def test_verify_mc_tolerance_scales_with_r(capsys):
    code, out, _ = _run(
        capsys,
        [
            "verify", "--r", "1e-150", "--H", "4e-151", "--variant", "restricted",
            "--oracle", "mc", "--samples", "200000",
        ],
    )
    assert code == EXIT_OK
    (check,) = json.loads(out)["checks"]
    assert check["tolerance"] < 1e-140
    assert check["pass"] is True


def test_verify_single_oracle_selection(capsys):
    code, out, _ = _run(
        capsys,
        [
            "verify", "--r", "1", "--H", "1", "--variant", "unrestricted",
            "--oracle", "dp", "--cells", "400", "--levels", "400",
            "--slope-bound", "5",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["checks"]) == 1
    assert payload["checks"][0]["expected"] == pytest.approx(1.0 / 26.0)


def test_verify_checks_the_straight_contour_when_there_is_no_solution(capsys):
    # unrestricted H/r = 0.4 < sqrt(3)/3: solve has no profile to sample, so
    # MC samples the straight contour, which perturbations can improve
    code, out, _ = _run(
        capsys,
        ["verify", "--r", "1", "--H", "0.4", "--variant", "unrestricted", "--samples", "200000"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    sign, mc = payload["checks"][-2:]
    assert sign["claim"] == "straight contour admits drag-decreasing perturbations"
    assert sign["expected"] is False and sign["observed"] is False
    assert mc["claim"] == "MC drag of the straight contour matches r^3/(r^2+H^2)"
    assert mc["expected"] == pytest.approx(1.0 / 1.16, rel=1e-15)


@pytest.mark.parametrize("oracle, calls", [("all", 1), ("dp", 1), ("mc", 1), ("perturb", 0)])
def test_verify_solves_at_most_once(capsys, monkeypatch, oracle, calls):
    from newton2d import extremal

    solve = extremal.solve
    seen = []
    monkeypatch.setattr(extremal, "solve", lambda spec: seen.append(spec) or solve(spec))
    code, _, _ = _run(
        capsys,
        [
            "verify", "--r", "1", "--H", "0.4", "--variant", "restricted",
            "--oracle", oracle, "--cells", "60", "--levels", "60", "--samples", "100000",
        ],
    )
    assert code == EXIT_OK
    assert len(seen) == calls


def test_verify_perturb_runs_on_a_body_solve_refuses(capsys):
    argv = ["--r", "1", "--H", "1e-17", "--variant", "restricted"]
    assert _run(capsys, ["solve", *argv])[0] == EXIT_USAGE
    code, out, _ = _run(capsys, ["verify", *argv, "--oracle", "perturb"])
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_sweep_crossover_row(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys,
        [
            "sweep", "--r", "1", "--H-min", "0.2", "--H-max", "1.4",
            "--steps", "4", "--out", str(out_path),
            "--cells", "60", "--levels", "60",
        ],
    )
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "h_over_r,triangle_R,staircase_R,dp_R,status"
    crossover = [ln for ln in lines if "crossover-H-equals-r" in ln]
    assert len(crossover) == 1
    fields = crossover[0].split(",")
    assert float(fields[0]) == 1.0
    assert fields[1] == "0.5"  # triangle drag, exact
    assert fields[2] == "0.5"  # staircase drag, exact
    threshold = [ln for ln in lines if "threshold-sqrt3over3" in ln]
    assert len(threshold) == 1
    # staircase column is blank above the crossover
    tall_rows = [ln for ln in lines[1:] if float(ln.split(",")[0]) > 1.0]
    assert tall_rows and all(ln.split(",")[2] == "" for ln in tall_rows)


def test_sweep_rejects_bad_range(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        [
            "sweep", "--r", "1", "--H-min", "0.8", "--H-max", "0.2",
            "--steps", "4", "--out", str(tmp_path / "x.csv"),
        ],
    )
    assert code == EXIT_USAGE
    assert "H-min" in err or "steps" in err


@pytest.mark.parametrize(
    "h_min, h_max", [("0.2", "inf"), ("nan", "1.4"), ("0.2", "nan"), ("0", "1.4")]
)
def test_sweep_rejects_non_finite_range(tmp_path, capsys, h_min, h_max):
    out_path = tmp_path / "x.csv"
    code, out, err = _run(
        capsys,
        [
            "sweep", "--H-min", h_min, "--H-max", h_max,
            "--steps", "4", "--out", str(out_path),
        ],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "finite 0 < H-min < H-max" in err
    assert not out_path.exists()


@pytest.mark.parametrize("steps", ["1", str(MAX_SWEEP_STEPS + 1), "1000000000000"])
def test_sweep_caps_steps_before_building_rows(tmp_path, capsys, monkeypatch, steps):
    # refused by comparison alone: no height list is built and no DP runs
    from newton2d import oracle

    def dp_must_not_run(*args, **kwargs):
        raise AssertionError("the DP ran before the steps were checked")

    monkeypatch.setattr(oracle, "dp_min_resistance", dp_must_not_run)
    out_path = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code, out, err = _run(
            capsys,
            [
                "sweep", "--H-min", "0.2", "--H-max", "1.4",
                "--steps", steps, "--out", str(out_path),
            ],
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert out == ""
    assert f"2 <= steps <= {MAX_SWEEP_STEPS}" in err
    assert not out_path.exists()
    assert peak < 2**20


def test_export_svg(tmp_path, capsys):
    profile_path = _write_profile(tmp_path)
    out_path = tmp_path / "body.svg"
    code, out, _ = _run(
        capsys,
        ["export-svg", "--profile", str(profile_path), "--out", str(out_path)],
    )
    assert code == EXIT_OK
    svg = out_path.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg" in svg and "</svg>" in svg
    assert svg.count("<polyline") == 2  # contour plus its mirror image
    assert json.loads(out)["out"] == str(out_path)


@pytest.mark.parametrize(
    "width, height", [("-5", "0"), ("100", "600"), ("800", "100"), ("0", "0")]
)
def test_export_svg_rejects_sizes_within_the_margins(tmp_path, capsys, width, height):
    profile_path = _write_profile(tmp_path)
    out_path = tmp_path / "body.svg"
    code, out, err = _run(
        capsys,
        [
            "export-svg", "--profile", str(profile_path), "--out", str(out_path),
            "--width", width, "--height", height,
        ],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "width and height must be above 100 px" in err
    assert not out_path.exists()


def test_export_svg_accepts_the_smallest_size(tmp_path, capsys):
    profile_path = _write_profile(tmp_path)
    out_path = tmp_path / "body.svg"
    code, _, _ = _run(
        capsys,
        [
            "export-svg", "--profile", str(profile_path), "--out", str(out_path),
            "--width", "101", "--height", "101",
        ],
    )
    assert code == EXIT_OK
    assert 'viewBox="0 0 101 101"' in out_path.read_text()


def test_export_svg_missing_profile(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        [
            "export-svg", "--profile", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.svg"),
        ],
    )
    assert code == EXIT_USAGE
    assert "cannot read profile" in err


def test_export_svg_rejects_invalid_profile(tmp_path, capsys):
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(
        jsonio.dumps(
            {
                "r": 1.0,
                "H": 2.0,
                "variant": "restricted",
                "breakpoints": [[0.0, 0.0], [1.0, 1.0]],
            }
        )
    )
    out_path = tmp_path / "x.svg"
    code, _, err = _run(
        capsys,
        ["export-svg", "--profile", str(mismatched), "--out", str(out_path)],
    )
    assert code == EXIT_USAGE
    assert "invalid profile" in err
    assert not out_path.exists()


_OVERFLOWING_PROFILES = [
    # finite breakpoints whose slope or whole width overflows
    ({"r": 1.0, "H": 1e10, "breakpoints": [[0.0, 0.0], [1e-300, 1e10], [1.0, 1e10]]}, "slope"),
    ({"r": 1e308, "H": 1.0, "breakpoints": [[-1e308, 0.0], [1e308, 1.0]]}, "width"),
]


@pytest.mark.parametrize("data, message", _OVERFLOWING_PROFILES)
def test_eval_and_export_svg_refuse_an_overflowing_profile(tmp_path, data, message):
    # eval used to accept the first profile and print a drag that priced
    # its infinite slope as zero
    path = tmp_path / "overflow.json"
    path.write_text(jsonio.dumps({**data, "variant": "unrestricted"}))
    out_path = tmp_path / "x.svg"
    for argv in (
        ["eval", "--profile", str(path)],
        ["export-svg", "--profile", str(path), "--out", str(out_path)],
    ):
        proc = _run_python("-m", "newton2d.cli", *argv)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: invalid profile: ")
        assert message in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not out_path.exists()


_MISTYPED_PROFILES = [
    ({"r": "1"}, "r must be positive and finite, got '1'"),
    ({"H": True}, "H must be positive and finite, got True"),
    ({"breakpoints": [["0", "0"], ["1", "1"]]}, "breakpoint 0 x must be a finite number, got '0'"),
    ({"breakpoints": [[0.0, 0.0], [1.0, 1.0, 0.0]]}, "breakpoint 1 must be an [x, y] pair"),
]


@pytest.mark.parametrize("fields, message", _MISTYPED_PROFILES)
def test_eval_and_export_svg_refuse_a_profile_of_strings_bools_or_triples(tmp_path, fields, message):
    # eval used to convert "1" and true with float() and print a drag
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps({"r": 1.0, "H": 1.0, "variant": "restricted",
                                "breakpoints": [[0.0, 0.0], [1.0, 1.0]], **fields}))
    out_path = tmp_path / "x.svg"
    for argv in (
        ["eval", "--profile", str(path)],
        ["export-svg", "--profile", str(path), "--out", str(out_path)],
    ):
        proc = _run_python("-m", "newton2d.cli", *argv)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: invalid profile: {message}")
        assert len(proc.stderr.splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--r", "1", "--H", "0.4", "--variant", "restricted"],
        ["sweep", "--H-min", "0.5", "--H-max", "1.5", "--steps", "2",
         "--cells", "8", "--levels", "8"],
        ["export-svg", "--profile", "PROFILE"],
    ],
    ids=["solve", "sweep", "export-svg"],
)
def test_an_unwritable_out_is_a_one_line_error(tmp_path, capsys, argv):
    # --out is written before stdout, so nothing is printed but the error
    argv = [str(_write_profile(tmp_path)) if a == "PROFILE" else a for a in argv]
    target = tmp_path / "missing" / "out"
    code, out, err = _run(capsys, [*argv, "--out", str(target)])
    assert code == EXIT_USAGE
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(target) in lines[0]


@pytest.mark.parametrize("command", ["eval", "export-svg"])
def test_a_profile_nested_too_deep_is_a_one_line_error(tmp_path, command):
    # json.load meets the recursion limit long before 10^5 levels
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = ["-m", "newton2d.cli", command, "--profile", str(deep)]
    if command == "export-svg":
        argv += ["--out", str(tmp_path / "deep.svg")]
    proc = _run_python(*argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read profile: ")
    assert not (tmp_path / "deep.svg").exists()


def _dp_must_not_run(*args, **kwargs):
    raise AssertionError("the DP ran before --out was opened")


@pytest.mark.parametrize(
    "name, message",
    [("missing/s.csv", "[Errno 2] No such file or directory"), ("adir", "[Errno 21] Is a directory")],
)
def test_sweep_refuses_an_unwritable_out_before_any_row(tmp_path, capsys, monkeypatch, name, message):
    from newton2d import oracle

    monkeypatch.setattr(oracle, "dp_min_resistance", _dp_must_not_run)
    (tmp_path / "adir").mkdir()
    target = tmp_path / name
    code, out, err = _run(
        capsys, ["sweep", "--H-min", "0.2", "--H-max", "1.4", "--steps", "200", "--out", str(target)]
    )
    # the message names --out, as a failed write to --out itself did
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}: '{target}'\n"


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_sweep_leaves_out_as_it_was_when_a_row_fails(tmp_path, capsys, monkeypatch, existing):
    from newton2d import oracle

    real = oracle.dp_min_resistance
    calls = []

    def fails_on_the_third_row(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("row 3 fails")
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "dp_min_resistance", fails_on_the_third_row)
    target = tmp_path / "s.csv"
    if existing is not None:
        target.write_text(existing)
    argv = ["sweep", "--H-min", "0.2", "--H-max", "1.4", "--steps", "6",
            "--cells", "8", "--levels", "8", "--out", str(target)]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", "error: row 3 fails\n")
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        assert target.read_text() == existing


@pytest.mark.parametrize("out_dir", ["missing", "."], ids=["unwritable-out", "writable-out"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cells", "1"], "n_cells must be an int >= 2, got 1"),
        (["--levels", "1"], "n_levels must be an int >= 2, got 1"),
        (["--r", "nan"], "r must be positive and finite, got nan"),
        # the DP's table cap, stated once by oracle.check_grid
        (["--levels", "6000"], "DP grid too large: its largest table would hold 36012001 "
         "elements, above the cap of 33554432; use a smaller n_cells or n_levels, or a "
         "smaller slope_bound"),
    ],
    ids=["cells", "levels", "r", "levels-above-cap"],
)
def test_sweep_checks_every_flag_before_out(tmp_path, capsys, flags, message, out_dir):
    # a refused flag is named before --out is opened, so it neither hides
    # behind an unwritable --out nor leaves a file behind
    target = tmp_path / out_dir / "s.csv"
    argv = ["sweep", "--H-min", "0.2", "--H-max", "1", "--steps", "3", *flags, "--out", str(target)]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


_SWEEP_SMALL = ["sweep", "--H-min", "0.2", "--H-max", "1.4", "--steps", "3", "--cells", "8", "--levels", "8"]


def test_sweep_writes_through_a_symlinked_out(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, out, err = _run(capsys, _SWEEP_SMALL + ["--out", str(link)])
    assert (code, err) == (EXIT_OK, "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("h_over_r,triangle_R,staircase_R,dp_R,status\n")
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_sweep_writes_through_dev_null(capsys):
    before = os.stat(os.devnull)
    code, out, err = _run(capsys, _SWEEP_SMALL + ["--out", os.devnull])
    assert (code, err) == (EXIT_OK, "")
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode) and (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)


#: The 14-step sweep of the README at the default 200x200 grid, as it was
#: printed when the rows were written only after the last one was formed.
_SWEEP_14_CSV = (
    "h_over_r,triangle_R,staircase_R,dp_R,status\n"
    "0.20000000000000001,0.96153846153846145,0.90000000000000002,0.89999999999999991,InfiniteFamily\n"
    "0.30000000000000004,0.9174311926605504,0.84999999999999998,0.85089394076623459,InfiniteFamily\n"
    "0.40000000000000002,0.86206896551724133,0.80000000000000004,0.80329468212714894,InfiniteFamily\n"
    "0.5,0.80000000000000004,0.75,0.74999999999999989,InfiniteFamily\n"
    "0.57735026918962573,0.75,0.71132486540518713,0.71428571428571419,InfiniteFamily[threshold-sqrt3over3]\n"
    "0.60000000000000009,0.73529411764705876,0.69999999999999996,0.70491803278688503,InfiniteFamily\n"
    "0.69999999999999996,0.67114093959731547,0.65000000000000002,0.66891891891891875,InfiniteFamily\n"
    "0.80000000000000004,0.6097560975609756,0.59999999999999998,0.60975609756097549,InfiniteFamily\n"
    "0.89999999999999991,0.5524861878453039,0.55000000000000004,0.5524861878453039,InfiniteFamily\n"
    "1,0.5,0.5,0.5,UniqueMinimizer[crossover-H-equals-r]\n"
    "1.1000000000000001,0.45248868778280543,,0.45248868778280549,UniqueMinimizer\n"
    "1.2,0.4098360655737705,,0.4098360655737705,UniqueMinimizer\n"
    "1.3,0.3717472118959107,,0.37174721189591076,UniqueMinimizer\n"
    "1.4000000000000001,0.33783783783783777,,0.33783783783783783,UniqueMinimizer\n"
    "1.5000000000000002,0.3076923076923076,,0.3076923076923076,UniqueMinimizer\n"
)


def test_sweep_writes_the_same_bytes_as_before(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(
        capsys, ["sweep", "--r", "1", "--H-min", "0.2", "--H-max", "1.5", "--steps", "14", "--out", "sweep.csv"]
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == '{\n  "rows": 15,\n  "out": "sweep.csv"\n}\n'
    assert (tmp_path / "sweep.csv").read_bytes() == _SWEEP_14_CSV.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_cli_import_does_not_load_scipy():
    proc = _run_python("-c", "import sys, newton2d.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_ORACLE_MODULES = ("numpy", "newton2d.oracle", "newton2d.montecarlo")

_RUN_COMMANDS_TEMPLATE = """
import contextlib, io, json, sys
from newton2d.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
print(json.dumps([codes, [m for m in %r if m in sys.modules]]))
"""
_RUN_COMMANDS = _RUN_COMMANDS_TEMPLATE % (_ORACLE_MODULES,)


# every seeded routine draws from random.Random, so numpy.random, and the
# secrets, hmac and OpenSSL modules it brings, never load
_NUMPY_RANDOM_MODULES = ("numpy.random", "secrets", "_hashlib")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--r", "1", "--H", "0.4", "--variant", "restricted", "--samples", "1000"],
        ["sweep", "--H-min", "0.5", "--H-max", "1.5", "--steps", "2",
         "--cells", "8", "--levels", "8", "--out"],
    ],
    ids=["verify", "sweep"],
)
def test_oracle_commands_do_not_load_numpy_random(tmp_path, argv):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "sweep.csv")]
    script = _RUN_COMMANDS_TEMPLATE % (_NUMPY_RANDOM_MODULES,)
    proc = _run_python("-c", script, json.dumps([argv]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[EXIT_OK], []]


def test_seeded_routines_do_not_load_numpy_random():
    code = f"""
import sys
import newton2d as nd

spec = nd.ProblemSpec(1.0, 0.4)
members = nd.enumerate_minimizers(spec, 3, 10, 1)
nd.estimate_resistance(nd.make_staircase(spec, members[0]), 1000, 2)
nd.second_variation_test(nd.make_triangle(spec), spec, nd.PerturbationConfig(0.01, 8, 3))
print([m for m in {_NUMPY_RANDOM_MODULES!r} if m in sys.modules])
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _solve(r, H, variant):
    return ["solve", "--r", r, "--H", H, "--variant", variant]


def test_closed_form_commands_do_not_load_oracles(tmp_path):
    profile = str(_write_profile(tmp_path, H=0.7))
    commands = [
        _solve("1", "0.4", "restricted"),
        _solve("1", "1", "restricted"),
        _solve("1", "2", "restricted"),
        _solve("1", "1.5", "unrestricted"),
        _solve("1", "0.4", "unrestricted"),
        ["eval", "--profile", profile, "--dim", "3"],
        ["export-svg", "--profile", profile, "--out", str(tmp_path / "p.svg")],
        _solve("-1", "0.4", "restricted"),
    ]
    proc = _run_python("-c", _RUN_COMMANDS, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [EXIT_OK] * 4 + [EXIT_NO_SOLUTION, EXIT_OK, EXIT_OK, EXIT_USAGE]
    assert loaded == []


_START_UP_MODULES = ("dataclasses", "inspect")

_RUN_COMMANDS_AFTER_IMPORT = """
import contextlib, io, json, sys
import newton2d
loaded = [[m for m in %r if m in sys.modules]]
from newton2d.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            main(argv)
loaded.append([m for m in %r if m in sys.modules])
print(json.dumps(loaded))
""" % (_START_UP_MODULES, _START_UP_MODULES)


def test_closed_form_commands_do_not_load_dataclasses(tmp_path):
    # dataclasses brings inspect, ast and dis; the closed-form records are
    # plain classes so that every CLI command starts without them
    profile = str(_write_profile(tmp_path, H=0.7))
    commands = [
        _solve("1", "0.4", "restricted"),
        _solve("1", "1", "restricted"),
        _solve("1", "2", "restricted"),
        _solve("1", "1.5", "unrestricted"),
        _solve("1", "0.4", "unrestricted"),
        ["eval", "--profile", profile, "--dim", "3"],
        ["export-svg", "--profile", profile, "--out", str(tmp_path / "p.svg")],
        _solve("-1", "0.4", "restricted"),
    ]
    proc = _run_python("-c", _RUN_COMMANDS_AFTER_IMPORT, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_oracle_commands_do_not_load_dataclasses(tmp_path):
    # the oracles' records are plain classes too: dataclasses stays in
    # newton2d.reports, which only the certificate and collision checks
    # load.  numpy loads inspect, so inspect is not asserted on
    verify = ["verify", "--r", "1", "--H", "0.4", "--variant", "restricted"]
    commands = [
        [*verify, "--samples", "1000"],
        [*verify, "--oracle", "dp"],
        ["sweep", "--H-min", "0.5", "--H-max", "1.5", "--steps", "2",
         "--cells", "8", "--levels", "8", "--out", str(tmp_path / "sweep.csv")],
    ]
    script = _RUN_COMMANDS_TEMPLATE % (("dataclasses", "newton2d.reports"),)
    proc = _run_python("-c", script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[EXIT_OK] * 3, []]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["verify", "--r", "1", "--H", "0.4", "--variant", "restricted",
          "--oracle", "mc", "--samples", "1000"], ["numpy", "newton2d.montecarlo"]),
        (["sweep", "--H-min", "0.5", "--H-max", "1.5", "--steps", "2",
          "--cells", "8", "--levels", "8", "--out"], ["numpy", "newton2d.oracle"]),
    ],
    ids=["verify", "sweep"],
)
def test_oracle_commands_load_oracles(tmp_path, argv, loaded):
    # the counterpart of the test above, which shows it is not vacuous
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "sweep.csv")]
    proc = _run_python("-c", _RUN_COMMANDS, json.dumps([argv]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[EXIT_OK], loaded]


def test_closed_form_modules_do_not_import_oracles():
    code = (
        "import sys\n"
        "import newton2d.geometry, newton2d.functional\n"
        "import newton2d.extremal, newton2d.jsonio\n"
        f"print([m for m in {_ORACLE_MODULES!r} if m in sys.modules])"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_binds_oracle_names_on_first_use():
    code = """
import sys
import newton2d

assert "numpy" not in sys.modules
assert set(newton2d.__all__) <= set(dir(newton2d))
assert "__getattr__" in vars(newton2d)
lazy = newton2d.DpConfig
assert "__getattr__" not in vars(newton2d)
assert "numpy" in sys.modules

from newton2d import montecarlo, oracle

assert lazy is oracle.DpConfig
for module in (montecarlo, oracle):
    for name in set(newton2d.__all__) & set(vars(module)):
        assert vars(newton2d)[name] is vars(module)[name], name
try:
    newton2d.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("missing name resolved")
print("ok")
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_star_import_binds_every_name_in_a_fresh_interpreter():
    # the star import alone, with no earlier access, must trigger the binding
    code = (
        "from newton2d import *\n"
        "import newton2d\n"
        "print([n for n in newton2d.__all__\n"
        "       if globals().get(n) is not getattr(newton2d, n)])"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("r, H", [("1e-150", "1e-150"), ("1e-170", "2e-170"), ("1e150", "2e150")])
def test_solve_is_scale_free_at_extreme_sizes(r, H):
    proc = _run_python("-m", "newton2d.cli", *_solve(r, H, "restricted"))
    assert proc.returncode == EXIT_OK, proc.stderr
    r, H = float(r), float(H)
    assert json.loads(proc.stdout)["resistance"] == r / (1.0 + (H / r) ** 2)


@pytest.mark.parametrize("r, H", [("1e-150", "4e-151"), ("1e110", "4e109"), ("1e-105", "4e-106")])
def test_verify_dp_is_scale_free_at_extreme_sizes(r, H):
    # the default 200x200 grid's optimum at H/r = 0.4 is 0.803294682127149 r
    # at every scale: the per-cell cost must neither underflow nor overflow
    proc = _run_python(
        "-m", "newton2d.cli", "verify", "--r", r, "--H", H,
        "--variant", "restricted", "--oracle", "dp",
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    (check,) = json.loads(proc.stdout)["checks"]
    expected = 0.803294682127149 * float(r)
    assert check["observed"] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--r", "1", "--H", "1", "--variant", "unrestricted",
          "--oracle", "dp", "--slope-bound", "inf"], "slope_bound"),
        (["verify", "--r", "1", "--H", "1", "--variant", "unrestricted",
          "--oracle", "dp", "--slope-bound", "nan"], "slope_bound"),
        (["solve", "--r", "1", "--H", "1e80", "--variant", "restricted"], ""),
        (["solve", "--r", "1", "--H", "1e80", "--variant", "unrestricted"], ""),
        (["verify", "--r", "1", "--H", "0.4", "--variant", "restricted",
          "--oracle", "perturb", "--eps", "inf"], "epsilon"),
        (["verify", "--r", "1", "--H", "0.4", "--variant", "restricted",
          "--eps", "nan"], "epsilon"),
        (["solve", "--r", "1", "--H", "1e-17", "--variant", "restricted"], "H/r = 1e-17"),
        (["solve", "--r", "1", "--H", "1e-300", "--variant", "restricted"], "H/r = 1e-300"),
        # the two-rise representative's second rise rounds to zero width
        (["solve", "--r", "1", "--H", "1.1102230246251565e-16", "--variant", "restricted"],
         "H/r = 1.1102230246251565e-16"),
        (["verify", "--r", "1", "--H", "1e-300", "--variant", "unrestricted",
          "--oracle", "dp", "--slope-bound", "1e10"], "slope_bound * dx/dh"),
        (["solve", "--r", "1e-310", "--H", "1", "--variant", "restricted"],
         "H/r = 1.0 / 1e-310 overflows"),
        (["solve", "--r", "1e-300", "--H", "1e10", "--variant", "unrestricted"],
         "H/r = 10000000000.0 / 1e-300 overflows"),
        # the perturbation oracle builds the straight contour without solve
        (["verify", "--r", "1e-310", "--H", "1", "--variant", "restricted",
          "--oracle", "perturb"], "H/r = 1.0 / 1e-310 overflows"),
    ],
)
def test_unrepresentable_inputs_are_usage_errors(argv, message):
    proc = _run_python("-m", "newton2d.cli", *argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--r", "1", "--H", "1e100", "--variant", "restricted"], "slope 1e+100"),
        (["solve", "--r", "1", "--H", "1e100", "--variant", "unrestricted"], "slope 1e+100"),
        (["solve", "--r", "1", "--H", "1e160", "--variant", "restricted"], "slope 1e+160"),
        (["solve", "--r", "1", "--H", "1e160", "--variant", "unrestricted"], "slope 1e+160"),
        (["verify", "--r", "1", "--H", "0.4", "--variant", "restricted",
          "--oracle", "perturb", "--trials", "61681"], "at most 61680 trials"),
        (["verify", "--r", "1", "--H", "1e120", "--variant", "unrestricted",
          "--oracle", "perturb"], "slope 1e+120"),
    ],
)
def test_overflowing_slopes_and_oversized_trials_are_one_line_errors(argv, message):
    proc = _run_python("-m", "newton2d.cli", *argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_verify_mc_rejects_a_negative_seed_in_a_fresh_interpreter(seed):
    # numpy would refuse it too, but only once the oracle runs, and with a
    # message that names no flag
    proc = _run_python(
        "-m", "newton2d.cli", "verify", "--r", "1", "--H", "0.4",
        "--variant", "restricted", "--oracle", "mc", "--seed", seed,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == f"error: rng_seed must be a non-negative int, got {seed}\n"


def _openblas_kernels():
    # OpenBLAS kernels this CPU can run, by the instruction set each needs;
    # none when numpy is not linked to OpenBLAS or the flags cannot be read
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except (KeyError, OSError, TypeError):
        return []
    if "openblas" not in blas.lower():
        return []
    needs = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx"}
    return [kernel for kernel, flag in needs.items() if flag in flags]


def test_perturbation_stdout_does_not_depend_on_the_blas_kernel(monkeypatch):
    # OpenBLAS picks its ddot kernel per CPU; the perturbation sums are
    # fsums, so every kernel prints the same bytes
    kernels = _openblas_kernels()
    if len(kernels) < 2:
        pytest.skip("needs numpy on OpenBLAS and two kernels this CPU runs")
    argv = ["-m", "newton2d.cli", "verify", "--r", "1", "--H", "1.5",
            "--variant", "unrestricted", "--oracle", "perturb"]
    outputs = set()
    for kernel in kernels:
        monkeypatch.setenv("OPENBLAS_CORETYPE", kernel)
        proc = _run_python(*argv)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
