import json
import os
import subprocess
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


def test_cli_import_does_not_load_scipy():
    proc = _run_python("-c", "import sys, newton2d.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_ORACLE_MODULES = ("numpy", "newton2d.oracle", "newton2d.montecarlo")

_RUN_COMMANDS = """
import contextlib, io, json, sys
from newton2d.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
print(json.dumps([codes, [m for m in %r if m in sys.modules]]))
""" % (_ORACLE_MODULES,)


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
        (["solve", "--r", "1", "--H", "1e-16", "--variant", "restricted"], "H/r = 1e-16"),
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

