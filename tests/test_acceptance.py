"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a PASS/FAIL line for
it (run with ``pytest -s`` to see the lines as they happen).
"""

import contextlib
import json
import math

import numpy as np
import pytest

from newton2d.cli import main
from newton2d.extremal import (
    LAMBDA_MAX,
    SLOPE_THRESHOLD,
    Classification,
    check_certificate,
    classify_stationary,
    enumerate_minimizers,
    hamiltonian_derivatives,
    io_staircase_params,
    staircase_gradient_check,
    stationary_slopes,
)
from newton2d.functional import (
    branch_resistance_final_flat,
    resistance_2d,
    resistance_difference,
    resistance_difference_closed_form,
    staircase_resistance,
    triangle_resistance,
)
from newton2d.geometry import (
    CounterexampleParams,
    ProblemSpec,
    Variant,
    make_counterexample,
    make_staircase,
    make_triangle,
)
from newton2d.montecarlo import estimate_resistance, reflect
from newton2d.oracle import (
    DpConfig,
    PerturbationConfig,
    dp_min_resistance,
    second_variation_test,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    else:
        print(f"PASS criterion {number}: {label}")


def test_criterion_1_golden_values():
    with criterion(1, "golden drag values for the three closed-form families"):
        for r, H, expected in [(1.0, 1.0, 0.5), (1.0, 2.0, 0.2), (2.0, 1.0, 1.6)]:
            spec = ProblemSpec(r=r, H=H)
            assert triangle_resistance(spec) == pytest.approx(expected, rel=1e-12)
        for r, H, expected in [(1.0, 0.4, 0.8), (1.0, 0.5, 0.75)]:
            spec = ProblemSpec(r=r, H=H)
            value = staircase_resistance(io_staircase_params(spec), spec)
            assert value == pytest.approx(expected, rel=1e-12)
        wedge_spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
        for a, expected in [(3.0, 0.1), (10.0, 1.0 / 101.0)]:
            profile = make_counterexample(wedge_spec, CounterexampleParams(a=a))
            assert resistance_2d(profile) == pytest.approx(expected, rel=1e-12)


def test_criterion_2_family_invariance():
    with criterion(2, "100 random minimizing staircases all evaluate to r - H/2"):
        spec = ProblemSpec(r=1.0, H=0.4)
        expected = spec.r - spec.H / 2.0
        checked = 0
        for n in (1, 2, 3, 4, 5):
            for params in enumerate_minimizers(spec, n=n, count=20, rng_seed=2024 + n):
                assert staircase_resistance(params, spec) == pytest.approx(
                    expected, rel=1e-12
                )
                profile = make_staircase(spec, params)
                report = check_certificate(profile, spec, lam=0.5)
                assert report.passed
                checked += 1
        assert checked == 100


def test_criterion_3_dp_oracle_equivalence():
    with criterion(3, "grid DP matches the closed-form minimum and refines"):
        wide = ProblemSpec(r=1.0, H=0.4)
        tall = ProblemSpec(r=1.0, H=2.0)
        coarse_wide, _ = dp_min_resistance(wide, DpConfig(200, 200))
        coarse_tall, _ = dp_min_resistance(tall, DpConfig(200, 200))
        assert abs(coarse_wide - 0.8) <= 0.01
        assert abs(coarse_tall - 0.2) <= 0.01
        fine_wide, _ = dp_min_resistance(wide, DpConfig(400, 400))
        fine_tall, _ = dp_min_resistance(tall, DpConfig(400, 400))
        # strict error decrease at doubled resolution; with n_cells ==
        # n_levels the representable slope set is scale-invariant, so the
        # grid minimum is the same number at both resolutions in exact
        # arithmetic and this clause cannot hold (it fails on the tall case)
        assert abs(fine_wide - 0.8) < abs(coarse_wide - 0.8)
        assert abs(fine_tall - 0.2) < abs(coarse_tall - 0.2)


def test_criterion_4_threshold_behavior():
    with criterion(4, "stationary-slope structure across the multiplier range"):
        assert stationary_slopes(0.66) == ()
        at_max = stationary_slopes(LAMBDA_MAX)
        assert len(at_max) == 1
        assert abs(at_max[0] - SLOPE_THRESHOLD) <= 1e-9
        slopes = stationary_slopes(0.5)
        assert any(
            abs(2.0 * u / (1.0 + u * u) ** 2 - 0.5) <= 1e-12 and abs(u - 1.0) <= 1e-9
            for u in slopes
        )
        assert any(0.29 < u < 0.30 for u in slopes)
        assert classify_stationary(1.0) is Classification.LOCAL_MAX
        assert classify_stationary(0.3) is Classification.LOCAL_MIN
        assert classify_stationary(SLOPE_THRESHOLD) is Classification.INFLECTION
        _, _, d3 = hamiltonian_derivatives(SLOPE_THRESHOLD, 0.5)
        assert d3 == pytest.approx(-27.0 * math.sqrt(3.0) / 16.0, rel=1e-12)


def test_criterion_5_second_variation_ratios():
    with criterion(5, "perturbation ratios match the integrand curvature"):
        config = PerturbationConfig(epsilon=0.005, trials=64, rng_seed=42)
        for s in (0.3, 1.0, 2.0):
            spec = ProblemSpec(r=1.0, H=s)
            report = second_variation_test(make_triangle(spec), spec, config)
            expected = (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3
            assert abs(report.mean_ratio - expected) <= 0.05 * abs(expected)
            if s == 0.3:
                assert report.min_delta < 0.0
            else:
                assert report.min_delta > 0.0


def test_criterion_6_no_global_minimum_demonstration():
    with criterion(6, "slope-bounded drag minimum decays like r/(1+B^2)"):
        spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
        values = []
        for b in (2.0, 5.0, 10.0):
            value, _ = dp_min_resistance(
                spec, DpConfig(n_cells=400, n_levels=400, slope_bound=b)
            )
            assert abs(value - 1.0 / (1.0 + b * b)) <= 0.01
            values.append(value)
        assert values[0] > values[1] > values[2]


def test_criterion_7_difference_identity_audit():
    with criterion(7, "direct branch difference matches the corrected identity"):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            r = float(rng.uniform(0.2, 3.0))
            H = float(rng.uniform(0.2, 3.0))
            xi = float(rng.uniform(0.0, r))
            spec = ProblemSpec(r=r, H=H)
            direct = resistance_difference(xi, spec)
            closed = resistance_difference_closed_form(xi, spec)
            assert abs(direct - closed) <= 1e-12 * max(abs(direct), abs(closed), 1e-3)
        # the identity as often printed (numerator xi*H^2*(r^2 - r*xi - H^2)
        # over [(r-xi)^2 + H^2]) does not equal the direct difference
        r, H, xi = 1.0, 1.0, 0.8
        spec = ProblemSpec(r=r, H=H)
        printed = (
            xi * H**2 * (r**2 - r * xi - H**2)
            / (((r - xi) ** 2 + H**2) * (r**2 + H**2))
        )
        assert abs(resistance_difference(xi, spec) - printed) > 0.25


def test_criterion_8_monte_carlo_consistency():
    with criterion(8, "particle-collision estimate agrees with the closed form"):
        spec = ProblemSpec(r=1.0, H=0.4)
        profile = make_staircase(spec, io_staircase_params(spec))
        est = estimate_resistance(profile, n_samples=1_000_000, rng_seed=42)
        assert abs(est.estimate - 0.8) <= 3.0 * est.std_error
        assert abs(est.estimate - 0.8) / 0.8 <= 0.01
        rng = np.random.default_rng(515)
        for theta, u in zip(
            rng.uniform(0.0, 2.0 * np.pi, 10_000), rng.uniform(-5.0, 5.0, 10_000)
        ):
            out = reflect((float(np.cos(theta)), float(np.sin(theta))), float(u))
            assert abs(float(np.hypot(out[0], out[1])) - 1.0) <= 1e-14
        for u in rng.uniform(-5.0, 5.0, 10_000):
            down = reflect((0.0, -1.0), float(u))
            assert abs((down[1] + 1.0) - 2.0 / (1.0 + u * u)) <= 1e-14


def test_criterion_9_gradient_stationarity():
    with criterion(9, "reduced drag gradient vanishes on the minimizing family"):
        spec = ProblemSpec(r=1.0, H=0.4)
        for n in (1, 2, 3):
            for params in enumerate_minimizers(spec, n=n, count=3, rng_seed=77 + n):
                report = staircase_gradient_check(params, spec)
                assert report.analytic_norm <= 1e-8
                assert report.finite_difference_norm <= 1e-6
        h = 1e-6
        derivative = (
            branch_resistance_final_flat(spec.H + h, spec)
            - branch_resistance_final_flat(spec.H - h, spec)
        ) / (2.0 * h)
        assert abs(derivative) <= 1e-8


def _run_cli(argv):
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "CLI statuses, exit codes and sweep crossover row"):
        code, out = _run_cli(["solve", "--r", "1", "--H", "2", "--variant", "restricted"])
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "UniqueMinimizer"
        assert payload["resistance"] == pytest.approx(0.2, rel=1e-12)

        code, out = _run_cli(
            ["solve", "--r", "1", "--H", "0.4", "--variant", "restricted"]
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "InfiniteFamily"
        assert payload["resistance"] == pytest.approx(0.8, rel=1e-12)

        code, out = _run_cli(
            ["solve", "--r", "1", "--H", "0.5", "--variant", "unrestricted"]
        )
        payload = json.loads(out)
        assert code == 2
        assert payload["status"] == "NoSolution"

        out_csv = tmp_path / "sweep.csv"
        code, _ = _run_cli(
            [
                "sweep", "--r", "1", "--H-min", "0.5", "--H-max", "1.2",
                "--steps", "3", "--out", str(out_csv),
                "--cells", "60", "--levels", "60",
            ]
        )
        assert code == 0
        crossover = [
            line
            for line in out_csv.read_text().splitlines()
            if "crossover-H-equals-r" in line
        ]
        assert len(crossover) == 1
        fields = crossover[0].split(",")
        assert fields[1] == "0.5" and fields[2] == "0.5"


def test_criterion_11_dp_alone_finds_the_minimizers_of_claim_ii():
    with criterion(11, "grid DP alone finds r - H/2 and a slope-{0,1} staircase"):
        # on grids that hold slopes 0 and 1 (dh/dx = 1 or 1/2), no closed
        # form in the loop: below H = r the DP value is the family's r - H/2
        # and its argmin a slope-{0, 1} staircase, since 1/(1 + u^2) lies
        # above its tangent 1 - u/2 at every slope but 0 and 1; above, the
        # value is the straight contour's r^3/(r^2 + H^2) = 0.2 and the
        # argmin that contour.  The value is summed along the product tree,
        # within (N + ceil(log2 N)) eps of the grid optimum, relative
        # (dp_min_resistance's docstring)
        eps = np.finfo(float).eps
        for n, m, H in [(200, 80, 0.4), (200, 160, 0.4), (400, 160, 0.4), (200, 200, 2.0)]:
            spec = ProblemSpec(r=1.0, H=H)
            value, profile = dp_min_resistance(spec, DpConfig(n_cells=n, n_levels=m))
            expected = spec.r - spec.H / 2.0 if H < spec.r else 0.2
            assert abs(value - expected) <= (n + math.ceil(math.log2(n))) * eps * expected
            pts = profile.breakpoints
            if H > spec.r:
                assert pts == ((0.0, 0.0), (1.0, 2.0))
                continue
            assert pts[0] == (0.0, 0.0) and pts[-1] == (spec.r, spec.H)
            # a breakpoint is a rounded multiple of r/N and of H/M, so a
            # rise's slope is 1 within a few eps, and a flat's is exactly 0
            assert all(u == 0.0 or abs(u - 1.0) <= 4 * eps for u in profile.slopes)
            rises = [y1 - y0 for (_, y0), (_, y1) in zip(pts, pts[1:]) if y1 != y0]
            assert rises and math.fsum(rises) == spec.H
