"""The two input rules of geometry, and every public numeric input they guard.

check_int (a Python int in a stated range, bool refused) and check_real (a
finite int or float in a stated range, bool and str refused) are the only
places that test a value's type; the table below sends bad values to every
public numeric input and expects a ValueError that names the argument.  A
walk over newton2d.__all__ keeps the table total: every parameter of a
public function, constructor or method has rows, or a reason in a short
allow-list.
"""

import ast
import enum
import inspect
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newton2d
from newton2d.extremal import (
    Classification,
    ExtremalCertificate,
    check_certificate,
    classify_stationary,
    enumerate_minimizers,
    hamiltonian,
    hamiltonian_derivatives,
    io_staircase_params,
    lambda_for_slope,
    make_certificate,
    staircase_gradient_check,
    stationary_slopes,
)
from newton2d.functional import (
    branch_resistance_final_flat,
    branch_resistance_initial_flat,
    resistance_difference,
    resistance_difference_closed_form,
)
from newton2d.geometry import (
    CounterexampleParams,
    Profile,
    ProblemSpec,
    StaircaseParams,
    Variant,
    check_int,
    check_real,
    make_staircase,
    make_triangle,
    profile_from_dict,
)
from newton2d.montecarlo import MAX_SAMPLES, estimate_resistance, impact_at, reflect, single_collision_check
from newton2d.oracle import (
    MAX_PERTURB_ELEMENTS,
    DpConfig,
    PerturbationConfig,
    dp_min_resistance,
    finite_difference_gradient,
    second_variation_test,
)

SPEC = ProblemSpec(1.0, 0.4)
TRIANGLE = make_triangle(SPEC)
FAMILY_MEMBER = make_staircase(SPEC, io_staircase_params(SPEC))
INTERIOR = StaircaseParams(n=2, xi=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), mu=(0.0, 0.2, 0.4))
GOOD_PROFILE = {
    "r": 1.0, "H": 0.4, "variant": "restricted", "breakpoints": [[0.0, 0.0], [1.0, 0.4]]
}
HUGE = 10**400  # an int beyond the largest double


def _perturb(**kwargs):
    return PerturbationConfig(**{"epsilon": 0.01, "trials": 1, "rng_seed": 0, **kwargs})


def _rule(name, call, value):
    # a value the rule itself refuses: the message names the argument and the value
    return pytest.param(call, value, re.escape(f"{name} must be"), True, id=f"{name}-{value!r}"[:40])


def _cap(name, call, value, message):
    # a value above a size cap, refused by the cap's own message
    return pytest.param(call, value, re.escape(message), False, id=f"{name}-above-cap")


def _int_cases(name, call, lo, cap=None):
    cases = [_rule(name, call, v) for v in (True, float(lo), math.nan, math.inf, -math.inf, lo - 1)]
    return cases + ([cap] if cap else [])


def _real_cases(name, call, below, cap=None):
    values = [True, "1", math.nan, math.inf, -math.inf, *below]
    return [_rule(name, call, v) for v in values] + [cap or _rule(name, call, HUGE)]


def _breakpoints(points):
    return profile_from_dict({**GOOD_PROFILE, "breakpoints": points})


def _spec_dimension(v):
    return ProblemSpec(1.0, 0.4, dimension=v)


def _spec_variant(v):
    return ProblemSpec(1.0, 0.4, variant=v)


def _staircase_n(v):
    return StaircaseParams(n=v, xi=(0.0, 0.6, 1.0, 1.0), mu=(0.0, 0.4))


def _dp_cells(v):
    # unrestricted: the target level M + N k_max grows with n_cells
    return dp_min_resistance(ProblemSpec(1.0, 1.0, "unrestricted"), DpConfig(v, 8, 2.0**23))


def _dp_levels(v):
    return dp_min_resistance(SPEC, DpConfig(8, v))


def _family_n(v):
    return enumerate_minimizers(SPEC, v, 3, 0)


def _family_count(v):
    return enumerate_minimizers(SPEC, 2, v, 0)


def _impact(v):
    return impact_at(TRIANGLE, v)


def _mc_samples(v):
    return estimate_resistance(TRIANGLE, v, 0)


def _collision(v):
    return single_collision_check(TRIANGLE, v)


def _reflect_slope(v):
    return reflect((0.0, -1.0), v)


def _xi_cases(f):
    # xi in [0, r], by the real-number rule
    def call(v):
        return f(v, SPEC)

    return _real_cases("xi", call, (-0.5,), _rule("xi", call, 1.5))


def _slope_derivatives(v):
    return hamiltonian_derivatives(v, 0.5)


def _stationary(v):
    return ExtremalCertificate(0.5, v, (Classification.LOCAL_MIN,))


def _classification(v):
    return ExtremalCertificate(0.5, (0.3,), v)


def _endpoints_message(spec, points):
    # check_endpoints' refusal of a contour that does not run from (0, 0) to (r, H)
    return f"profile must run from (0, 0) to (r, H) = ({spec.r!r}, {spec.H!r}), got {points[0]} to {points[-1]}"


def _other_body(spec, points):
    # a straight or bent contour that does not run from (0, 0) to (r, H):
    # second_variation_test refuses it by name, before drawing
    def call(profile):
        return second_variation_test(profile, spec, _perturb())
    message = re.escape(_endpoints_message(spec, points))
    return pytest.param(call, Profile(points), message, False, id=f"profile-{points[0]}-{points[-1]}")


def _uncertified(spec, points, message):
    # a profile check_certificate refuses, by name, as no body of spec
    def call(profile):
        return check_certificate(profile, spec, 0.5)
    return pytest.param(call, Profile(points), re.escape(message), False, id=f"certificate-{points[1:]}")


_DP_CAP = "use a smaller n_cells or n_levels"
_POSITIVE = (0.0, -1.0)

# the refusal table: each public (callable, parameter) pair, named as
# _public_parameters names it, and the rows that send it bad values.  pytest
# numbers repeated ids in table order, so a new row goes after every row
# whose id it repeats, and the other rows keep their names
_REFUSALS = {
    "ProblemSpec(dimension)": _int_cases("dimension", _spec_dimension, 2, _rule("dimension", _spec_dimension, 4)),
    "StaircaseParams(n)": _int_cases("n", _staircase_n, 1),
    "DpConfig(n_cells)": _int_cases(
        "n_cells", lambda v: DpConfig(v, 8), 2, _cap("n_cells", _dp_cells, 2**25, _DP_CAP)),
    "DpConfig(n_levels)": _int_cases(
        "n_levels", lambda v: DpConfig(8, v), 2, _cap("n_levels", _dp_levels, 2**13, _DP_CAP)),
    "PerturbationConfig(trials)": _int_cases("trials", lambda v: _perturb(trials=v), 1, _cap(
        "trials", lambda v: _perturb(trials=v), MAX_PERTURB_ELEMENTS, "trials * (mesh + 1)")),
    "PerturbationConfig(mesh)": _int_cases("mesh", lambda v: _perturb(mesh=v), 2, _cap(
        "mesh", lambda v: _perturb(mesh=v), MAX_PERTURB_ELEMENTS, "trials * (mesh + 1)")),
    "PerturbationConfig(rng_seed)": _int_cases("rng_seed", lambda v: _perturb(rng_seed=v), 0),
    "estimate_resistance(rng_seed)": _int_cases("rng_seed", lambda v: estimate_resistance(TRIANGLE, 2, v), 0),
    "estimate_resistance(n_samples)": _int_cases("n_samples", _mc_samples, 2, _rule("n_samples", _mc_samples, MAX_SAMPLES + 1)),
    "enumerate_minimizers(n)": _int_cases("n", _family_n, 1, _cap("n", _family_n, 2**20, "count * (2n + 1)")),
    "enumerate_minimizers(count)": _int_cases(
        "count", _family_count, 1, _cap("count", _family_count, 2**20, "count * (2n + 1)")),
    "ProblemSpec(variant)": [_rule("variant", _spec_variant, v) for v in (42, None, "Restricted", ["restricted"])],
    "ProblemSpec(r)": _real_cases("r", lambda v: ProblemSpec(v, 0.4), _POSITIVE),
    "ProblemSpec(H)": _real_cases("H", lambda v: ProblemSpec(1.0, v), _POSITIVE),
    "CounterexampleParams(a)": _real_cases("a", CounterexampleParams, _POSITIVE),
    "PerturbationConfig(epsilon)": _real_cases("epsilon", lambda v: _perturb(epsilon=v), _POSITIVE),
    "DpConfig(slope_bound)": _real_cases("slope_bound", lambda v: DpConfig(8, 8, v), (-1.0,)),
    "lambda_for_slope(s)": _real_cases("slope", lambda_for_slope, _POSITIVE, _cap(
        "slope", lambda_for_slope, 1e100, "slope 1e+100 is too steep")),
    "stationary_slopes(lam)": _real_cases("lam", stationary_slopes, _POSITIVE),
    "check_certificate(lam)": _real_cases("lam", lambda v: check_certificate(FAMILY_MEMBER, SPEC, v), _POSITIVE),
    "hamiltonian(u)": _real_cases("u", lambda v: hamiltonian(v, 0.5), ()),
    "hamiltonian(lam)": _real_cases("lam", lambda v: hamiltonian(0.5, v), (-1.0,)),
    # +-inf is too steep for the derivatives, as every |u| above about 3.4e38
    "hamiltonian_derivatives(u)": [
        *(_rule("u", _slope_derivatives, v) for v in (True, "1", math.nan, HUGE)),
        *(_cap("u", _slope_derivatives, v, f"slope {v} is too steep") for v in (math.inf, -math.inf)),
    ],
    "hamiltonian_derivatives(lam)": _real_cases("lam", lambda v: hamiltonian_derivatives(0.5, v), (-1.0,)),
    "classify_stationary(u)": _real_cases("u", classify_stationary, ()),
    # the certificate's fields: a tuple of real slopes, and as many
    # classifications of them
    "ExtremalCertificate(stationary)": [
        *_real_cases("stationary[0]", lambda v: _stationary((v,)), ()),
        *(_rule("stationary", _stationary, v) for v in (3, [0.3], None)),
    ],
    "ExtremalCertificate(classification)": [
        _rule("classification", _classification, v)
        for v in (4, (None,), ("local-min",), (), [Classification.LOCAL_MIN])
    ],
    "ExtremalCertificate.psi(x)": _real_cases("x", make_certificate(0.5).psi, ()),
    "finite_difference_gradient(point)": [
        _rule("point", lambda v: finite_difference_gradient(lambda p: 0.0, v, 1e-3), v) for v in (0.5, [[0.5]])
    ],
    "finite_difference_gradient(step)": _real_cases(
        "step", lambda v: finite_difference_gradient(lambda p: 0.0, np.zeros(1), v), _POSITIVE),
    "staircase_gradient_check(fd_step)": _real_cases(
        "fd_step", lambda v: staircase_gradient_check(INTERIOR, SPEC, fd_step=v), _POSITIVE),
    "Profile.segment_index(x)": _real_cases(
        "x", TRIANGLE.segment_index, (-0.5,), _rule("x", TRIANGLE.segment_index, 1.5)),
    "impact_at(x)": _real_cases("x", _impact, (-0.5,), _rule("x", _impact, 1.5)),
    # each component before the unit-norm test, which NaN would pass vacuously
    "reflect(velocity)": [
        *_real_cases("velocity x", lambda v: reflect((v, -1.0), 1.0), ()),
        *_real_cases("velocity y", lambda v: reflect((0.0, v), 1.0), ()),
    ],
    "profile_from_dict(data)": [
        _rule("variant", lambda v: profile_from_dict({**GOOD_PROFILE, "variant": v}), 0),
        *_real_cases("r", lambda v: profile_from_dict({**GOOD_PROFILE, "r": v}), (0.0,)),
        *_real_cases("H", lambda v: profile_from_dict({**GOOD_PROFILE, "H": v}), (0.0,)),
        *_real_cases("breakpoint 1 x", lambda v: _breakpoints([[0.0, 0.0], [v, 0.4]]), ()),
        *_real_cases("breakpoint 0 y", lambda v: _breakpoints([[0.0, v], [1.0, 0.4]]), ()),
        *(
            pytest.param(
                _breakpoints, points, re.escape(f"breakpoint {i} must be an [x, y] pair"), False, id=f"pair-{i}"
            )
            for i, points in (
                (1, [[0.0, 0.0], [1.0, 0.4, 0.0]]),
                (0, [[0.0], [1.0, 0.4]]),
                (0, ["xy", [1.0, 0.4]]),
            )
        ),
    ],
    # the constructors' type rule: no conversion of a bool or a str, and an
    # int beyond the doubles named, not an OverflowError; NaN and inf have
    # the constructors' own finiteness rules
    "Profile(breakpoints)": [
        _rule("breakpoint 1 y", lambda v: Profile(((0.0, 0.0), (1.0, v))), v) for v in (True, "1", HUGE)
    ],
    "StaircaseParams(xi)": [
        _rule("xi[1]", lambda v: StaircaseParams(1, (0.0, v, 1.0, 1.0), (0.0, 0.4)), v) for v in (True, "1", HUGE)
    ],
    "StaircaseParams(mu)": [
        _rule("mu[1]", lambda v: StaircaseParams(1, (0.0, 0.5, 1.0, 1.0), (0.0, v)), v) for v in (True, "1", HUGE)
    ],
    "ExtremalCertificate(lam)": _real_cases("lam", lambda v: ExtremalCertificate(v, (), ()), _POSITIVE),
    "ExtremalCertificate(psi0)": [
        pytest.param(lambda v: ExtremalCertificate(0.5, (), (), v), v, "psi0 is normalized to -1", False, id=f"psi0-{v!r}")
        for v in (1.0, math.nan, True, "a")
    ],
    "make_certificate(lam)": _real_cases("lam", make_certificate, _POSITIVE),
    "enumerate_minimizers(rng_seed)": _int_cases("rng_seed", lambda v: enumerate_minimizers(SPEC, 2, 3, v), 0),
    "branch_resistance_initial_flat(xi)": _xi_cases(branch_resistance_initial_flat),
    "branch_resistance_final_flat(xi)": _xi_cases(branch_resistance_final_flat),
    "resistance_difference(xi)": _xi_cases(resistance_difference),
    "resistance_difference_closed_form(xi)": _xi_cases(resistance_difference_closed_form),
    "Profile.slope_at(x)": _real_cases("x", TRIANGLE.slope_at, (-0.5,), _rule("x", TRIANGLE.slope_at, 1.5)),
    "single_collision_check(ray_tol)": [
        *_real_cases("ray_tol", _collision, (-1e-9,), _rule("ray_tol", _collision, 1.5)),
        _cap("ray_tol", _collision, 1.0, "ray_tol must lie in [0, 1), got 1.0"),
    ],
    # the perturbed profile must be the spec's own body: a longer one, one
    # of another height, or one starting elsewhere was once tested at its
    # own slope under the spec's name
    "second_variation_test(profile)": [
        _other_body(SPEC, ((0.0, 0.0), (3.0, 0.75))),
        _other_body(ProblemSpec(1.0, 0.1, "unrestricted"), ((0.0, 0.0), (1.0, 0.75))),
        _other_body(SPEC, ((0.5, 0.0), (1.0, 0.4))),
        _other_body(SPEC, ((0.0, 0.0), (0.6, 0.0), (1.0, 0.5))),
    ],
    # the certified profile must be a body of spec: one of another width,
    # height or start once passed under the spec's name, and a restricted
    # one with a negative slope passed with a negative gap
    "check_certificate(profile)": [
        *(
            _uncertified(spec, points, _endpoints_message(spec, points))
            for spec, points in (
                (ProblemSpec(1, 0.4), ((0.0, 0.0), (1.0, 0.0), (3.0, 2.0))),
                (SPEC, ((0.0, 0.0), (0.6, 0.0), (1.0, 0.5))),
                (SPEC, ((0.5, 0.0), (1.0, 0.4))),
                (ProblemSpec(1.0, 0.4, "unrestricted"), ((0.0, 0.0), (0.5, -0.1), (1.0, 0.5))),
            )
        ),
        _uncertified(
            SPEC, ((0.0, 0.0), (0.5, -0.1), (1.0, 0.4)),
            "segment 0 has negative slope -0.2 (restricted variant requires u >= 0)",
        ),
        _uncertified(
            SPEC, ((0.0, 0.0), (0.25, 0.25), (0.5, 0.25 - 2.0**-38), (1.0, 0.4)),
            f"segment 1 has negative slope {-(2.0**-36)} (restricted variant requires u >= 0)",
        ),
    ],
    # a float slope by the real-number rule; an array by finiteness alone
    "reflect(slope)": [
        *(
            pytest.param(_reflect_slope, v, re.escape("slope must be"), True, id=f"reflect-slope-{v!r}")
            for v in (math.inf, -math.inf, math.nan, True, "a")
        ),
        pytest.param(
            _reflect_slope, np.array([0.5, math.nan]), re.escape("slope[1] must be a finite number, got nan"),
            False, id="reflect-slope-array",
        ),
    ],
}
_CASES = [row for rows in _REFUSALS.values() for row in rows]


@pytest.mark.parametrize("call, value, message, names_value", _CASES)
def test_every_public_numeric_input_refuses_a_bad_value_by_name(call, value, message, names_value):
    with pytest.raises(ValueError, match=message) as info:
        call(value)
    if names_value:
        assert str(info.value).endswith(f", got {value!r}")


# public parameters with no rows, by kind, each kind with its reason:
# - an argument typed as one of these records, which refuse bad fields when built
_TYPED = ("Profile", "ProblemSpec", "StaircaseParams", "CounterexampleParams", "DpConfig", "PerturbationConfig")
# - every field of a report, which the package builds from inputs it has checked
_REPORTS = ("CollisionReport", "ImpactRecord", "McEstimate", "PerturbationReport", "SolutionReport", "ValidationResult")
# - single parameters; enums are not walked, since an enum refuses an unknown value itself
_UNREFUSED = {
    "finite_difference_gradient(evaluator)": "a callable, called as given",
}


def _public_parameters():
    # "f(p)" for each parameter p of each public function f, "C(p)" of each
    # public class's constructor and "C.m(p)" of its public methods, mapped
    # to the annotation; lazy names resolved
    found = {}
    for name in newton2d.__all__:
        obj = getattr(newton2d, name)
        if isinstance(obj, type) and issubclass(obj, enum.Enum) or not callable(obj):
            continue
        params = {name: list(inspect.signature(obj).parameters.values())}
        if isinstance(obj, type):
            for attr, method in vars(obj).items():
                if inspect.isfunction(method) and not attr.startswith("_"):
                    params[f"{name}.{attr}"] = list(inspect.signature(method).parameters.values())[1:]
        for label, listed in params.items():
            for param in listed:
                found[f"{label}({param.name})"] = param.annotation
    return found


def test_every_public_parameter_is_refused_or_allowed():
    found = _public_parameters()
    assert "Profile.segment_index(x)" in found and "ExtremalCertificate.psi(x)" in found
    assert set(_TYPED) | set(_REPORTS) <= set(newton2d.__all__)
    allowed = set(_UNREFUSED) | {
        pair for pair, annotation in found.items()
        if annotation in _TYPED or pair.split("(")[0] in _REPORTS
    }
    assert set(_REFUSALS) | set(_UNREFUSED) <= set(found)
    assert set(found) - allowed - set(_REFUSALS) == set()


@pytest.mark.parametrize("velocity", [(0, -1), (np.float64(0.0), np.float64(-1.0)), np.array([0.0, -1.0])])
def test_reflect_takes_int_and_numpy_float_components(velocity):
    assert np.array_equal(reflect(velocity, 0.5), reflect((0.0, -1.0), 0.5))


@given(st.integers(-(2**70), 2**70), st.integers(0, 2**70), st.data())
def test_ints_in_range_pass_the_integer_rule(lo, span, data):
    value = data.draw(st.integers(lo, lo + span))
    check_int("v", value, lo, lo + span)
    check_int("v", value, lo)


@given(st.floats(allow_nan=False, allow_infinity=False), st.data())
def test_reals_in_range_pass_the_real_number_rule(lo, data):
    hi = data.draw(st.floats(min_value=lo, allow_nan=False, allow_infinity=False))
    value = data.draw(st.floats(lo, hi))
    check_real("v", value, lo, hi)
    check_real("v", value, lo)
    check_real("v", value)
    if value > 0.0:
        check_real("v", value, positive=True)


@given(st.integers(-(2**1023), 2**1023))
def test_ints_within_the_doubles_pass_the_real_number_rule(value):
    check_real("v", value)
    if value > 0:
        check_real("v", value, positive=True)


def _refused_by_the_old_rule(value, lo, hi, positive):
    # check_real's test before it was one expression, kept as the reference
    return isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        max(lo, -sys.float_info.max) <= value <= min(hi, sys.float_info.max)
        and (value > 0 or not positive)
    )


_MAX = sys.float_info.max
_RULE_EDGES = [0, 0.0, -0.0, 1, -1, _MAX, -_MAX, 2**1024, -(2**1024), HUGE, math.inf, -math.inf, math.nan]
_RULE_VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([*_RULE_EDGES, True, False, "1", "", None, b"1", np.float64(0.5), np.float64(-_MAX), np.int64(1)]),
)
# bounds as the package passes them: floats, +-inf, NaN and ints within the doubles
_RULE_BOUNDS = st.one_of(
    st.floats(), st.integers(-(2**1023), 2**1023), st.sampled_from([0, 0.0, -0.0, _MAX, -_MAX, math.inf, -math.inf])
)


@settings(max_examples=1000)
@given(_RULE_VALUES, _RULE_BOUNDS, _RULE_BOUNDS, st.booleans())
@example(True, -math.inf, math.inf, False)
@example(HUGE, -math.inf, math.inf, False)
@example(2**1024 - 2**970, -math.inf, math.inf, False)
@example(-_MAX, -math.inf, math.inf, True)
@example(math.nan, math.nan, math.nan, False)
@example(0.5, math.nan, 1.0, False)
def test_the_real_number_rule_refuses_what_the_old_rule_refused(value, lo, hi, positive):
    try:
        check_real("v", value, lo, hi, positive=positive)
        refused = False
    except ValueError:
        refused = True
    assert refused == _refused_by_the_old_rule(value, lo, hi, positive)


@given(_RULE_VALUES, st.integers(-(2**70), 2**70), st.one_of(st.integers(-(2**70), 2**70), st.just(math.inf)))
@example(True, 0, 1)
@example(False, 0, math.inf)
@example(np.int64(1), 0, 1)
@example(1.0, 0, 1)
def test_the_integer_rule_refuses_what_the_old_rule_refused(value, lo, hi):
    try:
        check_int("v", value, lo, hi)
        refused = False
    except ValueError:
        refused = True
    assert refused == (isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_variant_member_and_its_value_make_the_same_spec(variant):
    spec = ProblemSpec(1.0, 0.4, variant=variant)
    assert spec == ProblemSpec(1.0, 0.4, variant=variant.value)
    assert spec.variant is variant


# the functions allowed to test isinstance(..., bool): the two rules alone,
# since the JSON writer leaves bool, like every scalar but float, to json
_BOOL_TESTS = {"geometry": ["check_int", "check_real"]}


def _bool_tests(tree):
    # the enclosing function of every isinstance call whose class names bool
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(child.args[1]))
            ):
                found.append(function)
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_the_two_rules_test_for_bool():
    package = Path(newton2d.__file__).parent
    found = {
        path.stem: tests
        for path in sorted(package.glob("*.py"))
        if (tests := _bool_tests(ast.parse(path.read_text())))
    }
    assert found == _BOOL_TESTS
