"""The two input rules of geometry, and every public numeric input they guard.

check_int (a Python int in a stated range, bool refused) and check_real (a
finite int or float in a stated range, bool and str refused) are the only
places that test a value's type; the table below sends bad values to every
public numeric input and expects a ValueError that names the argument.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import newton2d
from newton2d.extremal import (
    check_certificate,
    classify_stationary,
    enumerate_minimizers,
    hamiltonian,
    hamiltonian_derivatives,
    io_staircase_params,
    lambda_for_slope,
    staircase_gradient_check,
    stationary_slopes,
)
from newton2d.geometry import (
    CounterexampleParams,
    ProblemSpec,
    StaircaseParams,
    check_int,
    check_real,
    check_seed,
    make_staircase,
    make_triangle,
    profile_from_dict,
)
from newton2d.montecarlo import MAX_SAMPLES, check_sample_count, impact_at, reflect
from newton2d.oracle import (
    MAX_PERTURB_ELEMENTS,
    DpConfig,
    PerturbationConfig,
    dp_min_resistance,
    finite_difference_gradient,
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
    # unrestricted: the N x (top+1) rise table grows with n_cells
    return dp_min_resistance(ProblemSpec(1.0, 1.0, "unrestricted"), DpConfig(v, 8, 2.0**23))


def _dp_levels(v):
    return dp_min_resistance(SPEC, DpConfig(8, v))


def _family_n(v):
    return enumerate_minimizers(SPEC, v, 3, 0)


def _family_count(v):
    return enumerate_minimizers(SPEC, 2, v, 0)


def _impact(v):
    return impact_at(TRIANGLE, v)


def _slope_derivatives(v):
    return hamiltonian_derivatives(v, 0.5)


_DP_CAP = "use a smaller n_cells or n_levels"
_POSITIVE = (0.0, -1.0)

_CASES = [
    *_int_cases("dimension", _spec_dimension, 2, _rule("dimension", _spec_dimension, 4)),
    *_int_cases("n", _staircase_n, 1),
    *_int_cases("n_cells", lambda v: DpConfig(v, 8), 2, _cap("n_cells", _dp_cells, 2**25, _DP_CAP)),
    *_int_cases("n_levels", lambda v: DpConfig(8, v), 2, _cap("n_levels", _dp_levels, 2**13, _DP_CAP)),
    *_int_cases("trials", lambda v: _perturb(trials=v), 1, _cap(
        "trials", lambda v: _perturb(trials=v), MAX_PERTURB_ELEMENTS, "trials * (mesh + 1)")),
    *_int_cases("mesh", lambda v: _perturb(mesh=v), 2, _cap(
        "mesh", lambda v: _perturb(mesh=v), MAX_PERTURB_ELEMENTS, "trials * (mesh + 1)")),
    *_int_cases("rng_seed", lambda v: _perturb(rng_seed=v), 0),
    *_int_cases("rng_seed", check_seed, 0),
    *_int_cases("n_samples", check_sample_count, 2, _rule("n_samples", check_sample_count, MAX_SAMPLES + 1)),
    *_int_cases("n", _family_n, 1, _cap("n", _family_n, 2**20, "count * (2n + 1)")),
    *_int_cases("count", _family_count, 1, _cap("count", _family_count, 2**20, "count * (2n + 1)")),
    *(_rule("variant", _spec_variant, v) for v in (42, None, "Restricted", ["restricted"])),
    _rule("variant", lambda v: profile_from_dict({**GOOD_PROFILE, "variant": v}), 0),
    *_real_cases("r", lambda v: ProblemSpec(v, 0.4), _POSITIVE),
    *_real_cases("H", lambda v: ProblemSpec(1.0, v), _POSITIVE),
    *_real_cases("a", CounterexampleParams, _POSITIVE),
    *_real_cases("epsilon", lambda v: _perturb(epsilon=v), _POSITIVE),
    *_real_cases("slope_bound", lambda v: DpConfig(8, 8, v), (-1.0,)),
    *_real_cases("slope", lambda_for_slope, _POSITIVE, _cap(
        "slope", lambda_for_slope, 1e100, "slope 1e+100 is too steep")),
    *_real_cases("lam", stationary_slopes, _POSITIVE),
    *_real_cases("lam", lambda v: check_certificate(FAMILY_MEMBER, SPEC, v), _POSITIVE),
    *_real_cases("u", lambda v: hamiltonian(v, 0.5), ()),
    *_real_cases("lam", lambda v: hamiltonian(0.5, v), (-1.0,)),
    # +-inf is too steep for the derivatives, as every |u| above about 3.4e38
    *(_rule("u", _slope_derivatives, v) for v in (True, "1", math.nan, HUGE)),
    *(_cap("u", _slope_derivatives, v, f"slope {v} is too steep") for v in (math.inf, -math.inf)),
    *_real_cases("lam", lambda v: hamiltonian_derivatives(0.5, v), (-1.0,)),
    *_real_cases("u", classify_stationary, ()),
    *_real_cases("tol", lambda v: check_certificate(FAMILY_MEMBER, SPEC, 0.5, tol=v), (-1e-9,)),
    *_real_cases("step", lambda v: finite_difference_gradient(lambda p: 0.0, np.zeros(1), v), _POSITIVE),
    *_real_cases("fd_step", lambda v: staircase_gradient_check(INTERIOR, SPEC, fd_step=v), _POSITIVE),
    *_real_cases("x", TRIANGLE.segment_index, (-0.5,), _rule("x", TRIANGLE.segment_index, 1.5)),
    *_real_cases("x", _impact, (-0.5,), _rule("x", _impact, 1.5)),
    # each component before the unit-norm test, which NaN would pass vacuously
    *_real_cases("velocity x", lambda v: reflect((v, -1.0), 1.0), ()),
    *_real_cases("velocity y", lambda v: reflect((0.0, v), 1.0), ()),
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
]


@pytest.mark.parametrize("call, value, message, names_value", _CASES)
def test_every_public_numeric_input_refuses_a_bad_value_by_name(call, value, message, names_value):
    with pytest.raises(ValueError, match=message) as info:
        call(value)
    if names_value:
        assert str(info.value).endswith(f", got {value!r}")


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
