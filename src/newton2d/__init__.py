"""Two-dimensional minimal-resistance bodies.

Closed-form solution families for the planar drag-minimization problem
(restricted and unrestricted slope variants), with three independent
numerical oracles: grid dynamic programming, second-variation
perturbation, and Monte Carlo particle collisions.

The closed-form layer (geometry, functional, extremal, jsonio) needs no
numpy and is imported eagerly.  The oracle and Monte Carlo names
(``DpConfig``, ``dp_min_resistance``, ``estimate_resistance`` and the rest
of ``_LAZY``) are bound on first use by a module ``__getattr__`` (PEP 562),
so ``import newton2d`` and the closed-form CLI commands never import
numpy.  The first access to any of them binds all of them into this
module and deletes ``__getattr__``.  CPython (3.11 and later) does not
specialize attribute loads on a module whose namespace holds
``__getattr__``, so a hook that stayed would slow every ``newton2d.X``
lookup, hits included: about twice as slow in a micro-benchmark on
CPython 3.11.7.  Once it is gone, lookups cost what an eager import gives.
"""

from .extremal import (
    LAMBDA_MAX,
    SLOPE_THRESHOLD,
    Classification,
    ExtremalCertificate,
    SolutionReport,
    SolutionStatus,
    check_certificate,
    classify_stationary,
    enumerate_minimizers,
    hamiltonian,
    hamiltonian_derivatives,
    lambda_for_slope,
    make_certificate,
    solve,
    staircase_gradient_check,
    stationary_slopes,
)
from .functional import (
    branch_resistance_final_flat,
    branch_resistance_initial_flat,
    resistance_2d,
    resistance_3d,
    resistance_difference,
    resistance_difference_closed_form,
    staircase_resistance,
    triangle_resistance,
)
from .geometry import (
    CounterexampleParams,
    ProblemSpec,
    Profile,
    StaircaseParams,
    ValidationResult,
    Variant,
    make_counterexample,
    make_staircase,
    make_triangle,
    profile_from_dict,
    profile_to_dict,
    validate,
)
__all__ = [
    "LAMBDA_MAX",
    "SLOPE_THRESHOLD",
    "Classification",
    "CollisionReport",
    "CounterexampleParams",
    "DpConfig",
    "ExtremalCertificate",
    "ImpactRecord",
    "McEstimate",
    "PerturbationConfig",
    "PerturbationReport",
    "ProblemSpec",
    "Profile",
    "SolutionReport",
    "SolutionStatus",
    "StaircaseParams",
    "ValidationResult",
    "Variant",
    "branch_resistance_final_flat",
    "branch_resistance_initial_flat",
    "check_certificate",
    "classify_stationary",
    "dp_min_resistance",
    "enumerate_minimizers",
    "estimate_resistance",
    "finite_difference_gradient",
    "hamiltonian",
    "hamiltonian_derivatives",
    "impact_at",
    "lambda_for_slope",
    "make_certificate",
    "make_counterexample",
    "make_staircase",
    "make_triangle",
    "profile_from_dict",
    "profile_to_dict",
    "reflect",
    "resistance_2d",
    "resistance_3d",
    "resistance_difference",
    "resistance_difference_closed_form",
    "second_variation_test",
    "single_collision_check",
    "solve",
    "staircase_gradient_check",
    "staircase_resistance",
    "stationary_slopes",
    "triangle_resistance",
    "validate",
]

_LAZY = {
    "montecarlo": (
        "CollisionReport",
        "ImpactRecord",
        "McEstimate",
        "estimate_resistance",
        "impact_at",
        "reflect",
        "single_collision_check",
    ),
    "oracle": (
        "DpConfig",
        "PerturbationConfig",
        "PerturbationReport",
        "dp_min_resistance",
        "finite_difference_gradient",
        "second_variation_test",
    ),
}


def __getattr__(name: str):
    if not any(name in names for names in _LAZY.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module_name, names in _LAZY.items():
        module = import_module(f".{module_name}", __name__)
        for lazy in names:
            namespace[lazy] = getattr(module, lazy)
    namespace.pop("__getattr__", None)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
