"""Closed-form resistance functionals.

The drag integrand is constant on every segment of a piecewise-linear
contour, so all evaluations here are exact per-segment algebra; no
quadrature is used anywhere.
"""

from __future__ import annotations

from .geometry import Profile, ProblemSpec, StaircaseParams, check_real, make_staircase


def _segment_drag(width: float, rise: float) -> float:
    # w^3 / (w^2 + h^2) written in the slope, so that it scales exactly with
    # (w, h) where w^3 would under- or overflow; zero width has no drag
    if width == 0.0:
        return 0.0
    u = rise / width
    return width / (1.0 + u * u)


def resistance_2d(profile: Profile) -> float:
    """Planar drag: sum of dx_i / (1 + u_i^2) over segments."""
    total = 0.0
    pts = profile.breakpoints
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        total += _segment_drag(x1 - x0, y1 - y0)
    return total


def resistance_3d(profile: Profile) -> float:
    """Axisymmetric drag: sum of (x_{i+1}^2 - x_i^2) / (2 (1 + u_i^2)).

    Evaluation only; no 3-D solver is provided.
    """
    total = 0.0
    pts = profile.breakpoints
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        total += 0.5 * (x0 + x1) * _segment_drag(x1 - x0, y1 - y0)
    return total


def triangle_resistance(spec: ProblemSpec) -> float:
    """Drag of the straight contour y = (H/r) x: r^3 / (r^2 + H^2)."""
    return _segment_drag(spec.r, spec.H)


def staircase_resistance(params: StaircaseParams, spec: ProblemSpec) -> float:
    """Drag of a flat/rise staircase from its (xi, mu) parameters.

    Flats contribute their width; rise i contributes w^3 / (w^2 + h^2)
    with w, h its width and height.  Evaluated as resistance_2d of the
    constructed profile, which raises ValueError when the parameters do
    not end at (r, H).
    """
    return resistance_2d(make_staircase(spec, params))


def branch_resistance_initial_flat(xi: float, spec: ProblemSpec) -> float:
    """Drag of flat-then-rise: R(xi) = xi + (r-xi)^3 / ((r-xi)^2 + H^2).

    Minimized over [0, r-H] at xi = r - H when H <= r.
    """
    check_real("xi", xi, 0.0, spec.r)
    if xi == spec.r:
        raise ValueError(f"xi = {xi} must lie in [0, r) with r = {spec.r}")
    return xi + _segment_drag(spec.r - xi, spec.H)


def branch_resistance_final_flat(xi: float, spec: ProblemSpec) -> float:
    """Drag of rise-then-flat: R(xi) = xi^3 / (xi^2 + H^2) + r - xi.

    Minimized at xi = H when H <= r.
    """
    check_real("xi", xi, 0.0, spec.r)
    if xi == 0.0:
        raise ValueError(f"xi = {xi} must lie in (0, r] with r = {spec.r}")
    return _segment_drag(xi, spec.H) + spec.r - xi


def resistance_difference(xi: float, spec: ProblemSpec) -> float:
    """Triangle drag minus the rise-then-flat branch drag, computed directly.

    Negative for all xi in (0, r) when r < H (the triangle wins); positive
    at xi = H when r > H (the staircase wins).
    """
    check_real("xi", xi, 0.0, spec.r)
    return triangle_resistance(spec) - (_segment_drag(xi, spec.H) + spec.r - xi)


def resistance_difference_closed_form(xi: float, spec: ProblemSpec) -> float:
    """Closed form of :func:`resistance_difference`:

        H^2 (r - xi) (r xi - H^2) / [(xi^2 + H^2)(r^2 + H^2)]

    Cross-check only; the directly computed difference is authoritative.
    """
    check_real("xi", xi, 0.0, spec.r)
    r, H = spec.r, spec.H
    return (
        H * H * (r - xi) * (r * xi - H * H)
        / ((xi * xi + H * H) * (r * r + H * H))
    )
