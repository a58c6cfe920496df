"""Particle-collision validation of the drag law.

Simulates the classical hypotheses (parallel stream of immovable
particles, absolutely elastic single collisions) by specular reflection.
The axial momentum transfer is always computed from the reflected vector;
the closed form 2/(1+u^2) lives only in the tests, so the estimator stays
an independent check of the drag integrand rather than a restatement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Profile


@dataclass(frozen=True)
class ImpactRecord:
    """One particle impact: location, surface slope and momentum transfer."""

    x: float
    slope: float
    incoming: tuple[float, float]
    reflected: tuple[float, float]
    axial_impulse: float


@dataclass(frozen=True)
class McEstimate:
    """Drag estimate with its standard error and sampling metadata."""

    estimate: float
    std_error: float
    n_samples: int
    rng_seed: int

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.rng_seed,
        }


@dataclass(frozen=True)
class CollisionReport:
    """Reflected-ray re-intersection diagnostics per segment."""

    reintersections: tuple[tuple[int, int], ...]
    passed: bool
    notes: tuple[str, ...] = ()


def reflect(velocity, slope: float | np.ndarray) -> np.ndarray:
    """Specular reflection of a unit velocity off a surface of given slope.

    v' = v - 2 (v . n) n with unit normal n = (-u, 1)/sqrt(1+u^2).  slope
    may be a float or an array; the result has shape (2,) + shape(slope),
    row 0 holding the x components and row 1 the y components.
    """
    v = np.asarray(velocity, dtype=float)
    norm = np.hypot(v[0], v[1])
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"velocity must be a unit vector, |v| = {norm}")
    den = np.sqrt(1.0 + slope * slope)
    nx = -slope / den
    ny = 1.0 / den
    vdotn = v[0] * nx + v[1] * ny
    return np.array([v[0] - 2.0 * vdotn * nx, v[1] - 2.0 * vdotn * ny])


def impact_at(profile: Profile, x: float) -> ImpactRecord:
    """Impact of one downward particle at abscissa x."""
    u = profile.slope_at(x)
    reflected = reflect((0.0, -1.0), u)
    return ImpactRecord(
        x=x,
        slope=u,
        incoming=(0.0, -1.0),
        reflected=(float(reflected[0]), float(reflected[1])),
        axial_impulse=float(reflected[1]) + 1.0,
    )


def estimate_resistance(
    profile: Profile, n_samples: int, rng_seed: int
) -> McEstimate:
    """Monte Carlo drag estimate from sampled particle impacts.

    Under the parallel-stream hypothesis the impact abscissa is uniform on
    [0, r], so (r/n) * sum(axial_impulse / 2) is an unbiased estimator of
    the drag integral.  Deterministic for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    xs_bp = np.array(profile.xs)
    # half the axial impulse of a particle reflected by each segment; an
    # impact takes its segment's value, exactly as if reflected one by one
    g_segment = (reflect((0.0, -1.0), np.array(profile.slopes))[1] + 1.0) / 2.0
    x0, x1 = xs_bp[0], xs_bp[-1]
    xs = rng.uniform(x0, x1, n_samples)
    idx = np.clip(np.searchsorted(xs_bp, xs, side="right") - 1, 0, g_segment.size - 1)
    g = g_segment[idx]
    width = x1 - x0
    estimate = width * float(np.mean(g))
    if n_samples > 1:
        std_error = width * float(np.std(g, ddof=1)) / np.sqrt(n_samples)
    else:
        std_error = float("inf")
    return McEstimate(
        estimate=estimate,
        std_error=std_error,
        n_samples=n_samples,
        rng_seed=rng_seed,
    )


def single_collision_check(profile: Profile, ray_tol: float = 1e-9) -> CollisionReport:
    """Check the single-impact hypothesis by tracing reflected rays.

    For each segment, the ray reflected from its midpoint is intersected
    with every other segment of the contour graph.  Monotone contours with
    slopes in [0, 1] never re-intersect: their rays travel weakly leftward
    and upward over strictly lower parts of the graph.  Negative-slope
    faces are flagged in the notes because the analytic drag keeps pricing
    them by the single-impact rule regardless.
    """
    pts = profile.breakpoints
    slopes = profile.slopes
    hits: list[tuple[int, int]] = []
    notes: list[str] = []
    for i, u in enumerate(slopes):
        (ax0, ay0), (ax1, ay1) = pts[i], pts[i + 1]
        ox = (ax0 + ax1) / 2.0
        oy = (ay0 + ay1) / 2.0
        d = reflect((0.0, -1.0), u)
        for j in range(len(slopes)):
            if j == i:
                continue
            if _ray_hits_segment(ox, oy, d[0], d[1], pts[j], pts[j + 1], ray_tol):
                hits.append((i, j))
    if any(u < 0.0 for u in slopes):
        notes.append(
            "profile has negative-slope faces; the analytic drag values "
            "follow the single-impact accounting regardless of any "
            "re-intersection"
        )
    return CollisionReport(
        reintersections=tuple(hits),
        passed=not hits,
        notes=tuple(notes),
    )


def _ray_hits_segment(
    ox: float,
    oy: float,
    dx: float,
    dy: float,
    p0: tuple[float, float],
    p1: tuple[float, float],
    tol: float,
) -> bool:
    ex = p1[0] - p0[0]
    ey = p1[1] - p0[1]
    det = dx * (-ey) - (-ex) * dy
    if abs(det) < 1e-15:
        return False
    bx = p0[0] - ox
    by = p0[1] - oy
    t = (bx * (-ey) + ex * by) / det
    s = (dx * by - dy * bx) / det
    return t > tol and -1e-12 <= s <= 1.0 + 1e-12
