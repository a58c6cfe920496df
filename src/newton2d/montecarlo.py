"""Particle-collision validation of the drag law.

Simulates the classical hypotheses (parallel stream of immovable
particles, absolutely elastic single collisions) by specular reflection.
The axial momentum transfer is always computed from the reflected vector;
the closed form 2/(1+u^2) lives only in the tests, so the estimator stays
an independent check of the drag integrand rather than a restatement.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Profile, Record, check_int, check_real, check_seed, report_type

if TYPE_CHECKING:
    from .reports import CollisionReport

#: Most samples estimate_resistance draws; see check_sample_count.
MAX_SAMPLES = 2**25

#: Most (segment, breakpoint) pairs single_collision_check evaluates at once
#: (one row of S + 1 when S + 1 is larger).  A block keeps about a dozen
#: float64 temporaries of that size alive, 1.5 MiB at 2^14, which fits a
#: 2 MiB L2 cache; a dense table over all pairs would hold S^2 elements.
COLLISION_BLOCK = 2**14


class ImpactRecord(Record):
    """One particle impact: location, surface slope and momentum transfer."""

    def __init__(
        self,
        x: float,
        slope: float,
        incoming: tuple[float, float],
        reflected: tuple[float, float],
        axial_impulse: float,
    ) -> None:
        self._init(x, slope, incoming, reflected, axial_impulse)


class McEstimate(Record):
    """Drag estimate with its standard error and sampling metadata."""

    def __init__(self, estimate: float, std_error: float, n_samples: int, rng_seed: int) -> None:
        self._init(estimate, std_error, n_samples, rng_seed)

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.rng_seed,
        }


def reflect(velocity, slope: float | np.ndarray) -> np.ndarray:
    """Specular reflection of a unit velocity off a surface of given slope.

    v' = v - 2 (v . n) n with unit normal n = (-u, 1)/sqrt(1+u^2).  slope
    may be a float or an array; the result has shape (2,) + shape(slope),
    row 0 holding the x components and row 1 the y components.  Where
    1 + u^2 overflows (|u| above about 1.34e154) the normal is its limit
    (-sign u, 1/|u|), within 1/(2 u^2) relative of the exact one, below
    rounding.  Each velocity component and a float slope pass the real-number
    rule; ValueError names an array slope's first non-finite entry (flat index).
    """
    vx, vy = velocity
    check_real("velocity x", vx)
    check_real("velocity y", vy)
    if not isinstance(slope, np.ndarray):
        check_real("slope", slope)
    elif not (finite := np.isfinite(slope)).all():
        i = int(finite.argmin())
        raise ValueError(f"slope[{i}] must be a finite number, got {float(slope.flat[i])!r}")
    vx, vy = float(vx), float(vy)
    norm = math.hypot(vx, vy)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"velocity must be a unit vector, |v| = {norm}")
    with np.errstate(over="ignore"):
        den = np.sqrt(1.0 + slope * slope)
    # where 1 + u^2 overflows, sqrt(1 + u^2) is |u| far below rounding, and
    # -u/|u| is -sign u exactly
    den = np.where(np.isinf(den), np.abs(slope), den)
    nx = -slope / den
    ny = 1.0 / den
    twice_vdotn = 2.0 * (vx * nx + vy * ny)
    return np.array([vx - twice_vdotn * nx, vy - twice_vdotn * ny])


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


def check_sample_count(n_samples: int) -> None:
    """Reject a Monte Carlo sample count before anything is drawn.

    n_samples passes the integer rule in [2, MAX_SAMPLES = 2^25]; one
    sample has no standard error.  The cap is fixed, not a setting.
    """
    check_int("n_samples", n_samples, 2, MAX_SAMPLES)


def segment_counts(profile: Profile, n_samples: int, rng_seed: int) -> np.ndarray:
    """How many of estimate_resistance's n_samples impacts fall in each segment.

    An int64 array of one count per segment, summing to n_samples: one
    multinomial draw from default_rng(rng_seed), with the segments' shares
    of the width as its probabilities; the estimate_resistance docstring
    states why that is the law of the counts.
    """
    check_sample_count(n_samples)
    check_seed(rng_seed)
    widths = np.diff(profile.xs)
    return np.random.default_rng(rng_seed).multinomial(n_samples, widths / widths.sum())


def estimate_resistance(
    profile: Profile, n_samples: int, rng_seed: int
) -> McEstimate:
    """Monte Carlo drag estimate from sampled particle impacts.

    Under the parallel-stream hypothesis the impact abscissa is uniform on
    [x0, x1], and each particle hits once and takes the momentum of the
    segment it strikes: half its axial impulse, g_k = (1 + v'_y) / 2 with
    v' = reflect((0, -1), u_k) on segment k.  So (x1 - x0)/n times the sum
    of g over n impacts is an unbiased estimator of the drag integral, and
    it depends on the impacts only through c_k, how many strike segment k.

    Counts (segment_counts): n independent uniform impacts strike segment
    k with probability p_k = w_k / W, its width over W = x1 - x0, so the
    vector c has the multinomial law Mult(n, p) exactly; a breakpoint has
    probability zero, so which segment owns it does not matter.  So c is
    drawn as one multinomial vector from default_rng(rng_seed), and the
    estimator has the law of n sampled impacts in O(S) time and memory,
    whatever n is.  The digits at a given seed follow numpy's multinomial
    stream.

    Estimate and error: mean = sum_k c_k g_k / n, estimate =
    (x1 - x0) mean and std_error = (x1 - x0) sqrt(v / n) with
    v = sum_k c_k (g_k - mean)^2 / (n - 1).  Every term is non-negative,
    so the sum of S rounded products, and the estimate, is within (S + 2) eps
    of its exact value for the drawn counts, relative (eps = 2^-52); the
    deviations g_k - mean in v carry that error of the mean, absolute.
    Summing the n per-sample impulses instead gives the same values within
    that bound and its own rounding, about (log2 n + 16) eps for numpy's
    pairwise sum.  The probabilities are rounded: numpy sums the S widths
    pairwise, within (log2 S + 16) eps of W, and each quotient adds eps/2,
    so p_k and the sum of the leading S - 1 shares are within about
    (log2 S + 17) eps of exact, far inside the 1 + 1e-12 that
    Generator.multinomial accepts, and far below any Monte Carlo
    resolution (a count resolves shares of 1/n, 3e-8 at the cap).

    n_samples is checked by check_sample_count and rng_seed by check_seed
    before anything is drawn; Profile already refuses a width x1 - x0
    that overflows.
    """
    counts = segment_counts(profile, n_samples, rng_seed).astype(float)
    # half the axial impulse of a particle reflected by each segment
    g = (reflect((0.0, -1.0), np.array(profile.slopes))[1] + 1.0) / 2.0
    mean = float(np.sum(counts * g)) / n_samples
    variance = float(np.sum(counts * (g - mean) ** 2)) / (n_samples - 1)
    width = profile.xs[-1] - profile.xs[0]
    return McEstimate(
        estimate=width * mean,
        std_error=width * math.sqrt(variance) / math.sqrt(n_samples),
        n_samples=n_samples,
        rng_seed=rng_seed,
    )


def single_collision_check(profile: Profile, ray_tol: float = 1e-9) -> CollisionReport:
    """Check the single-impact hypothesis exactly, over the pairs that can collide.

    Every downward particle that strikes segment i leaves along the one
    direction d_i = reflect((0, -1), u_i), so the reflected rays of segment i
    sweep the half-strip {P_i + t e_i + s d_i : t in [0, 1], s > 0}, where
    P_i is its left end and e_i its edge vector.  The pair (i, j) is a
    re-intersection when the part of segment j inside that half-strip has
    positive t-extent, i.e. when a positive share of segment i's particles
    meet segment j.  Contact of measure zero is not a collision: grazing at
    a shared vertex, or the horizontal rays of a slope-1 rise running along
    the flat before it.  Segment i itself lies on s = 0 and drops out.
    Shadowing is not modelled: a ray that meets two segments counts for
    both, so `passed` is exact while a listed pair may lie behind a nearer
    one.

    ray_tol is the t-measure threshold: (i, j) is reported when more than
    ray_tol of segment i's particles reach segment j; it must lie in
    [0, 1).  Error model: the t of a breakpoint is a cross product divided
    by e_i x d_i = w_i (segment i's width), and the extent a difference of
    such t's or of convex combinations of them, so its rounding error is a
    few units of 2^-52 * D / w_i, with D the diagonal of the contour's
    bounding box.  The default 1e-9 thus tells grazing contact (exact
    extent 0) from a collision while D / w_i stays below about 10^5, and it
    ignores a collision reaching at most a 1e-9 share of the particles.

    Rows that cannot collide are dropped first, by an O(S) bound: the rays
    of segment i meet the contour with measure zero when
    - u_i = 0: they are vertical, and a graph meets a vertical line once;
    - or |u_i| <= 1 and every breakpoint on the side the rays travel
      (k <= i when u_i > 0, k >= i + 1 when u_i < 0) lies at or below
      m_i = min(y_i, y_{i+1}).  Proof: d_y = (1 - u_i^2)/(1 + u_i^2) >= 0
      and d_x has the sign of -u_i, so a ray from a point P of segment i
      runs only towards that side and never below P, which is at height
      >= m_i.  There the contour is the part of segment i below P and
      segments at or below m_i, so only the ray from the lower end of
      segment i can touch it: one ray, of t-measure zero.
    One prefix max and one suffix max of y decide this for every row.  On
    a monotone contour with slopes in [0, 1], such as the paper's
    staircases, only the rises that rounding leaves a hair steeper than 1
    remain.  The bound drops only pairs of exact extent 0, so the report
    equals that of evaluating every row wherever rounding stays below
    ray_tol.  The one difference is at ray_tol = 0: evaluating every row
    reports rounding noise at shared vertices, such as (0, 1) and (1, 2)
    on the convex contour through (0, 0), (0.1665525504275246,
    0.036019887911024284), (0.5382087395561351, 0.16446695626093177) and
    (1.0, 0.5058884832347348), whose slopes lie below 1, and the bound
    passes it, the exact answer.  A slope above 1, which the restricted
    variant admits, sends rays down and to the left, and they can strike
    the faces before it.  Negative-slope faces are flagged in the notes
    because the analytic drag keeps pricing them by the single-impact rule
    regardless.

    Cost and memory: O(S) for the bound over S segments, plus kept rows x
    (S + 1) pairs, evaluated in blocks of max(1, COLLISION_BLOCK // (S + 1))
    kept rows of segment i against all S + 1 breakpoints, so no temporary
    holds more than max(COLLISION_BLOCK, S + 1) elements.  The pairs are
    reported in lexicographic order.
    """
    check_real("ray_tol", ray_tol, 0.0, 1.0)
    if ray_tol == 1.0:
        raise ValueError(f"ray_tol must lie in [0, 1), got {ray_tol}")
    x, y = np.array(profile.xs), np.array(profile.ys)
    slopes = np.array(profile.slopes)
    n_seg = slopes.size
    # the bound: for u_i != 0 the side the rays do not travel holds the
    # higher end of segment i, above m_i, so the lower of the two sides'
    # highest breakpoints exceeds m_i just when the travelled side's does
    keep = np.minimum(
        np.maximum.accumulate(y)[:-1], np.maximum.accumulate(y[::-1])[::-1][1:]
    ) > np.minimum(y[:-1], y[1:])
    keep &= slopes != 0.0
    keep |= np.abs(slopes) > 1.0
    kept = keep.nonzero()[0]
    u = slopes[kept]
    dx, dy = reflect((0.0, -1.0), u)
    width = x[kept + 1] - x[kept]
    # breakpoint k in row i's strip coordinates: t = ((B_k - P_i) x d_i) / w_i,
    # and s has the sign of (y_k - y_i) - u_i (x_k - x_i); both are ratios of
    # lengths, so the check is scale-free
    tx, ty = (dy / width)[:, None], (dx / width)[:, None]
    u = u[:, None]
    rows = max(1, COLLISION_BLOCK // (n_seg + 1))
    hits: list[tuple[int, int]] = []
    for lo in range(0, kept.size, rows):
        hi = lo + rows
        block = kept[lo:hi]
        rx = x - x[block, None]
        ry = y - y[block, None]
        t = rx * tx[lo:hi] - ry * ty[lo:hi]
        s = ry - rx * u[lo:hi]
        inside = s > 0.0
        t0, t1, s0, s1 = t[:, :-1], t[:, 1:], s[:, :-1], s[:, 1:]
        in0, in1 = inside[:, :-1], inside[:, 1:]
        # where exactly one end of segment j is inside, it crosses s = 0 at
        # t_c, a convex combination of t0 and t1; elsewhere t_cross keeps a
        # finite placeholder that is read only when both ends are outside,
        # as ta = tb, whose extent is <= 0
        t_cross = s0 * t1 - s1 * t0
        np.divide(t_cross, s0 - s1, out=t_cross, where=in0 != in1)
        ta = np.where(in0, t0, t_cross)
        tb = np.where(in1, t1, t_cross)
        extent = np.minimum(np.maximum(ta, tb), 1.0) - np.maximum(
            np.minimum(ta, tb), 0.0
        )
        # segment i lies on s = 0 itself, which rounding may not reproduce
        extent[np.arange(block.size), block] = 0.0
        ii, jj = np.nonzero(extent > ray_tol)
        hits += zip(block[ii].tolist(), jj.tolist())
    notes: list[str] = []
    if min(profile.slopes) < 0.0:
        notes.append(
            "profile has negative-slope faces; the analytic drag values "
            "follow the single-impact accounting regardless of any "
            "re-intersection"
        )
    return report_type("CollisionReport")(
        reintersections=tuple(hits),
        passed=not hits,
        notes=tuple(notes),
    )
