"""Hamiltonian stationary-point analysis and the closed-form solver.

The pointwise Hamiltonian is H(u) = -1/(1+u^2) - lambda*u with a positive
multiplier lambda (the adjoint is a negative constant and the abnormal
multiplier can be normalized to -1).  Maximizing it over the control set
replaces the drag minimization, which is what the certificate check and
the solver below exploit.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .functional import staircase_resistance, triangle_resistance
from .geometry import (
    Profile,
    ProblemSpec,
    Record,
    StaircaseParams,
    Variant,
    aspect_ratio,
    check_int,
    check_real,
    check_seed,
    make_staircase,
    make_triangle,
    profile_to_dict,
    slope_power,
)

if TYPE_CHECKING:
    from .certificate import CertificateReport

#: Slope where the second derivative of the Hamiltonian changes sign.
SLOPE_THRESHOLD = math.sqrt(3.0) / 3.0

#: Largest multiplier admitting stationary slopes: max of 2u/(1+u^2)^2.
LAMBDA_MAX = 3.0 * math.sqrt(3.0) / 8.0

#: Width of the inflection band around SLOPE_THRESHOLD in classify_stationary.
CLASSIFY_TOL = 1e-9

#: Most multipliers whose stationary slopes stay memoized (a few KiB).
SLOPES_CACHE_SIZE = 256

#: Most breakpoint values enumerate_minimizers produces in one call,
#: count * (2n + 1); a larger family is refused before anything is drawn.
MAX_FAMILY_ELEMENTS = 2**20


class Classification(Enum):
    LOCAL_MAX = "local-max"
    LOCAL_MIN = "local-min"
    INFLECTION = "inflection"


class SolutionStatus(Enum):
    UNIQUE_MINIMIZER = "UniqueMinimizer"
    INFINITE_FAMILY = "InfiniteFamily"
    LOCAL_MINIMIZER_ONLY = "LocalMinimizerOnly"
    NO_SOLUTION = "NoSolution"


def _hamiltonian(u: float, lam: float) -> float:
    # unchecked, for callers whose slopes and multiplier are already checked
    return -1.0 / (1.0 + u * u) - lam * u


def hamiltonian(u: float, lam: float) -> float:
    """H(u) = -1/(1+u^2) - lam*u; u and lam >= 0 pass the real-number rule."""
    check_real("u", u)
    check_real("lam", lam, 0.0)
    return _hamiltonian(u, lam)


def hamiltonian_derivatives(u: float, lam: float) -> tuple[float, float, float]:
    """First three derivatives of the Hamiltonian at slope u.

    H'(u)   = 2u/(1+u^2)^2 - lam
    H''(u)  = -2(3u^2-1)/(1+u^2)^3
    H'''(u) = -24u(1-u^2)/(1+u^2)^4

    The second and third derivatives do not depend on lam.  u and lam pass
    the rules of hamiltonian, except that a slope |u| above about 3.4e38,
    where (1+u^2)^4 overflows, is refused as too steep, +-inf included.
    """
    if not (isinstance(u, float) and math.isinf(u)):
        check_real("u", u)
    check_real("lam", lam, 0.0)
    q = 1.0 + u * u
    q4 = slope_power(u, 4, "the Hamiltonian's derivatives")
    d1 = 2.0 * u / q**2 - lam
    d2 = -2.0 * (3.0 * u * u - 1.0) / q**3
    d3 = -24.0 * u * (1.0 - u * u) / q4
    return d1, d2, d3


def _slope_response(u: float) -> float:
    # g(u) = u/(1+u^2)^2; the first-order condition is g(u) = lam/2.  The
    # square of d overflows once d passes about 1e154, so large d divides
    # twice; below 1e150 the single division keeps the roots' bits
    d = 1.0 + u * u
    if d < 1e150:
        return u / d**2
    return u / d / d


def _branch_root(half: float, lo: float, hi: float) -> float:
    # bisect a bracket on which g - half changes sign until lo and hi are
    # adjacent doubles, where the midpoint rounds onto one of them
    lo_above = _slope_response(lo) > half
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return min(lo, hi, key=lambda u: abs(_slope_response(u) - half))
        if (_slope_response(mid) > half) == lo_above:
            lo = mid
        else:
            hi = mid


@functools.lru_cache(maxsize=SLOPES_CACHE_SIZE, typed=True)
def stationary_slopes(lam: float) -> tuple[float, ...]:
    """Nonnegative slopes solving the first-order condition u/(1+u^2)^2 = lam/2.

    g(u) = u/(1+u^2)^2 increases on [0, sqrt(3)/3] and decreases beyond, with
    maximum 3*sqrt(3)/16 at the threshold slope.  Hence: no roots for
    lam > LAMBDA_MAX, a double root at the threshold for lam = LAMBDA_MAX,
    and one root on each monotone branch for smaller positive lam.  Each
    root is found by bisecting its branch down to two adjacent doubles
    that bracket the sign change of g - lam/2; the one with the smaller
    residual is returned.  No closed-form quartic formula is used.

    Both roots are returned for every positive double lam up to the peak,
    subnormal lam included.  At the smallest one, lam = 5e-324, lam/2
    underflows to 0.0, so the low root is 0.0 and the high root is where g
    underflows (about 7.4e107).  A lam that is not positive and finite
    raises ValueError.

    The roots are a pure function of lam, so they are memoized in an
    LRU cache of SLOPES_CACHE_SIZE = 256 multipliers (a fixed size, not a
    setting): a repeated lam, such as the 1/2 that certifies every member
    of the staircase family, costs one bisection per process.  A lam the
    real-number rule refuses raises before anything is stored, and the
    cache is typed (True is not served 1.0's roots), so it raises on every call.
    """
    check_real("lam", lam, positive=True)
    half = lam / 2.0
    peak = _slope_response(SLOPE_THRESHOLD)
    if half > peak * (1.0 + 1e-13):
        return ()
    if abs(half - peak) <= peak * 1e-13:
        return (SLOPE_THRESHOLD,)
    low = _branch_root(half, 0.0, SLOPE_THRESHOLD)
    hi_bracket = max(2.0 * SLOPE_THRESHOLD, 2.0)
    while _slope_response(hi_bracket) > half:
        hi_bracket *= 2.0
    high = _branch_root(half, SLOPE_THRESHOLD, hi_bracket)
    return (low, high)


def lambda_for_slope(s: float) -> float:
    """Multiplier making s a stationary slope: lam = 2s/(1+s^2)^2.

    s must be positive and finite, and (1+s^2)^2 must be a finite double
    (s below about 1.16e77); otherwise ValueError names the slope.
    """
    check_real("slope", s, positive=True)
    return 2.0 * s / slope_power(s, 2, "a multiplier")


def classify_stationary(u: float) -> Classification:
    """Trichotomy at a stationary slope via the sign of H''.

    Above the threshold slope H'' < 0 (local maximum of the Hamiltonian),
    below it H'' > 0 (local minimum); within CLASSIFY_TOL of the threshold
    H'' = 0 while H''' = -27*sqrt(3)/16 != 0, so the point is an inflection.
    A u that the real-number rule refuses raises ValueError.
    """
    check_real("u", u)
    if abs(u - SLOPE_THRESHOLD) <= CLASSIFY_TOL:
        return Classification.INFLECTION
    return Classification.LOCAL_MAX if u > SLOPE_THRESHOLD else Classification.LOCAL_MIN


class ExtremalCertificate(Record):
    """Pontryagin-extremal data: normalized multiplier pair and slope analysis.

    lam passes the real-number rule, positive; stationary is a tuple of
    slopes that each pass it, and classification a tuple of as many
    Classification members.  Anything else raises ValueError naming the
    field.
    """

    def __init__(
        self,
        lam: float,
        stationary: tuple[float, ...],
        classification: tuple[Classification, ...],
        psi0: float = -1.0,
    ) -> None:
        check_real("lam", lam, positive=True)
        if not isinstance(stationary, tuple):
            raise ValueError(f"stationary must be a tuple of slopes, got {stationary!r}")
        for i, u in enumerate(stationary):
            check_real(f"stationary[{i}]", u)
        if not (
            isinstance(classification, tuple)
            and len(classification) == len(stationary)
            and all(isinstance(c, Classification) for c in classification)
        ):
            raise ValueError(
                f"classification must be a tuple of {len(stationary)} Classification, "
                f"got {classification!r}"
            )
        if psi0 != -1.0:
            raise ValueError("psi0 is normalized to -1")
        self._init(lam, stationary, classification, psi0)

    def psi(self, x: float) -> float:
        """Constant adjoint, identically -lambda; x passes the real-number rule."""
        check_real("x", x)
        return -self.lam


def make_certificate(lam: float) -> ExtremalCertificate:
    slopes = stationary_slopes(lam)
    return ExtremalCertificate(
        lam=lam,
        stationary=slopes,
        classification=tuple(classify_stationary(u) for u in slopes),
    )


#: Default tolerance of check_certificate on the Hamiltonian shortfall.
CERTIFICATE_TOL = 1e-9


@functools.cache
def _report_type() -> type:
    # a dataclass, loaded on the first check rather than with this module
    from .certificate import CertificateReport

    return CertificateReport


def _hamiltonian_gap(
    slopes: Sequence[float], lam: float
) -> tuple[float, tuple[float, ...], float]:
    # the largest Hamiltonian over the nonnegative slopes, its value at each
    # of the given slopes, and the worst shortfall of one below that maximum
    h_max = max(_hamiltonian(u, lam) for u in (0.0, *stationary_slopes(lam)))
    values = tuple(_hamiltonian(u, lam) for u in slopes)
    return h_max, values, max((h_max - v for v in values), default=0.0)


def _refuse_thin(spec: ProblemSpec, slopes: Sequence[float]) -> None:
    # r - H and sums of widths round on a thin body, so a rise can miss slope
    # 1 by more than the certificate at lambda = 1/2 allows: the body is then
    # refused by name, not returned beside a certificate it fails
    _, values, worst = _hamiltonian_gap(slopes, 0.5)
    if not worst <= CERTIFICATE_TOL:
        u = slopes[values.index(min(values))]
        raise ValueError(
            f"H/r = {spec.H / spec.r!r} is too small to write in doubles: slope {u!r} "
            f"fails the certificate at lambda = 1/2 by {worst!r}"
        )


def check_certificate(
    profile: Profile,
    spec: ProblemSpec,
    lam: float,
    tol: float = CERTIFICATE_TOL,
) -> CertificateReport:
    """Verify the maximality condition for every segment slope of a profile.

    Each segment slope must attain (within tol) the maximum of the
    Hamiltonian over the nonnegative slopes.  Since lam > 0 sends H to
    -infinity as u -> infinity, that maximum is attained at u = 0 or at a
    stationary slope, so it is taken exactly over those candidates.  At an
    interior maximizer H is quadratic, so a slope error up to about
    sqrt(2 tol / |H''|) passes (about 6e-5 at u = 1, lam = 1/2); at the
    boundary slope 0, where H falls linearly, up to about tol / lam.  For
    the unrestricted variant the Hamiltonian is unbounded above as
    u -> -infinity (that is why no unrestricted global minimizer exists),
    so the same nonnegative maximum is used and the certificate is only a
    one-sided/local statement there.

    A passing report for a restricted-variant profile certifies a
    Pontryagin extremal, hence a global minimizer within the admissible
    class.  A lam or tol that the real-number rule refuses raises ValueError.
    """
    check_real("tol", tol, 0.0)
    h_max, values, worst = _hamiltonian_gap(profile.slopes, lam)
    notes = []
    if spec.variant is Variant.UNRESTRICTED:
        notes.append(
            "unrestricted variant: Hamiltonian is unbounded for negative "
            "slopes; the maximum is taken over nonnegative slopes only, so "
            "a pass is a local (one-sided) certificate"
        )
    return _report_type()(
        passed=worst <= tol,
        lam=lam,
        worst_violation=worst,
        h_max=h_max,
        segment_values=values,
        notes=tuple(notes),
    )


class SolutionReport(Record):
    """Solver outcome: minimizer family, drag value, certificate and notes."""

    def __init__(
        self,
        variant: Variant,
        status: SolutionStatus,
        minimal_resistance: float | None,
        representative_profiles: tuple[Profile, ...],
        certificate: ExtremalCertificate | None,
        notes: tuple[str, ...] = (),
    ) -> None:
        if status is SolutionStatus.NO_SOLUTION and minimal_resistance is not None:
            raise ValueError("no-solution reports carry no resistance value")
        if status is SolutionStatus.INFINITE_FAMILY and len(representative_profiles) < 2:
            raise ValueError("infinite-family reports need >= 2 representatives")
        self._init(
            variant, status, minimal_resistance, representative_profiles, certificate, notes
        )

    def to_dict(self, spec: ProblemSpec) -> dict:
        return {
            "status": self.status.value,
            "resistance": self.minimal_resistance,
            "lambda": self.certificate.lam if self.certificate else None,
            "profiles": [
                profile_to_dict(p, spec) for p in self.representative_profiles
            ],
            "notes": list(self.notes),
        }


def _family_member(spec: ProblemSpec, n: int, xi, mu) -> StaircaseParams:
    # on a body with tiny H/r a rise can round to zero width (r - H == r),
    # which StaircaseParams refuses: the body is then refused by name
    try:
        return StaircaseParams(n=n, xi=xi, mu=mu)
    except ValueError as exc:
        raise ValueError(f"H/r = {spec.H / spec.r!r} is too small to write in doubles: {exc}") from None


def io_staircase_params(spec: ProblemSpec) -> StaircaseParams:
    """Flat on [0, r-H] then slope 1 up to (r, H); requires H <= r."""
    if spec.H > spec.r:
        raise ValueError("flat-then-rise optimum requires H <= r")
    return _family_member(spec, 1, (0.0, spec.r - spec.H, spec.r, spec.r), (0.0, spec.H))


def fo_staircase_params(spec: ProblemSpec) -> StaircaseParams:
    """Slope 1 on [0, H] then flat up to (r, H); requires H <= r."""
    if spec.H > spec.r:
        raise ValueError("rise-then-flat optimum requires H <= r")
    return _family_member(spec, 1, (0.0, 0.0, spec.H, spec.r), (0.0, spec.H))


def _two_rise_params(spec: ProblemSpec) -> StaircaseParams:
    # n = 2 member of the minimizing family: equal slope-1 rises, equal flats
    f = (spec.r - spec.H) / 3.0
    w = spec.H / 2.0
    xi = (0.0, f, f + w, 2.0 * f + w, 2.0 * f + 2.0 * w, spec.r)
    return _family_member(spec, 2, xi, (0.0, w, spec.H))


def solve(spec: ProblemSpec) -> SolutionReport:
    """Closed-form solution of the two-dimensional problem.

    Unrestricted: the straight contour is a local minimizer iff
    H/r > sqrt(3)/3, and never a global one; below the threshold there is
    no solution at all.  Restricted: unique straight minimizer for H > r,
    infinitely many slope-{0,1} staircases with drag r - H/2 for H < r,
    and at H = r the staircase family collapses to the straight contour.
    A restricted body so thin that a staircase rise rounds to zero width in
    doubles (H/r about 1.1e-16 or less), or so far off slope 1 that a
    representative fails the certificate it is printed with (at r = 1,
    every H/r below about 1e-13 and some up to 2e-12), is refused, naming H/r.
    So is a body whose H/r overflows a double, before any profile is built.
    """
    if spec.dimension != 2:
        raise ValueError("closed-form solver covers dimension 2 only")
    r, H = spec.r, spec.H
    ratio = aspect_ratio(spec)
    if spec.variant is Variant.UNRESTRICTED:
        if ratio <= SLOPE_THRESHOLD:
            return SolutionReport(
                variant=spec.variant,
                status=SolutionStatus.NO_SOLUTION,
                minimal_resistance=None,
                representative_profiles=(),
                certificate=None,
                notes=(
                    "H/r <= sqrt(3)/3: the straight contour is not even a "
                    "local minimizer and the unrestricted problem has no "
                    "solution",
                ),
            )
        status, notes = SolutionStatus.LOCAL_MINIMIZER_ONLY, (
            "local minimizer only: up/down wedges of growing slope drive "
            "the drag to zero, so no unrestricted global minimum exists",
        )
    elif H < r:
        reps = (
            make_staircase(spec, io_staircase_params(spec)),
            make_staircase(spec, fo_staircase_params(spec)),
            make_staircase(spec, _two_rise_params(spec)),
        )
        _refuse_thin(spec, [u for p in reps for u in p.slopes])
        return SolutionReport(
            variant=spec.variant,
            status=SolutionStatus.INFINITE_FAMILY,
            minimal_resistance=r - H / 2.0,
            representative_profiles=reps,
            certificate=make_certificate(0.5),
            notes=(
                "every flat/rise staircase with slope-1 rises of total width H "
                "attains the same minimal drag r - H/2",
            ),
        )
    elif H > r:
        status, notes = SolutionStatus.UNIQUE_MINIMIZER, ()
    else:
        status, notes = SolutionStatus.UNIQUE_MINIMIZER, (
            "H = r: the staircase family's flat budget r - H is zero, so "
            "it collapses to the single straight contour; r - H/2 and "
            "r^3/(r^2+H^2) agree here",
        )
    # the straight contour; at H = r its multiplier 2s/(1+s^2)^2 is exactly 1/2
    return SolutionReport(
        variant=spec.variant,
        status=status,
        minimal_resistance=triangle_resistance(spec),
        representative_profiles=(make_triangle(spec),),
        certificate=make_certificate(lambda_for_slope(ratio)),
        notes=notes,
    )


def enumerate_minimizers(
    spec: ProblemSpec, n: int, count: int, rng_seed: int
) -> list[StaircaseParams]:
    """Seeded random members of the slope-{0,1} minimizing staircase family.

    Rise widths are positive and sum to H; flat widths are nonnegative and
    sum to r - H, each a uniform point of its simplex: a member draws
    Dirichlet(1, ..., 1) weights for its n rises (none when n = 1) and then
    for its n + 1 flats (none when H = r).  Every member evaluates to
    r - H/2 and passes the certificate check at lambda = 1/2.  n and count
    pass the integer rule (>= 1), rng_seed geometry.check_seed.  As in
    solve, a body is refused, naming H/r, when a member's rise rounds to
    zero width or so far off slope 1 that the member would fail that
    certificate (with n = 3, one of 50 members already at H/r = 1e-10).

    numpy's Dirichlet(1, ..., 1) draws one standard exponential per weight
    (a Gamma(1) variate is one), sums them left to right and scales each
    by the reciprocal of the sum.  So the whole family comes from one
    standard_exponential block of count rows, normalized with the same
    sequential sum, and matches the per-member rng.dirichlet stream bit
    for bit.  A family of more than MAX_FAMILY_ELEMENTS = 2^20 values,
    count * (2n + 1), is refused before anything is drawn.
    """
    if spec.variant is not Variant.RESTRICTED:
        raise ValueError("the minimizing staircase family is a restricted-variant object")
    if spec.H > spec.r:
        raise ValueError("the staircase family is empty for H > r")
    check_int("n", n, 1)
    check_int("count", count, 1)
    if count * (2 * n + 1) > MAX_FAMILY_ELEMENTS:
        raise ValueError(
            f"family too large: count * (2n + 1) = {count * (2 * n + 1)} values, "
            f"above the cap of {MAX_FAMILY_ELEMENTS}"
        )
    check_seed(rng_seed)
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    flat_budget = spec.r - spec.H
    k_rise = n if n > 1 else 0
    k_flat = n + 1 if flat_budget > 0.0 else 0
    draws = rng.standard_exponential((count, k_rise + k_flat))

    def weights(block: np.ndarray, budget: float) -> np.ndarray:
        # cumsum adds left to right, as dirichlet's own sum does
        return block * (1.0 / np.cumsum(block, axis=1)[:, -1:]) * budget

    # widths alternate flat, rise, ...; the last flat only closes the gap to r
    widths = np.zeros((count, 2 * n))
    if k_rise:
        widths[:, 1::2] = weights(draws[:, :k_rise], spec.H)
    else:
        widths[:, 1] = spec.H
    if k_flat:
        widths[:, 0::2] = weights(draws[:, k_rise:], flat_budget)[:, :n]
    xi = np.zeros((count, 2 * n + 2))
    np.cumsum(widths, axis=1, out=xi[:, 1:-1])
    np.minimum(xi[:, -2], spec.r, out=xi[:, -2])
    xi[:, -1] = spec.r
    mu = np.zeros((count, n + 1))
    np.cumsum(widths[:, 1::2], axis=1, out=mu[:, 1:])
    mu[:, -1] = spec.H
    # a rise of no width is no segment, and the flats' slope 0 is a maximizer
    run = xi[:, 2 : 2 * n + 1 : 2] - xi[:, 1 : 2 * n : 2]
    keep = run > 0.0
    _refuse_thin(spec, (np.diff(mu, axis=1)[keep] / run[keep]).tolist())
    return [
        _family_member(spec, n, tuple(x), tuple(m))
        for x, m in zip(xi.tolist(), mu.tolist())
    ]


class GradientReport(Record):
    """Reduced gradient of the staircase drag at an interior parameter point."""

    def __init__(
        self,
        analytic: tuple[float, ...],
        finite_difference: tuple[float, ...],
        analytic_norm: float,
        finite_difference_norm: float,
        coordinate_names: tuple[str, ...],
    ) -> None:
        self._init(
            analytic, finite_difference, analytic_norm, finite_difference_norm,
            coordinate_names,
        )


def staircase_gradient_check(
    params: StaircaseParams, spec: ProblemSpec, fd_step: float = 1e-6
) -> GradientReport:
    """Analytic reduced gradient of the staircase drag, with an FD cross-check.

    Free coordinates are the interior breakpoints xi_1..xi_2n and heights
    mu_1..mu_{n-1} (endpoints are fixed by the boundary conditions).  At a
    family point with all rise slopes equal to 1 the gradient vanishes.
    Requires a strictly interior point, otherwise one-sided derivatives
    would be needed.
    """
    if params.xi[-1] != spec.r or params.mu[-1] != spec.H:
        raise ValueError("staircase parameters inconsistent with problem spec")
    check_real("fd_step", fd_step, positive=True)
    import numpy as np

    from .oracle import finite_difference_gradient

    xi = np.asarray(params.xi)
    mu = np.asarray(params.mu)
    n = params.n
    if np.any(np.diff(xi) <= 0.0) or np.any(np.diff(mu) <= 0.0):
        raise ValueError("parameters on the boundary of the feasible set")

    w = xi[2::2] - xi[1::2][: n]
    h = np.diff(mu)
    denom = (w * w + h * h) ** 2
    g_w = (w**4 + 3.0 * w * w * h * h) / denom
    g_h = -2.0 * w**3 * h / denom

    names: list[str] = []
    grad: list[float] = []
    for i in range(n):
        names.append(f"xi_{2 * i + 1}")
        grad.append(1.0 - g_w[i])
        names.append(f"xi_{2 * i + 2}")
        grad.append(g_w[i] - 1.0)
    for j in range(1, n):
        names.append(f"mu_{j}")
        grad.append(g_h[j - 1] - g_h[j])

    free_xi = list(range(1, 2 * n + 1))
    free_mu = list(range(1, n))

    def evaluator(v: np.ndarray) -> float:
        xi_v = xi.copy()
        mu_v = mu.copy()
        xi_v[free_xi] = v[: len(free_xi)]
        mu_v[free_mu] = v[len(free_xi):]
        return staircase_resistance(StaircaseParams(n, xi_v, mu_v), spec)

    point = np.concatenate([xi[free_xi], mu[free_mu]])
    fd = finite_difference_gradient(evaluator, point, fd_step)
    analytic = np.asarray(grad)
    return GradientReport(
        analytic=tuple(analytic),
        finite_difference=tuple(fd),
        analytic_norm=float(np.linalg.norm(analytic)),
        finite_difference_norm=float(np.linalg.norm(fd)),
        coordinate_names=tuple(names),
    )
