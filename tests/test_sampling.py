"""The seeded samplers of newton2d._sampling, and the laws the oracles draw.

The binomial is checked against CPython's own Random.binomialvariate and
against the exact pmf; the counts of Monte Carlo against the multinomial
pmf, per slope and per segment; the family's weights against their Beta
marginals.  Every test runs at fixed seeds, so it is deterministic; the
thresholds are the statistics' upper 1e-6 quantiles, so at a seed drawn at
random a correct sampler would fail each with probability about 1e-6.
"""

import hashlib
import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from newton2d import montecarlo
from newton2d._sampling import binomial, multinomial, uniforms
from newton2d.extremal import enumerate_minimizers
from newton2d.geometry import ProblemSpec, Profile

# the standard normal quantile of 1 - 1e-6
Z_1E6 = 4.753424308822899

# CPython 3.12's Random(42).binomialvariate(n, p), six calls per case
_CPYTHON_312 = {
    (1, 0.3): [0, 1, 1, 1, 0, 0],
    (0, 0.4): [0, 0, 0, 0, 0, 0],
    (20, 0.3): [3, 5, 3, 5, 6, 9],
    (30, 0.9): [29, 28, 27, 30, 28, 27],
    (60, 0.35): [23, 18, 24, 26, 20, 18],
    (1000, 0.4): [406, 389, 411, 422, 397, 386],
    (1000, 0.6): [594, 611, 589, 578, 603, 614],
    (2**25, 0.37): [12416262, 12413261, 12417128, 12419191, 12414522, 12412697],
    (10**6, 1e-6): [1, 0, 0, 3, 1, 0],
}


@pytest.mark.parametrize("n, p", list(_CPYTHON_312))
def test_binomial_is_cpythons_binomialvariate(n, p):
    rng = random.Random(42)
    assert [binomial(rng, n, p) for _ in range(6)] == _CPYTHON_312[(n, p)]


def _long_run(draw):
    # one stream through every branch: n = 0 and 1, p = 0 and 1, the
    # geometric method, BTRS and both mirrors
    rng = random.Random(7)
    return [draw(rng, n, p) for n in range(0, 400, 7) for p in (0.0, 0.01, 0.07, 0.2, 0.5, 0.73, 0.99, 1.0)]


# sha256 of repr(_long_run) of CPython 3.12's Random.binomialvariate
_LONG_RUN_SHA256 = "6222056be090957efabd7c05c2a067186a72445c823ec88d2e2f3cc654dc3243"


def test_binomial_keeps_cpythons_stream_through_every_branch():
    ours = _long_run(binomial)
    assert hashlib.sha256(repr(ours).encode()).hexdigest() == _LONG_RUN_SHA256
    # Random.binomialvariate itself exists from CPython 3.12 on
    if hasattr(random.Random, "binomialvariate"):
        assert ours == _long_run(random.Random.binomialvariate)


def _chi_square_bound(dof: int) -> float:
    # Wilson and Hilferty's cube-root normal approximation to the chi-square
    # quantile, within a few percent at these degrees of freedom
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + Z_1E6 * math.sqrt(a)) ** 3


def _chi_square(observed: Counter, pmf: dict) -> tuple[float, int]:
    # Pearson's statistic and its degrees of freedom, the outcomes expected
    # fewer than 5 times pooled into one cell, kept if it expects at least one
    total = sum(observed.values())
    stat, cells = 0.0, 0
    rest_seen, rest_expected = total, float(total)
    for outcome, prob in pmf.items():
        expected = total * prob
        if expected >= 5.0:
            seen = observed[outcome]
            stat += (seen - expected) ** 2 / expected
            cells += 1
            rest_seen -= seen
            rest_expected -= expected
    if rest_expected >= 1.0:
        stat += (rest_seen - rest_expected) ** 2 / rest_expected
        cells += 1
    return stat, cells - 1


def _binomial_pmf(n: int, p: float) -> dict:
    return {k: math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)}


@pytest.mark.parametrize(
    "n, p",
    [(20, 0.3), (9, 0.5), (40, 0.85), (60, 0.35), (1000, 0.4), (200, 0.93)],
    ids=["geometric", "geometric-half", "geometric-mirrored", "btrs", "btrs-oracle-mix", "btrs-mirrored"],
)
def test_binomial_has_the_binomial_law(n, p):
    # n p below 10 takes the geometric branch, from 10 on BTRS; p above 1/2
    # is mirrored first
    rng = random.Random(n)
    observed = Counter(binomial(rng, n, p) for _ in range(20_000))
    stat, dof = _chi_square(observed, _binomial_pmf(n, p))
    assert dof >= 5
    assert stat <= _chi_square_bound(dof)


def test_uniforms_are_the_top_53_bits_of_each_word():
    got = uniforms(random.Random(5), (2, 3))
    rng = random.Random(5)
    words = [int.from_bytes(rng.randbytes(8), "little") for _ in range(6)]
    assert got.tolist() == [[(w >> 11) / 2**53 for w in words[:3]], [(w >> 11) / 2**53 for w in words[3:]]]
    assert 0.0 <= got.min() and got.max() < 1.0


def test_multinomial_counts_sum_to_n_and_skip_empty_classes():
    assert multinomial(random.Random(0), 0, [0.5, 0.5]) == [0, 0]
    assert multinomial(random.Random(0), 7, [2.0]) == [7]
    # a class of weight zero never draws a sample
    for seed in range(50):
        counts = multinomial(random.Random(seed), 100, [0.25, 0.0, 0.5, 0.0, 0.25])
        assert sum(counts) == 100 and counts[1] == counts[3] == 0


# two slopes over three segments: flat, rise, flat
_TWO_SLOPES = Profile(((0.0, 0.0), (0.25, 0.0), (0.75, 0.5), (1.0, 0.5)))


def test_segment_counts_add_up_to_the_counts_per_slope():
    # segment_counts splits the very counts estimate_resistance draws per
    # slope, so at every seed each slope's segments add up to its count
    groups = montecarlo._slope_groups(_TWO_SLOPES)
    assert list(groups) == [0.0, 1.0]
    for seed in range(200):
        per_slope = montecarlo._slope_counts(groups, 1000, random.Random(seed))
        counts = montecarlo.segment_counts(_TWO_SLOPES, 1000, seed).tolist()
        assert [counts[0] + counts[2], counts[1]] == per_slope


def test_segment_counts_have_the_multinomial_law():
    # the joint law of the three counts of four impacts: Mult(4, (1/4, 1/2, 1/4))
    n, shares = 4, (0.25, 0.5, 0.25)
    pmf = {}
    for c in product(range(n + 1), repeat=3):
        if sum(c) == n:
            pmf[c] = math.factorial(n) * math.prod(
                s**k / math.factorial(k) for s, k in zip(shares, c)
            )
    observed = Counter(
        tuple(montecarlo.segment_counts(_TWO_SLOPES, n, seed).tolist()) for seed in range(8000)
    )
    stat, dof = _chi_square(observed, pmf)
    assert dof == len(pmf) - 1
    assert stat <= _chi_square_bound(dof)


def test_counts_per_slope_have_the_binomial_law():
    # the estimator's one binomial on a two-slope body, seed by seed
    groups = montecarlo._slope_groups(_TWO_SLOPES)
    observed = Counter(
        montecarlo._slope_counts(groups, 30, random.Random(seed))[0] for seed in range(8000)
    )
    stat, dof = _chi_square(observed, _binomial_pmf(30, 0.5))
    assert stat <= _chi_square_bound(dof)


def _ks_beta_one(sample: np.ndarray, b: int) -> float:
    # Kolmogorov-Smirnov distance of a sample from Beta(1, b), whose CDF is
    # 1 - (1 - x)^b
    x = np.sort(sample)
    cdf = 1.0 - (1.0 - x) ** b
    m = x.size
    return float(max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m)))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_family_weights_have_beta_marginals(n):
    # a uniform point of the k-simplex has Beta(1, k - 1) coordinates: each
    # of n rises over H with k = n, each of n + 1 flats over r - H with k = n + 1
    spec = ProblemSpec(r=1.0, H=0.4)
    members = enumerate_minimizers(spec, n, 4000, 100 + n)
    xi = np.array([m.xi for m in members])
    rises = (xi[:, 2::2] - xi[:, 1:-1:2]) / spec.H
    flats = (xi[:, 1::2] - xi[:, 0:-1:2]) / (spec.r - spec.H)
    # the upper 1e-6 quantile of the KS distance over m draws, sqrt(ln(2e6) / (2 m))
    bound = math.sqrt(math.log(2e6) / (2 * len(members)))
    for i in range(n):
        assert _ks_beta_one(rises[:, i], n - 1) <= bound, ("rise", i)
    for i in range(n + 1):
        assert _ks_beta_one(flats[:, i], n) <= bound, ("flat", i)
    assert np.allclose(rises.sum(axis=1), 1.0) and np.allclose(flats.sum(axis=1), 1.0)
