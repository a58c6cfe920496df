"""The seeded samplers: uniform doubles, binomials and multinomial counts.

Every seeded routine of the package makes one random.Random(rng_seed)
and draws through this module.  CPython seeds Random from an int the same
way in every release and runs one MT19937 stream from it, so the digits
at a given seed depend on the seed, CPython's MT19937 and the code below,
not on the numpy release.  Where a sampler takes a logarithm, its digits
also depend on the platform's libm, as the closed forms' digits do.
"""

from __future__ import annotations

import math
from itertools import accumulate
from random import Random

import numpy as np


def uniforms(rng: Random, shape: tuple[int, int]) -> np.ndarray:
    """An array of that shape of doubles uniform on [0, 1).

    Its n elements are read row by row from the next 8 n bytes of
    rng.randbytes.  Each little-endian 64-bit word w of the bytes gives (w >> 11) * 2^-53,
    as numpy's Generator.random maps its words: every multiple of 2^-53 in
    [0, 1) is equally likely, and the conversion is exact.  randbytes takes
    whole 32-bit MT19937 outputs, first output in the low bytes, so blocks
    drawn one after another read the stream that one block of their total
    size would.
    """
    words = np.frombuffer(rng.randbytes(8 * shape[0] * shape[1]), dtype="<u8")
    return np.multiply(words >> 11, 2.0**-53).reshape(shape)


def binomial(rng: Random, n: int, p: float) -> int:
    """One Binomial(n, p) variate: the number of successes in n trials of p.

    A port of CPython 3.12's Random.binomialvariate (Python Software
    Foundation License), which reads rng.random() alone, so its variates at
    a seed are the same on CPython 3.10 to 3.13, though the method itself
    first appears in 3.12.  With p <= 1/2 (else n minus a variate
    of 1 - p): below n p = 10, Devroye's geometric method, which adds
    geometric gaps between successes in O(n p) draws; from n p = 10 on,
    Hormann's BTRS, transformed rejection with a squeeze (J. Stat. Comput.
    Simul. 46, 1993), in a constant expected number of draws.  Both are
    exact samplers of the binomial law; the acceptance test compares
    log(v) with lgamma values, so a draw within rounding of that boundary
    depends on libm's log.  n >= 0 and 0 <= p <= 1 are the caller's to
    ensure.
    """
    if p <= 0.0 or p >= 1.0:
        return 0 if p <= 0.0 else n
    random = rng.random
    if n == 1:
        return int(random() < p)
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # Devroye's geometric method: the gaps between successes
        x = y = 0
        c = math.log2(1.0 - p)
        if not c:
            return x
        while True:
            y += math.floor(math.log2(random()) / c) + 1
            if y > n:
                return x
            x += 1

    # BTRS
    setup_complete = False
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    while True:
        u = random()
        u -= 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        # the squeeze accepts most draws without a logarithm
        v = random()
        if us >= 0.07 and v <= vr:
            return k
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)  # the mode
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def multinomial(rng: Random, n: int, weights: list[float]) -> list[int]:
    """Counts of n draws over the classes of weights, each with probability w_k / W.

    The law is Mult(n, w / W) with W the sum of the non-negative weights,
    drawn as conditional binomials in one O(S) pass over S classes: c_k is
    Binomial(n - c_0 - ... - c_{k-1}, w_k / (w_k + ... + w_{S-1})), and the
    last class takes what is left.  The product of these conditionals is
    the multinomial pmf exactly.  Once nothing is left, the remaining
    counts are 0 and nothing more is drawn.  The tail sums are running
    sums from the right, within (S - 1) eps of their exact values,
    relative (eps = 2^-52), since every term is non-negative, and a tail is
    never below its own first term, so each conditional probability is at
    most 1 and within S eps of its exact value: far below a count's
    resolution of 1/n.
    """
    tails = list(accumulate(reversed(weights)))[::-1]
    counts = []
    left = n
    for w, tail in zip(weights[:-1], tails):
        c = binomial(rng, left, w / tail) if left else 0
        counts.append(c)
        left -= c
    counts.append(left)
    return counts
