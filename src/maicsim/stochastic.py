"""Seedable random-variate generation for the trial simulator.

All draws are reductions of a single 53-bit uniform source (PCG64), so a
stream is fully determined by its seed and the sequence of calls made
against it, independent of platform. ``draw_count`` tracks the exact
number of uniforms consumed, including the variable number used by the
Poisson sampler.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

# (2**53 - 1) * 2**-53 + 2**-54 rounds to 1.0; the largest double below 1
# is the stream's largest uniform
_BELOW_ONE = np.nextafter(1.0, 0.0)
# the least and the greatest uniform a stream returns
UNIFORM_RANGE = (2.0**-54, float(_BELOW_ONE))


class RandomStream:
    """Deterministic uniform source with exact draw accounting."""

    def __init__(self, seed: int):
        # a float or a bool is refused, not truncated to another seed
        if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
                or not 0 <= seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = int(seed)
        self._bits = np.random.Generator(np.random.PCG64(self.seed))
        self.draw_count = 0

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on the open interval (0, 1): the midpoints
        (k + 0.5) 2**-53 of the 53-bit grid ``Generator.random`` draws from."""
        u = self._bits.random(n)
        self.draw_count += int(n)
        u += 2.0**-54
        return np.minimum(u, _BELOW_ONE, out=u)


@dataclass(frozen=True)
class Normal:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"Normal sd must be positive, got {self.sd}")


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        # the inversion sampler compares against exp(-lam); once that
        # underflows (lam > 708.396) it never stops multiplying uniforms
        if not (self.lam > 0 and math.exp(-self.lam) >= sys.float_info.min):
            raise ValueError(
                f"Poisson lambda must lie in (0, 708.396], got {self.lam}")


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Bernoulli p must lie in [0, 1], got {self.p}")


DistributionSpec = Union[Normal, Poisson, Bernoulli]


def drawn_range(dist: DistributionSpec) -> tuple[float, float] | None:
    """The least and the greatest value ``draw_variates`` can return for
    ``dist`` where the draws are bounded (Bernoulli), else None."""
    lo, hi = UNIFORM_RANGE
    if isinstance(dist, Bernoulli):
        # a draw is 1 where its uniform is below p
        return (0.0 if hi >= dist.p else 1.0), (1.0 if lo < dist.p else 0.0)
    return None


def exponential_inverse(u, rate):
    """Inverse-CDF transform: quantile of Exponential(rate) at 1 - u, where
    ``rate`` is one rate or one per u."""
    return -np.log(u) / rate


# Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for Mathematical
# Functions*, 1989), the algorithm of scipy.special.ndtri: three rational
# approximations P(x) / Q(x), highest power first.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# e^-2 < y <= 1 - e^-2, in (y - 0.5)**2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# the tails, x = sqrt(-2 log y) in [2, 8), in 1 / x
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# x >= 8, that is y < exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """The polynomial ``coef`` at x, in Cephes' Horner order."""
    acc = coef[0] * x
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    return acc


def ndtri(y: np.ndarray) -> np.ndarray:
    """The standard Normal quantile of each y, a 1-D array in (0, 1).

    A port of Cephes ``ndtri`` that keeps its Horner order and its
    ``(y2 * P) / Q`` and ``(z * P) / Q`` grouping: for e^-2 < y <= 1 - e^-2
    it equals scipy.special.ndtri bit for bit, and in the tails it differs
    only as ``np.log`` differs from the C library's ``log``. The central
    formula is evaluated on every y, since gathering the central three
    quarters would cost more than it saves; the tail formulas only on the
    y in the tails.
    """
    y = np.asarray(y, dtype=float)
    c = y - 0.5
    c2 = c * c
    x = (c + c * ((c2 * _polevl(c2, _P0)) / _polevl(c2, _Q0))) * _SQRT_2PI
    tails = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    # in min(y, 1 - y): no y above 1 - e^-2 has 1 - y above e^-2
    s = y[tails]
    s = np.sqrt(-2.0 * np.log(np.minimum(s, 1.0 - s)))
    z = 1.0 / s
    p, q = _polevl(z, _P1), _polevl(z, _Q1)
    far = s >= 8.0
    if far.any():
        p[far], q[far] = _polevl(z[far], _P2), _polevl(z[far], _Q2)
    # the tail value is positive; c < 0 in the lower tail
    x[tails] = np.copysign((s - np.log(s) / s) - (z * p) / q, c[tails])
    return x


def _draw_poisson(stream: RandomStream, lam: float, n: int) -> np.ndarray:
    # Multiplicative inversion: multiply uniforms until the running product
    # drops below exp(-lam). Exact while exp(-lam) is a normal double (see
    # Poisson); the number of passes grows with lam. Each pass draws one
    # uniform for each subject still active, in subject order; ``active``
    # holds their indices and ``prod`` their running products.
    limit = math.exp(-lam)
    counts = np.zeros(n)
    prod = stream.uniforms(n)
    active = np.flatnonzero(prod >= limit)
    prod = prod[active]
    while active.size:
        counts[active] += 1
        prod *= stream.uniforms(active.size)
        keep = prod >= limit
        active, prod = active[keep], prod[keep]
    return counts


def draw_variates(stream: RandomStream, dist: DistributionSpec, n: int) -> np.ndarray:
    """n i.i.d. variates from ``dist``, advancing the stream."""
    if isinstance(dist, Normal):
        return dist.mean + dist.sd * ndtri(stream.uniforms(n))
    if isinstance(dist, Poisson):
        return _draw_poisson(stream, dist.lam, n)
    if isinstance(dist, Bernoulli):
        return (stream.uniforms(n) < dist.p).astype(float)
    raise TypeError(f"unknown distribution spec: {dist!r}")
