"""Seedable random-variate generation for the trial simulator.

All draws are reductions of a single 53-bit uniform source (PCG64), so a
stream is fully determined by its seed and the sequence of calls made
against it, independent of platform. ``draw_count`` tracks the exact
number of uniforms consumed, including the variable number used by the
Poisson sampler.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

_U53 = 1 << 53


class RandomStream:
    """Deterministic uniform source with exact draw accounting."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self._bits = np.random.Generator(np.random.PCG64(self.seed))
        self.draw_count = 0

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on the open interval (0, 1)."""
        k = self._bits.integers(0, _U53, size=n, dtype=np.int64)
        self.draw_count += int(n)
        return (k + 0.5) * 2.0**-53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])


def seed_stream(seed: int) -> RandomStream:
    return RandomStream(seed)


@dataclass(frozen=True)
class Uniform01:
    pass


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


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"Exponential rate must be positive, got {self.rate}")


DistributionSpec = Union[Uniform01, Normal, Poisson, Bernoulli, Exponential]


def exponential_inverse(u, rate: float):
    """Inverse-CDF transform: quantile of Exponential(rate) at 1 - u."""
    return -np.log(u) / rate


def _draw_poisson(stream: RandomStream, lam: float, n: int) -> np.ndarray:
    # Multiplicative inversion: multiply uniforms until the running product
    # drops below exp(-lam). Exact while exp(-lam) is a normal double (see
    # Poisson); the number of passes grows with lam.
    limit = math.exp(-lam)
    counts = np.zeros(n)
    prod = stream.uniforms(n)
    active = prod >= limit
    while active.any():
        counts[active] += 1
        prod[active] *= stream.uniforms(int(active.sum()))
        active = prod >= limit
    return counts


def draw_variates(stream: RandomStream, dist: DistributionSpec, n: int) -> np.ndarray:
    """n i.i.d. variates from ``dist``, advancing the stream."""
    if isinstance(dist, Uniform01):
        return stream.uniforms(n)
    if isinstance(dist, Normal):
        # imported here: scipy takes about 0.3 s to load, and only Normal
        # draws need it
        from scipy.special import ndtri
        return dist.mean + dist.sd * ndtri(stream.uniforms(n))
    if isinstance(dist, Poisson):
        return _draw_poisson(stream, dist.lam, n)
    if isinstance(dist, Bernoulli):
        return (stream.uniforms(n) < dist.p).astype(float)
    if isinstance(dist, Exponential):
        return exponential_inverse(stream.uniforms(n), dist.rate)
    raise TypeError(f"unknown distribution spec: {dist!r}")
