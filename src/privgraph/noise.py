"""Discrete Laplace noise for count perturbation.

A :class:`NoiseSpec` is discrete Laplace at ``eps``:
P(k) = ((1-p)/(1+p)) * p^|k| with p = exp(-eps), support all of Z.

Each spec supports exact pmf evaluation, sampling from a caller-owned RNG,
the exact mean absolute value, and the worst-case likelihood ratio of one
count shifted by +-1 (:func:`dp_ratio_satisfied`, which says what it certifies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSpec:
    """Discrete Laplace at ``eps``."""

    eps: float

    def __post_init__(self):
        # NaN fails both bounds; at exp(-eps) == 1 the sampler's 1 - exp(-eps) is 0
        if self.eps is None or not 0 < self.eps < math.inf or math.exp(-self.eps) == 1.0:
            raise ValueError(f"discrete_laplace requires finite eps > 0 with exp(-eps) < 1, got {self.eps}")


def discrete_laplace(eps: float) -> NoiseSpec:
    return NoiseSpec(eps=float(eps))


def pmf(spec: NoiseSpec, k: int) -> float:
    """Exact probability mass at integer k."""
    p = math.exp(-spec.eps)
    return (1.0 - p) / (1.0 + p) * p ** abs(int(k))


def sample(spec: NoiseSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` values from the pmf; deterministic given the RNG state.

    Discrete Laplace is sampled as the difference of two iid geometric
    variables on {0,1,...} with success probability 1 - exp(-eps).
    """
    n = int(size)
    q = 1.0 - math.exp(-spec.eps)
    g1 = rng.geometric(q, size=n) - 1
    g2 = rng.geometric(q, size=n) - 1
    return (g1 - g2).astype(np.int64)


def expected_abs(spec: NoiseSpec) -> float:
    """E|noise|, exactly, by the closed form of the geometric series."""
    p = math.exp(-spec.eps)
    return 2.0 * p / (1.0 - p * p)


@dataclass(frozen=True)
class RatioReport:
    """``satisfied``: the unit-shift ratio holds at every k.
    ``pure_dp``: equal to ``satisfied``, since the support is all of Z: one
    noisy count is eps_level-DP, and a release 2*eps_level-DP under
    replacement (see :func:`dp_ratio_satisfied`)."""

    satisfied: bool
    pure_dp: bool
    worst_ratio: float
    worst_k: int
    worst_shift: int


def _exp(x: float, name: str) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise ValueError(f"{name} {x} is too large: exp({x}) overflows a float") from None


def dp_ratio_satisfied(spec: NoiseSpec, eps_level: float) -> RatioReport:
    """Check pmf(k+a)/pmf(k) <= exp(eps_level) for all k, a in {-1,+1}.

    This certifies one count only. The commands treat n as public (they
    divide by the true n, and ``m = auto`` reads it), so neighbouring
    datasets replace one point, which moves two counts: noise passing at
    eps_level makes the release 2*eps_level-DP under replacement. The
    supremum ratio is exp(eps) exactly, attained whenever |k+a| = |k| - 1;
    the report names one such (k, shift).
    """
    if not 0 < eps_level < math.inf:  # NaN fails too
        raise ValueError(f"privacy level must be finite and > 0, got {eps_level}")
    bound = _exp(eps_level, "privacy level")
    worst = _exp(spec.eps, "noise eps")
    satisfied = worst <= bound * (1 + 1e-12)
    return RatioReport(satisfied=satisfied, worst_ratio=worst, worst_k=1, worst_shift=-1, pure_dp=satisfied)
