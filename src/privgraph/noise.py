"""Integer noise distributions for count perturbation.

A :class:`NoiseSpec` is one of two kinds:

* discrete Laplace at ``eps`` (``table`` is None) -- P(k) = ((1-p)/(1+p)) * p^|k|
  with p = exp(-eps), support all of Z;
* a finite pmf ``table`` {int: prob}: ``custom(table)`` takes any, and
  ``bounded_power(eps, A)`` builds P(k) proportional to |k|^eps on 1 <= |k| <= A.

Each spec supports exact pmf evaluation, sampling from a caller-owned RNG,
the exact mean absolute value, and a worst-case likelihood-ratio scan of one
count shifted by +-1 (:func:`dp_ratio_satisfied`, which says what it certifies).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NoiseSpec:
    """Discrete Laplace at ``eps`` when ``table`` is None, else the finite pmf ``table``."""

    eps: float | None = None
    table: dict[int, float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.table is None:
            # NaN fails both bounds; at exp(-eps) == 1 the sampler's 1 - exp(-eps) is 0
            if self.eps is None or not 0 < self.eps < math.inf or math.exp(-self.eps) == 1.0:
                raise ValueError(f"discrete_laplace requires finite eps > 0 with exp(-eps) < 1, got {self.eps}")
            return
        if self.eps is not None:
            raise ValueError("a noise spec is discrete Laplace at eps or a pmf table, not both")
        if not self.table:
            raise ValueError("custom requires a non-empty pmf table")
        if not all(p >= 0 for p in self.table.values()):
            raise ValueError("custom pmf has negative or NaN mass")
        # n masses, each rounded once after a normalising sum of up to n terms,
        # may miss 1 by about n units of rounding: 1e-12 up to 4,504 entries
        total, tol = math.fsum(self.table.values()), max(_SUM_TOL, len(self.table) * 2**-52)
        if abs(total - 1.0) > tol:
            raise ValueError(f"custom pmf sums to {total}, expected 1 within {tol}")

    @property
    def finite_support(self) -> np.ndarray | None:
        """Sorted support of a table, None for discrete Laplace."""
        if self.table is None:
            return None
        return np.array(sorted(k for k, p in self.table.items() if p > 0), dtype=np.int64)


def discrete_laplace(eps: float) -> NoiseSpec:
    return NoiseSpec(eps=float(eps))


def bounded_power(eps: float, A: int) -> NoiseSpec:
    """The table P(k) = |k|^eps / (2 * sum_{j=1..A} j^eps) on 1 <= |k| <= A."""
    eps, A = float(eps), int(A)
    if not 0 < eps < math.inf:  # NaN fails too
        raise ValueError(f"bounded_power requires finite eps > 0, got {eps}")
    if A < 1:
        raise ValueError("bounded_power requires integer A >= 1")
    try:
        norm = 2.0 * sum(j**eps for j in range(1, A + 1))
    except OverflowError:
        norm = math.inf
    if norm == math.inf:
        raise ValueError(f"bounded_power weights |k|^eps overflow a float at eps={eps}, A={A}")
    return custom({k: abs(k) ** eps / norm for k in (*range(-A, 0), *range(1, A + 1))})


def custom(table: dict[int, float]) -> NoiseSpec:
    return NoiseSpec(table={int(k): float(v) for k, v in table.items()})


def zero_noise() -> NoiseSpec:
    """Degenerate point mass at 0; useful for exercising the noiseless pipeline."""
    return custom({0: 1.0})


def noise_from_json(path: str) -> NoiseSpec:
    """Load a custom pmf from a JSON file of the form {"pmf": {"-1": 0.25, ...}}."""
    with open(path) as fh:
        obj = json.load(fh)
    table = obj.get("pmf") if isinstance(obj, dict) else None
    if not isinstance(table, dict):
        raise ValueError(f'{path}: expected a top-level "pmf" object')
    try:
        return custom(table)
    except TypeError:
        raise ValueError(f'{path}: "pmf" must map integers to probabilities') from None


def pmf(spec: NoiseSpec, k: int) -> float:
    """Exact probability mass at integer k (0 off-support)."""
    k = int(k)
    if spec.table is not None:
        return spec.table.get(k, 0.0)
    p = math.exp(-spec.eps)
    return (1.0 - p) / (1.0 + p) * p ** abs(k)


def sample(spec: NoiseSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` values from the pmf; deterministic given the RNG state.

    Discrete Laplace is sampled as the difference of two iid geometric
    variables on {0,1,...} with success probability 1 - exp(-eps).
    """
    n = int(size)
    if spec.table is None:
        q = 1.0 - math.exp(-spec.eps)
        g1 = rng.geometric(q, size=n) - 1
        g2 = rng.geometric(q, size=n) - 1
        return (g1 - g2).astype(np.int64)
    support = spec.finite_support
    probs = np.array([spec.table[k] for k in support.tolist()])
    return rng.choice(support, size=n, p=probs / probs.sum()).astype(np.int64)


def expected_abs(spec: NoiseSpec) -> float:
    """E|noise|, exactly.

    Closed form for discrete Laplace (geometric series); finite summation
    over a table, so no truncation error arises.
    """
    if spec.table is None:
        p = math.exp(-spec.eps)
        return 2.0 * p / (1.0 - p * p)
    return float(sum(abs(k) * spec.table[k] for k in spec.finite_support.tolist()))


@dataclass(frozen=True)
class RatioReport:
    """``satisfied``: the unit-shift ratio holds at every support point.
    ``pure_dp``: that, and the support is all of Z, so one noisy count is
    eps_level-DP, and a release 2*eps_level-DP under replacement (see
    :func:`dp_ratio_satisfied`). A finite support never is: a count c + 1
    can produce an output just past the support of count c."""

    satisfied: bool
    pure_dp: bool
    worst_ratio: float
    worst_k: int
    worst_shift: int


def dp_ratio_satisfied(spec: NoiseSpec, eps_level: float) -> RatioReport:
    """Check pmf(k+a)/pmf(k) <= exp(eps_level) for all support k, a in {-1,+1}.

    This certifies one count only. The commands treat n as public (they
    divide by the true n, and ``m = auto`` reads it), so neighbouring
    datasets replace one point, which moves two counts: noise passing at
    eps_level makes the release 2*eps_level-DP under replacement. Discrete
    Laplace is handled analytically (the supremum ratio is exp(eps) exactly,
    attained whenever |k+a| = |k| - 1); tables are scanned exhaustively.
    Returns the maximizing (k, shift). The scan skips the points just
    outside a table's support, where pmf(k) = 0 < pmf(k+a), so only
    discrete Laplace can report ``pure_dp``.
    """
    bound = math.exp(eps_level)
    if spec.table is None:
        worst = math.exp(spec.eps)
        satisfied = worst <= bound * (1 + 1e-12)
        return RatioReport(satisfied=satisfied, worst_ratio=worst, worst_k=1, worst_shift=-1, pure_dp=satisfied)
    support = spec.finite_support.tolist()
    worst, worst_k, worst_a = 0.0, support[0], 1
    for k in support:
        pk = spec.table[k]
        for a in (-1, 1):
            ratio = spec.table.get(k + a, 0.0) / pk
            if ratio > worst:
                worst, worst_k, worst_a = ratio, k, a
    return RatioReport(
        satisfied=worst <= bound * (1 + 1e-12), worst_ratio=worst, worst_k=worst_k, worst_shift=worst_a, pure_dp=False
    )
