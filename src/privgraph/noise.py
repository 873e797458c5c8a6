"""Integer noise distributions for count perturbation.

Three kinds are supported:

* ``discrete_laplace(eps)`` -- P(k) = ((1-p)/(1+p)) * p^|k| with p = exp(-eps),
  support all of Z.
* ``bounded_power(eps, A)`` -- P(k) proportional to |k|^eps on 1 <= |k| <= A.
* ``custom(table)`` -- any finite pmf given as {int: prob}.

Each spec supports exact pmf evaluation, sampling from a caller-owned RNG,
the exact mean absolute value, and a worst-case likelihood-ratio scan that
verifies the unit-shift ratio condition behind epsilon-differential privacy
of noisy counting (neighboring datasets move one count by +-1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DISCRETE_LAPLACE = "discrete_laplace"
BOUNDED_POWER = "bounded_power"
CUSTOM = "custom"

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    eps: float | None = None
    A: int | None = None
    table: dict[int, float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == DISCRETE_LAPLACE:
            if self.eps is None or not 0 < self.eps < math.inf:  # NaN fails both
                raise ValueError(f"discrete_laplace requires finite eps > 0, got {self.eps}")
        elif self.kind == BOUNDED_POWER:
            if self.eps is None or not 0 < self.eps < math.inf:  # NaN fails both
                raise ValueError(f"bounded_power requires finite eps > 0, got {self.eps}")
            if self.A is None or self.A < 1:
                raise ValueError("bounded_power requires integer A >= 1")
        elif self.kind == CUSTOM:
            if not self.table:
                raise ValueError("custom requires a non-empty pmf table")
            total = sum(self.table.values())
            if not all(p >= 0 for p in self.table.values()):
                raise ValueError("custom pmf has negative or NaN mass")
            if abs(total - 1.0) > _SUM_TOL:
                raise ValueError(f"custom pmf sums to {total}, expected 1 within {_SUM_TOL}")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def finite_support(self) -> np.ndarray | None:
        """Sorted support for finite-support kinds, None for discrete_laplace."""
        if self.kind == DISCRETE_LAPLACE:
            return None
        if self.kind == BOUNDED_POWER:
            ks = list(range(-self.A, 0)) + list(range(1, self.A + 1))
            return np.array(sorted(ks), dtype=np.int64)
        return np.array(sorted(k for k, p in self.table.items() if p > 0), dtype=np.int64)


def discrete_laplace(eps: float) -> NoiseSpec:
    return NoiseSpec(kind=DISCRETE_LAPLACE, eps=float(eps))


def bounded_power(eps: float, A: int) -> NoiseSpec:
    return NoiseSpec(kind=BOUNDED_POWER, eps=float(eps), A=int(A))


def custom(table: dict[int, float]) -> NoiseSpec:
    return NoiseSpec(kind=CUSTOM, table={int(k): float(v) for k, v in table.items()})


def zero_noise() -> NoiseSpec:
    """Degenerate point mass at 0; useful for exercising the noiseless pipeline."""
    return custom({0: 1.0})


def noise_from_json(text_or_path: str) -> NoiseSpec:
    """Load a custom pmf from JSON of the form {"pmf": {"-1": 0.25, ...}}."""
    try:
        obj = json.loads(text_or_path)
    except json.JSONDecodeError:
        with open(text_or_path) as fh:
            obj = json.load(fh)
    if "pmf" not in obj:
        raise ValueError('expected a top-level "pmf" object')
    return custom({int(k): float(v) for k, v in obj["pmf"].items()})


def _bounded_power_norm(eps: float, A: int) -> float:
    return 2.0 * sum(j**eps for j in range(1, A + 1))


def pmf(spec: NoiseSpec, k: int) -> float:
    """Exact probability mass at integer k (0 off-support)."""
    k = int(k)
    if spec.kind == DISCRETE_LAPLACE:
        p = math.exp(-spec.eps)
        return (1.0 - p) / (1.0 + p) * p ** abs(k)
    if spec.kind == BOUNDED_POWER:
        if 1 <= abs(k) <= spec.A:
            return abs(k) ** spec.eps / _bounded_power_norm(spec.eps, spec.A)
        return 0.0
    return spec.table.get(k, 0.0)


def sample(spec: NoiseSpec, rng: np.random.Generator, size: int | None = None):
    """Draw from the pmf; deterministic given the RNG state.

    Discrete Laplace is sampled as the difference of two iid geometric
    variables on {0,1,...} with success probability 1 - exp(-eps).
    """
    n = 1 if size is None else int(size)
    if spec.kind == DISCRETE_LAPLACE:
        q = 1.0 - math.exp(-spec.eps)
        g1 = rng.geometric(q, size=n) - 1
        g2 = rng.geometric(q, size=n) - 1
        out = (g1 - g2).astype(np.int64)
    else:
        support = spec.finite_support
        probs = np.array([pmf(spec, int(k)) for k in support])
        probs = probs / probs.sum()
        out = rng.choice(support, size=n, p=probs).astype(np.int64)
    return int(out[0]) if size is None else out


def expected_abs(spec: NoiseSpec) -> float:
    """E|noise|, exactly.

    Closed form for discrete Laplace (geometric series); finite summation
    otherwise. Custom tables are finite by construction, so no truncation
    error arises.
    """
    if spec.kind == DISCRETE_LAPLACE:
        p = math.exp(-spec.eps)
        return 2.0 * p / (1.0 - p * p)
    support = spec.finite_support
    return float(sum(abs(int(k)) * pmf(spec, int(k)) for k in support))


def abs_variance(spec: NoiseSpec) -> float:
    """Var(|noise|), used for Monte-Carlo tolerance sizing."""
    if spec.kind == DISCRETE_LAPLACE:
        p = math.exp(-spec.eps)
        second = 2.0 * p / (1.0 - p) ** 2
    else:
        support = spec.finite_support
        second = float(sum(int(k) ** 2 * pmf(spec, int(k)) for k in support))
    return second - expected_abs(spec) ** 2


@dataclass(frozen=True)
class RatioReport:
    """``satisfied``: the unit-shift ratio holds at every support point.
    ``pure_dp``: that, and the support is all of Z, so noisy counts are
    epsilon-DP at ``level``. A finite support never is: a count c + 1 can
    produce an output just past the support of count c."""

    satisfied: bool
    worst_ratio: float
    worst_k: int
    worst_shift: int
    level: float
    pure_dp: bool


def dp_ratio_satisfied(spec: NoiseSpec, eps_level: float) -> RatioReport:
    """Check pmf(k+a)/pmf(k) <= exp(eps_level) for all support k, a in {-1,+1}.

    Unit shifts suffice because neighboring datasets change exactly one cell
    count by one. Discrete Laplace is handled analytically (the supremum ratio
    is exp(eps) exactly, attained whenever |k+a| = |k| - 1); finite supports
    are scanned exhaustively. Returns the maximizing (k, shift). The scan
    skips the points just outside a finite support, where pmf(k) = 0 <
    pmf(k+a), so only discrete Laplace can report ``pure_dp``.
    """
    bound = math.exp(eps_level)
    if spec.kind == DISCRETE_LAPLACE:
        worst = math.exp(spec.eps)
        satisfied = worst <= bound * (1 + 1e-12)
        return RatioReport(
            satisfied=satisfied,
            worst_ratio=worst,
            worst_k=1,
            worst_shift=-1,
            level=eps_level,
            pure_dp=satisfied,
        )
    support = spec.finite_support
    worst, worst_k, worst_a = 0.0, int(support[0]), 1
    for k in support:
        pk = pmf(spec, int(k))
        if pk <= 0:
            continue
        for a in (-1, 1):
            ratio = pmf(spec, int(k) + a) / pk
            if ratio > worst:
                worst, worst_k, worst_a = ratio, int(k), a
    return RatioReport(
        satisfied=worst <= bound * (1 + 1e-12),
        worst_ratio=worst,
        worst_k=worst_k,
        worst_shift=worst_a,
        level=eps_level,
        pure_dp=False,
    )
