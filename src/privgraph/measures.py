"""Discrete measures on cell representatives and the private measure mechanism.

The mechanism takes a dataset and a partition, counts points per cell, samples
one uniform representative per cell (independently of the data), perturbs the
normalized counts with iid integer noise, and projects the resulting signed
measure back onto the probability simplex in total-variation distance.

The projection has two interchangeable solver paths: a linear program
(2m variables, 3m+1 constraints) and a closed form (clip negatives, then move
the surplus/deficit of positive mass at unit cost). The LP is the reference
semantics; the closed form is the deterministic fast path and fixes the
tie-break among non-unique optima (mass adjusted in ascending index order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .noise import NoiseSpec, sample as noise_sample
from .space import AttributeDataset, Partition, sample_uniform_in_cells


@dataclass(frozen=True)
class SignedMeasure:
    """Discrete measure on distinct support points; weights may be negative."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        sup = np.atleast_2d(np.asarray(self.support, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if sup.shape[0] != w.size:
            raise ValueError("support and weights must have equal length")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ProbabilityMeasure(SignedMeasure):
    def __post_init__(self):
        super().__post_init__()
        if np.any(self.weights < -1e-12):
            raise ValueError("probability measure has negative weight")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-9")


def true_counts(dataset: AttributeDataset, partition: Partition) -> np.ndarray:
    """counts[i] = number of dataset points in cell i; sums to n."""
    return dataset.bins(partition)[0].astype(np.int64)


def tv_distance(mu1: SignedMeasure, mu2: SignedMeasure) -> float:
    """Sum of absolute weight differences over a shared support."""
    if mu1.m != mu2.m or not np.array_equal(mu1.support, mu2.support):
        raise ValueError("measures must share the same support")
    return float(np.abs(mu1.weights - mu2.weights).sum())


def tv_optimum_analytic(weights: np.ndarray) -> float:
    """Best achievable TV distance to the simplex: sum(neg part) + |sum(pos part) - 1|."""
    w = np.asarray(weights, dtype=float)
    pos = np.clip(w, 0.0, None).sum()
    neg = np.clip(-w, 0.0, None).sum()
    return float(neg + abs(pos - 1.0))


def _project_closed_form(w: np.ndarray) -> np.ndarray:
    """Clip negatives, then remove surplus from / add deficit to coordinates in
    ascending index order. Deterministic representative of the optimum set."""
    tau = np.clip(w, 0.0, None)
    total = tau.sum()
    if total > 1.0:
        surplus = total - 1.0
        for i in range(tau.size):
            take = min(surplus, tau[i])
            tau[i] -= take
            surplus -= take
            if surplus <= 0:
                break
    elif total < 1.0:
        tau[0] += 1.0 - total
    return tau


def _project_lp(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Epigraph LP: minimize sum(u) over tau >= 0, sum(tau)=1,
    u_i >= w_i - tau_i, u_i >= tau_i - w_i."""
    m = w.size
    c = np.concatenate([np.zeros(m), np.ones(m)])
    eye = np.eye(m)
    a_ub = np.block([[-eye, -eye], [eye, -eye]])
    b_ub = np.concatenate([-w, w])
    a_eq = np.concatenate([np.ones(m), np.zeros(m)])[None, :]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(0, None)] * m,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"projection LP failed: {res.message}")
    return res.x[:m], float(res.fun)


def tv_project(nu: SignedMeasure, method: str = "closed_form") -> tuple[ProbabilityMeasure, float]:
    """Closest probability measure on the same support in TV distance.

    ``method`` is "closed_form" (default, deterministic tie-break) or "lp".
    Both achieve the same optimal distance; tests hold them to within 1e-9
    of each other and of the analytic optimum.
    """
    if nu.m < 1:
        raise ValueError("empty measure")
    if method == "closed_form":
        tau = _project_closed_form(nu.weights.copy())
        dist = float(np.abs(nu.weights - tau).sum())
    elif method == "lp":
        tau, dist = _project_lp(nu.weights)
        tau = np.clip(tau, 0.0, None)
        tau = tau / tau.sum()
    else:
        raise ValueError(f"unknown method {method!r}")
    return ProbabilityMeasure(support=nu.support, weights=tau), dist


def tv_project_bruteforce(weights: np.ndarray) -> float:
    """Exact optimum by enumerating vertices of the feasible region.

    The objective sum|w_i - tau_i| is piecewise linear over the simplex cut by
    the hyperplanes tau_i = w_i, so its minimum is attained at a point where
    m-1 coordinates sit at 0 or w_i and the remaining one absorbs the slack.
    Enumerating all such candidates (m * 2^(m-1), tiny for m <= 5) is an
    exhaustive polytope-vertex search independent of both solver paths.
    """
    w = np.asarray(weights, dtype=float)
    m = w.size
    best = np.inf
    others_template = [i for i in range(m)]
    for free in range(m):
        others = [i for i in others_template if i != free]
        for mask in range(2 ** len(others)):
            tau = np.zeros(m)
            ok = True
            for bit, i in enumerate(others):
                if (mask >> bit) & 1:
                    if w[i] < 0:
                        ok = False
                        break
                    tau[i] = w[i]
            if not ok:
                continue
            slack = 1.0 - tau.sum()
            if slack < -1e-12:
                continue
            tau[free] = max(slack, 0.0)
            best = min(best, float(np.abs(w - tau).sum()))
    return best


@dataclass(frozen=True)
class PrivateMeasureResult:
    """Everything the mechanism produced for one run."""

    representatives: np.ndarray
    counts: np.ndarray
    noise_draws: np.ndarray
    raw_measure: SignedMeasure = field(repr=False)
    private_measure: ProbabilityMeasure = field(repr=False)
    tv_residual: float

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def to_dict(self, redact_counts: bool = False) -> dict:
        out = {
            "representatives": self.representatives.tolist(),
            "private_weights": self.private_measure.weights.tolist(),
            "tv_residual": self.tv_residual,
        }
        if not redact_counts:
            out["counts"] = self.counts.tolist()
            out["noise_draws"] = self.noise_draws.tolist()
            out["raw_weights"] = self.raw_measure.weights.tolist()
        return out


def run_private_measure(
    dataset: AttributeDataset,
    partition: Partition,
    noise: NoiseSpec,
    rng: np.random.Generator,
    projection_method: str = "closed_form",
) -> PrivateMeasureResult:
    """Count, perturb, project.

    Representatives are resampled fresh on every call (independently of the
    dataset); noise values are integers added to raw counts before dividing
    by n, which keeps the privacy accounting on counts.
    """
    if dataset.n < 1:
        raise ValueError("dataset must be nonempty")
    counts = true_counts(dataset, partition)
    reps = sample_uniform_in_cells(partition, np.arange(partition.m), rng)
    lam = noise_sample(noise, rng, size=partition.m)
    raw = SignedMeasure(support=reps, weights=(counts + lam) / dataset.n)
    private, residual = tv_project(raw, method=projection_method)
    return PrivateMeasureResult(
        representatives=reps,
        counts=counts,
        noise_draws=np.asarray(lam, dtype=np.int64),
        raw_measure=raw,
        private_measure=private,
        tv_residual=residual,
    )
