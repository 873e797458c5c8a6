"""Discrete measures on cell representatives and the private measure mechanism.

The mechanism takes a dataset and a partition, counts points per cell, samples
one uniform representative per cell (independently of the data), perturbs the
normalized counts with iid integer noise, and projects the resulting signed
measure back onto the probability simplex in total-variation distance.

The projection is a closed form: clip negatives, then move the surplus or
deficit of positive mass at unit cost. It attains the analytic optimum,
sum(negative part) + |sum(positive part) - 1|, and fixes the tie-break among
non-unique optima (mass adjusted in ascending index order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def tv_project(nu: SignedMeasure) -> tuple[ProbabilityMeasure, float]:
    """Closest probability measure on the same support in TV distance, and
    that distance (by the closed form, with its deterministic tie-break)."""
    if nu.m < 1:
        raise ValueError("empty measure")
    tau = _project_closed_form(nu.weights)
    return ProbabilityMeasure(support=nu.support, weights=tau), float(np.abs(nu.weights - tau).sum())


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
    private, residual = tv_project(raw)
    return PrivateMeasureResult(
        representatives=reps,
        counts=counts,
        noise_draws=np.asarray(lam, dtype=np.int64),
        raw_measure=raw,
        private_measure=private,
        tv_residual=residual,
    )
