"""Discrete measures on cell representatives and the private measure mechanism.

The mechanism takes a dataset and a partition, counts points per cell, samples
one uniform representative per cell (independently of the data), perturbs the
normalized counts with iid integer noise, and projects the resulting signed
weights back onto the probability simplex in total-variation distance. Each
measure is a plain weight vector, indexed like the representatives.

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


def true_counts(dataset: AttributeDataset, partition: Partition) -> np.ndarray:
    """counts[i] = number of dataset points in cell i; sums to n."""
    return dataset.bins(partition)[0].astype(np.int64)


def tv_project(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The probability vector closest to ``weights`` in TV distance, and that
    distance. Clip negatives, then remove the surplus from, or add the deficit
    to, coordinates in ascending index order: a deterministic representative
    of the optimum set. Weights so large that float rounding loses the unit
    mass, or the distance overflows, are refused."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or not np.isfinite(w).all():
        raise ValueError("weights must be a nonempty vector of finite numbers")
    tau = np.clip(w, 0.0, None)
    with np.errstate(over="ignore"):  # a sum that overflows is refused below
        total = tau.sum()
        if total > 1.0:  # an infinite surplus takes every weight, so the projection sums to 0
            surplus = total - 1.0
            for i in range(tau.size):
                take = min(surplus, tau[i])
                tau[i] -= take
                surplus -= take
                if surplus <= 0:
                    break
        elif total < 1.0:
            tau[0] += 1.0 - total
        total, distance = float(tau.sum()), float(np.abs(w - tau).sum())
    if tau.min() < 0 or abs(total - 1.0) > 1e-9 or not np.isfinite(distance):
        raise ValueError(f"weights too large to project: projected weights sum to {total}, distance {distance}")
    return tau, distance


@dataclass(frozen=True)
class PrivateMeasureResult:
    """Everything the mechanism produced for one run."""

    representatives: np.ndarray
    counts: np.ndarray
    noise_draws: np.ndarray
    raw_weights: np.ndarray = field(repr=False)
    private_weights: np.ndarray = field(repr=False)
    tv_residual: float

    def to_dict(self, private_only: bool = False) -> dict:
        """The released measure; unless ``private_only``, also the true
        counts and what was computed from them before the projection."""
        out = {
            "representatives": self.representatives.tolist(),
            "private_weights": self.private_weights.tolist(),
            "tv_residual": self.tv_residual,
        }
        if not private_only:
            out["counts"] = self.counts.tolist()
            out["noise_draws"] = self.noise_draws.tolist()
            out["raw_weights"] = self.raw_weights.tolist()
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
    raw = (counts + lam) / dataset.n
    private, residual = tv_project(raw)
    return PrivateMeasureResult(
        representatives=reps,
        counts=counts,
        noise_draws=np.asarray(lam, dtype=np.int64),
        raw_weights=raw,
        private_weights=private,
        tv_residual=residual,
    )
