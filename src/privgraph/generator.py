"""Joint generation of the "true" graph and its private synthetic counterpart.

Both graphs are built on one probability space so that each has exactly the
marginal law of the random connection model (Poisson size, categorical cells,
independent Bernoulli edges) while sharing as much randomness as possible:

* vertex counts share a Poisson component of rate min(a, b);
* each shared slot lands in a common cell k with probability
  min(counts_k/n, private_k), and otherwise the two sides draw their cells
  from the residual laws, which restores the exact categorical marginals;
* edges between two matched vertex pairs are drawn from the maximal coupling
  of their Bernoulli laws, so they disagree with probability |p - q|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import AttributedGraph, Kernel, _distinct_uniform_ids, graph_to_dict, kernel_matrix
from .measures import PrivateMeasureResult, run_private_measure
from .noise import NoiseSpec
from .space import AttributeDataset, Partition

_RESIDUAL_TOL = 1e-12


def maximal_coupling_bernoulli(p: float, q: float, rng: np.random.Generator) -> tuple[int, int]:
    """Pair of bits with marginals Ber(p), Ber(q) and P(bits differ) = |p - q|.

    One shared uniform threshold achieves the maximal coupling: the joint law
    is (1,1) w.p. min(p,q), (1,0) w.p. p - min, (0,1) w.p. q - min,
    (0,0) w.p. 1 - max(p,q).
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p, q must lie in [0,1]")
    u = rng.random()
    return int(u < p), int(u < q)


def sample_common_indicator(probs: np.ndarray, rng: np.random.Generator) -> int | None:
    """Cell k with probability probs[k], or None with the residual probability.

    ``probs`` are the per-cell minima min(counts_k/n, private_k); their sum
    must not exceed 1 (a tiny numerical overshoot is clamped).
    """
    probs = np.asarray(probs, dtype=float)
    total = probs.sum()
    if total > 1.0 + 1e-9:
        raise ValueError(f"indicator probabilities sum to {total} > 1")
    u = rng.random()
    if u >= total:
        return None
    return int(np.searchsorted(np.cumsum(probs), u, side="right"))


def _residual_probs(base: np.ndarray, common: np.ndarray) -> np.ndarray:
    p_none = 1.0 - float(np.sum(common))
    if p_none <= 0.0:
        raise ValueError("residual law undefined: indicator covers all mass")
    res = (np.asarray(base, dtype=float) - np.asarray(common, dtype=float)) / p_none
    if res.min() < -_RESIDUAL_TOL:
        raise ValueError(f"negative residual probability {res.min()}")
    if res.min() < 0.0:
        warnings.warn("clamping residual probabilities within 1e-12 of zero")
    res = np.clip(res, 0.0, None)
    total = res.sum()
    if total <= 0.0:
        raise ValueError("residual law undefined: no residual mass")
    return res / total


def residual_cell_sampler(base: np.ndarray, common: np.ndarray, rng: np.random.Generator) -> int:
    """Cell draw conditional on the common indicator having returned None.

    Composing the indicator with this residual reproduces the base categorical
    law exactly: P(k) = common_k + P(none) * (base_k - common_k)/P(none).
    """
    res = _residual_probs(base, common)
    return int(np.searchsorted(np.cumsum(res), rng.random(), side="right"))


def _categorical(probs: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(probs)
    cum = cum / cum[-1]
    return np.searchsorted(cum, rng.random(size), side="right").astype(np.int64)


@dataclass(frozen=True)
class CoupledGraphs:
    """The jointly generated pair plus the coupling bookkeeping."""

    true_graph: AttributedGraph
    synthetic_graph: AttributedGraph
    shared_count: int
    extra_true_count: int
    extra_synthetic_count: int
    matches: np.ndarray  # (Z, 3) rows of (cell, true index, synthetic index)
    private: PrivateMeasureResult = field(repr=False)
    partition: Partition = field(repr=False)
    kernel: Kernel = field(repr=False)
    a: float
    b: float

    @property
    def match_count(self) -> int:
        return int(self.matches.shape[0])

    def to_dict(self, redact_counts: bool = False, private_only: bool = False) -> dict:
        out = {
            "a": self.a,
            "b": self.b,
            "synthetic_graph": graph_to_dict(self.synthetic_graph),
            "private_measure": self.private.to_dict(redact_counts=redact_counts),
        }
        if not private_only:
            out["true_graph"] = graph_to_dict(self.true_graph)
            out["coupling"] = {
                "shared_count": self.shared_count,
                "extra_true_count": self.extra_true_count,
                "extra_synthetic_count": self.extra_synthetic_count,
                "matches": self.matches.tolist(),
            }
        return out


def generate_coupled_graphs(
    dataset: AttributeDataset,
    partition: Partition,
    noise: NoiseSpec,
    a: float,
    b: float,
    kernel: Kernel,
    rng: np.random.Generator,
    private: PrivateMeasureResult | None = None,
) -> CoupledGraphs:
    """Run the full joint generator.

    ``private`` may carry a precomputed mechanism result to hold the noisy
    measure fixed across replicates; otherwise the mechanism runs first with
    the same rng. The draw order is fixed (sizes, indicators, residual cells,
    extra cells, attributes, identifiers, edge uniforms), so output is
    bit-reproducible for a given generator state.

    A true vertex takes a uniform dataset point of its cell, found through
    the dataset's cached binning (:meth:`AttributeDataset.bins`), so no work
    here grows with the dataset size.
    """
    if a <= 0 or b <= 0:
        raise ValueError("expected sizes a, b must be positive")
    if private is None:
        private = run_private_measure(dataset, partition, noise, rng)

    n = dataset.n
    base_true = private.counts / n
    base_syn = private.private_measure.weights
    common = np.minimum(base_true, base_syn)
    total_common = float(common.sum())
    p_none = 1.0 - total_common
    if p_none < -_RESIDUAL_TOL:
        raise ValueError(f"indicator mass exceeds 1 by {-p_none}")
    p_none = max(p_none, 0.0)

    lo = min(a, b)
    shared = int(rng.poisson(lo))
    extra_true = int(rng.poisson(a - lo))
    extra_syn = int(rng.poisson(b - lo))

    # shared slots: matched cell or per-side residual cells
    u = rng.random(shared)
    is_match = u < total_common
    cum_common = np.cumsum(common)
    true_cells = np.empty(shared + extra_true, dtype=np.int64)
    syn_cells = np.empty(shared + extra_syn, dtype=np.int64)
    matched_cells = np.searchsorted(cum_common, u[is_match], side="right")
    true_cells[:shared][is_match] = matched_cells
    syn_cells[:shared][is_match] = matched_cells
    n_resid = int((~is_match).sum())
    if n_resid:
        res_true = _residual_probs(base_true, common)
        res_syn = _residual_probs(base_syn, common)
        true_cells[:shared][~is_match] = _categorical(res_true, n_resid, rng)
        syn_cells[:shared][~is_match] = _categorical(res_syn, n_resid, rng)
    true_cells[shared:] = _categorical(base_true, extra_true, rng)
    syn_cells[shared:] = _categorical(base_syn, extra_syn, rng)

    n_true = shared + extra_true
    n_syn = shared + extra_syn

    # true attributes: uniform over the dataset points inside each vertex's cell
    sizes, order, offsets = dataset.bins(partition)
    if n_true and np.any(sizes[true_cells] == 0):
        raise AssertionError("true vertex assigned to an empty cell")
    pick = np.floor(rng.random(n_true) * sizes[true_cells]).astype(np.int64)
    pick = np.minimum(pick, np.maximum(sizes[true_cells] - 1, 0))
    true_attrs = (
        dataset.points[order[offsets[true_cells] + pick]]
        if n_true
        else np.zeros((0, partition.d))
    )
    syn_attrs = private.representatives[syn_cells] if n_syn else np.zeros((0, partition.d))

    true_ids = _distinct_uniform_ids(n_true, rng)
    syn_ids = _distinct_uniform_ids(n_syn, rng)

    # edges: matched x matched pairs share one uniform (maximal coupling);
    # every other pair uses its own graph-local uniform
    u_true = rng.random((n_true, n_true)) if n_true else np.zeros((0, 0))
    u_syn = rng.random((n_syn, n_syn)) if n_syn else np.zeros((0, 0))
    if shared:
        u_shared = rng.random((shared, shared))
        pair_mask = np.outer(is_match, is_match)
        np.copyto(u_true[:shared, :shared], u_shared, where=pair_mask)
        np.copyto(u_syn[:shared, :shared], u_shared, where=pair_mask)

    def _adj(u_mat: np.ndarray, attrs: np.ndarray) -> np.ndarray:
        if attrs.shape[0] == 0:
            return np.zeros((0, 0), dtype=bool)
        probs = kernel_matrix(kernel, attrs, attrs)
        upper = np.triu(u_mat < probs, 1)
        return upper | upper.T

    true_graph = AttributedGraph(
        attributes=true_attrs, identifiers=true_ids, adjacency=_adj(u_true, true_attrs)
    )
    syn_graph = AttributedGraph(
        attributes=syn_attrs, identifiers=syn_ids, adjacency=_adj(u_syn, syn_attrs)
    )

    slots = np.where(is_match)[0]
    matches = np.stack([matched_cells, slots, slots], axis=1).astype(np.int64) if slots.size else np.zeros((0, 3), dtype=np.int64)

    return CoupledGraphs(
        true_graph=true_graph,
        synthetic_graph=syn_graph,
        shared_count=shared,
        extra_true_count=extra_true,
        extra_synthetic_count=extra_syn,
        matches=matches,
        private=private,
        partition=partition,
        kernel=kernel,
        a=float(a),
        b=float(b),
    )
