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

The stream is consumed in a fixed, versioned order, ``DRAW_ORDER`` (now 2),
which every manifest records; a manifest written under another order is
refused rather than replayed into different graphs. Under draw order 2 each
vertex pair that can carry an edge takes exactly one uniform, drawn in row
blocks straight into the boolean adjacencies: beyond the two adjacencies
(N^2 + M^2 bytes) the generator holds O(EDGE_BLOCK_ROWS * N) floats, never
an N x N float array. :func:`sample_graph`, one graph of the model on its
own, draws its edges with the same code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import AttributedGraph, Kernel, _distinct_uniform_ids, graph_to_dict, kernel_matrix
from .measures import PrivateMeasureResult, ProbabilityMeasure, run_private_measure
from .noise import NoiseSpec
from .space import AttributeDataset, Partition

_RESIDUAL_TOL = 1e-12

# Version of the order in which the generator consumes its random stream;
# manifests record it and a manifest written under another order is refused.
DRAW_ORDER = 2
# Rows of the upper triangle whose edges are drawn together; the stream does
# not depend on it, only the size of the per-block float arrays does.
EDGE_BLOCK_ROWS = 128


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


def _categorical(probs: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(probs)
    cum = cum / cum[-1]
    return np.searchsorted(cum, rng.random(size), side="right").astype(np.int64)


def _row_blocks(n: int, block):
    """``block(r0, r1, hi)``, the rows r0:r1 by columns r0:hi of an n x n array.

    When the n rows fit in one row block the whole array is built once and
    later calls take views of it, so the runs that share it skip a rebuild.
    """
    if n <= EDGE_BLOCK_ROWS:
        whole = block(0, n, n)
        return lambda r0, r1, hi: whole[r0:r1, r0:hi]
    return block


def _edge_run(
    rng: np.random.Generator, sides, both_matched, n: int, shared_pairs: bool, upper: np.ndarray
) -> None:
    """One run of draw order 2: a uniform u per vertex pair i < j < n, row-major.

    ``both_matched`` gives blocks of the indicator that both ends of a pair
    are matched shared slots (the shared slots are the first vertices of
    every graph). The run takes those pairs if ``shared_pairs``, and all
    other pairs of its one graph if not. Each side is ``(probs, adj)``: the
    pair is an edge there iff u < its probability from ``probs``. Sides
    share the uniforms, which is the maximal coupling of their Bernoulli
    laws. ``upper[i, j]`` is j > i for one block of rows. Only the upper
    triangle of ``adj`` is written.
    """
    for r0 in range(0, n, EDGE_BLOCK_ROWS):
        r1 = min(r0 + EDGE_BLOCK_ROWS, n)
        take = upper[: r1 - r0, : n - r0]
        both = both_matched(r0, r1, n)  # empty past the shared slots
        if shared_pairs:
            take = take & both
        elif both.size:
            take = take.copy()
            corner = take[: both.shape[0], : both.shape[1]]
            np.greater(corner, both, out=corner)  # on booleans: taken and not both matched
        u = np.empty(take.shape)
        u.fill(1.0)  # no probability exceeds 1, so an untaken pair gets no edge
        u[take] = rng.random(np.count_nonzero(take))
        for probs, adj in sides:
            adj[r0:r1, r0:n] |= u < probs(r0, r1, n)


def _coupled_edges(
    kernel: Kernel,
    true_attrs: np.ndarray,
    syn_attrs: np.ndarray,
    is_match: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Both boolean adjacencies under draw order 2.

    Shared slot s is vertex s of both graphs and ``is_match[s]`` says whether
    it is matched. Three runs draw from ``rng``: the matched x matched pairs
    (one uniform shared by both graphs), then every other true-graph pair,
    then every other synthetic-graph pair. The runs fill the upper
    triangles; each adjacency is then mirrored one block of rows at a time,
    because a whole-matrix ``adj |= adj.T`` is several times slower on large
    graphs. Besides the two adjacencies, the memory used is
    O(EDGE_BLOCK_ROWS * max(N, M)).
    """
    cols = np.arange(max(true_attrs.shape[0], syn_attrs.shape[0]))
    upper = cols > cols[:EDGE_BLOCK_ROWS, None]
    both_matched = _row_blocks(
        is_match.size, lambda r0, r1, hi: is_match[r0:r1, None] & is_match[r0:hi]
    )
    sides = []
    for attrs in (true_attrs, syn_attrs):

        def probs(r0, r1, hi, attrs=attrs):
            rows = attrs[r0:r1]
            # a diagonal block passes one array twice, which kernel_matrix evaluates once
            return kernel_matrix(kernel, rows, rows if hi == r1 else attrs[r0:hi])

        sides.append((_row_blocks(attrs.shape[0], probs), np.zeros((attrs.shape[0],) * 2, dtype=bool)))
    _edge_run(rng, sides, both_matched, is_match.size, True, upper)
    for side in sides:
        _edge_run(rng, [side], both_matched, side[1].shape[0], False, upper)
    for _, adj in sides:
        for r0 in range(0, adj.shape[0], EDGE_BLOCK_ROWS):
            r1 = r0 + EDGE_BLOCK_ROWS
            adj[r0:, r0:r1] |= adj[r0:r1, r0:].T
    return sides[0][1], sides[1][1]


def sample_graph(
    attr_measure: AttributeDataset | ProbabilityMeasure | np.ndarray,
    intensity: float,
    kernel: Kernel,
    rng: np.random.Generator,
) -> AttributedGraph:
    """One draw from the random connection model.

    Vertex count ~ Poisson(intensity); attributes iid from ``attr_measure``
    (uniform over a dataset's points, or per-weight over a measure's support);
    identifiers iid uniform on [0,1]; each pair carries an edge independently
    with probability kernel(x_i, x_j). The edges come from
    :func:`_coupled_edges` with an empty synthetic side: one uniform per pair
    i < j, C(N,2) in all, drawn in row blocks (no N x N float array).
    """
    if intensity <= 0:
        raise ValueError("intensity must be > 0")
    n = int(rng.poisson(intensity))
    if isinstance(attr_measure, ProbabilityMeasure):
        support = attr_measure.support
        idx = rng.choice(support.shape[0], size=n, p=attr_measure.weights / attr_measure.weights.sum())
        attrs = support[idx]
    else:
        pts = attr_measure.points if isinstance(attr_measure, AttributeDataset) else np.atleast_2d(attr_measure)
        attrs = pts[rng.integers(0, pts.shape[0], size=n)]
    ids = _distinct_uniform_ids(n, rng)
    adj = _coupled_edges(kernel, attrs, attrs[:0], np.zeros(0, dtype=bool), rng)[0]
    return AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)


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
    the same rng. The draw order is fixed, so output is bit-reproducible for
    a given generator state. Draw order 2 (``DRAW_ORDER``): sizes,
    indicators, residual cells, extra cells, attribute picks, identifiers,
    then the edge uniforms in three runs, each over pairs i < j in row-major
    order with one uniform per pair:

    1. matched x matched pairs; the one uniform u decides both graphs, an
       edge iff u < kappa(x_i, x_j) in the true graph and iff
       u < kappa(y_i, y_j) in the synthetic one (the maximal coupling);
    2. every other true-graph pair;
    3. every other synthetic-graph pair.

    That is C(N,2) + C(M,2) - C(Z,2) uniforms for Z matched vertices. They
    are drawn in blocks of ``EDGE_BLOCK_ROWS`` rows (the stream does not
    depend on the block size), so the memory is the two boolean
    adjacencies plus O(EDGE_BLOCK_ROWS * max(N, M)).

    A true vertex takes a uniform dataset point of its cell, found through
    the dataset's cached binning (:meth:`AttributeDataset.bins`), so no work
    here grows with the dataset size.
    """
    for name, size in (("a", a), ("b", b)):
        if not (np.isfinite(size) and size > 0):
            raise ValueError(f"expected size {name} must be finite and positive, got {size!r}")
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

    adj_true, adj_syn = _coupled_edges(kernel, true_attrs, syn_attrs, is_match, rng)
    true_graph = AttributedGraph(attributes=true_attrs, identifiers=true_ids, adjacency=adj_true)
    syn_graph = AttributedGraph(attributes=syn_attrs, identifiers=syn_ids, adjacency=adj_syn)

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
