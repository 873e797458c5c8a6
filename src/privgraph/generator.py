"""Joint generation of the "true" graph and its private synthetic counterpart.

Both graphs are built on one probability space so that each has exactly the
marginal law of the random connection model (Poisson size, categorical cells,
independent Bernoulli edges) while sharing as much randomness as possible:

* vertex counts share a Poisson component of rate min(a, b);
* each shared slot lands in a common cell k with probability
  min(counts_k/n, private_k), and otherwise each side draws its cell from
  its residual law, base - min(base, other) normalised once, which restores
  the exact categorical marginals (Lindvall 1992's maximal coupling); one
  cumulative sum of the minima both decides the match and picks its cell;
* edges between two matched vertex pairs are drawn from the maximal coupling
  of their Bernoulli laws, so they disagree with probability |p - q|.

The stream is consumed in a fixed, versioned order, ``DRAW_ORDER`` (now 4),
which every manifest records; a manifest written under another order (1 to
3) is refused rather than replayed into different graphs. Since draw order 3
the matched vertices come first: matched pair s is vertex s of both graphs
for s < Z, so every matched block is the contiguous view ``adj[:Z, :Z]``.
That layout reflects the true data, so the writers list each graph's
vertices in identifier order instead (:func:`privgraph.graphs._written_order`).
Each vertex pair that can carry an edge takes exactly one uniform, drawn in
row blocks: the generator holds two float buffers of EDGE_BLOCK_ROWS *
max(N, M) entries, one for a block's uniforms and one for its kernel values,
never an N x N float array. Every pair's edge counts (the matched-plan
evaluators' input) are tallied from each block as it is drawn. The boolean
adjacencies (N^2 + M^2 bytes) are optional: a pair that needs only its
counts is drawn from the same uniforms without them, so its memory is
O(EDGE_BLOCK_ROWS * N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .graphs import (CHUNG_LU, AttributedGraph, Kernel, _distinct_uniform_ids, _unchecked, _written_order,
                     graph_to_dict, kernel_matrix)
from .measures import PrivateMeasureResult, run_private_measure
from .noise import NoiseSpec
from .space import AttributeDataset, Partition

# Version of the order in which the generator consumes its random stream, and
# of the stream the "uniform" recipe draws its points from (draw order 4 gave
# the recipe the root SeedSequence(seed), which no replicate uses); manifests
# record it and a manifest written under another order is refused.
DRAW_ORDER = 4
# Rows of the upper triangle whose edges are drawn together; the stream does
# not depend on it, only the size of the two per-call float buffers does.
EDGE_BLOCK_ROWS = 64


def _categorical(weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` cells drawn with probabilities ``weights`` normalised once;
    a law with no mass is refused."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(weights)
    if not cum[-1] > 0.0:
        raise ValueError("cell law has no mass")
    return np.searchsorted(cum / cum[-1], rng.random(size), side="right").astype(np.int64)


def _kernel_blocks(kernel: Kernel, attrs: np.ndarray):
    """``probs(r0, r1, c0, c1, out)``, the kernel values of rows r0:r1 by
    columns c0:c1. The Chung-Lu weights are formed once per graph and each
    block is their outer product, the same products :func:`kernel_matrix`
    forms, written by ``np.einsum`` into ``out``, a reused buffer of the
    block's shape; other kernels return a new :func:`kernel_matrix` block."""
    if kernel.kind == CHUNG_LU:
        w = attrs.prod(axis=1)
        return lambda r0, r1, c0, c1, out: np.einsum("i,j->ij", w[r0:r1], w[c0:c1], out=out)
    return lambda r0, r1, c0, c1, out: kernel_matrix(kernel, attrs[r0:r1], attrs[c0:c1])


def _coupled_edges(
    kernel: Kernel, true_attrs: np.ndarray, syn_attrs: np.ndarray, z: int, rng: np.random.Generator,
    build: bool = True,
) -> tuple[tuple[np.ndarray, np.ndarray] | None, EdgeCounts]:
    """The edges of both graphs under draw orders 3 and 4, as ``(adjs,
    counts)``: the two boolean adjacencies when ``build`` is set (else None)
    and their :class:`EdgeCounts`; vertex s < z is matched pair s of both
    graphs.

    Three runs draw one uniform u per vertex pair i < j, row-major: the
    upper triangle of [0, z)^2, shared by both graphs (an edge in each iff u
    is below that graph's kernel value: the maximal coupling), then for the
    true and then the synthetic graph alone the rectangle [0, z) x [z, n)
    followed by the upper triangle of [z, n)^2. Rows go EDGE_BLOCK_ROWS at a
    time; each block's uniforms and kernel values are written into two float
    buffers of EDGE_BLOCK_ROWS * max(N, M) entries, allocated once per call.
    Each side's comparison goes into one reused boolean buffer of the same
    size, whose row and column sums are the block's edges at its row and its
    column vertices (into ``row`` on the matched run, into ``deg`` on the
    others), and on the matched run the AND of the two sides' buffers counts
    the edges the blocks share. So the counts need no memory beyond
    EDGE_BLOCK_ROWS * max(N, M), and the stream is drawn the same whether or
    not the adjacencies are built. When they are, each block is also copied
    into them, and their upper triangles are then mirrored one block of rows
    at a time, faster on large graphs than ``adj |= adj.T``.
    """
    sizes = len(true_attrs), len(syn_attrs)
    width = max(sizes)
    upper = np.arange(width) > np.arange(EDGE_BLOCK_ROWS)[:, None]
    u_buf, p_buf = np.empty(EDGE_BLOCK_ROWS * width), np.empty(EDGE_BLOCK_ROWS * width)
    hit_bufs = [np.empty(EDGE_BLOCK_ROWS * width, dtype=bool) for _ in sizes]
    kernels = [_kernel_blocks(kernel, x) for x in (true_attrs, syn_attrs)]
    deg, row = [np.zeros(n, dtype=np.int32) for n in sizes], [np.zeros(z, dtype=np.int32) for _ in sizes]
    both = 0
    adjs = [np.zeros((n, n), dtype=bool) for n in sizes] if build else None
    runs = [((0, 1), 0, z, 0, z)]  # (sides, rows r0:r1, columns c0:c1)
    for side, n in enumerate(sizes):
        runs += [((side,), 0, z, z, n), ((side,), z, n, z, n)]
    for run_sides, r0, r1, c0, c1 in runs:
        matched = len(run_sides) == 2  # its edges are the sides' matched blocks
        for b0 in range(r0, r1, EDGE_BLOCK_ROWS):
            b1, lo = min(b0 + EDGE_BLOCK_ROWS, r1), max(c0, b0)
            rows, cols = b1 - b0, c1 - lo
            u, p = (buf[: rows * cols].reshape(rows, cols) for buf in (u_buf, p_buf))
            hits = [buf[: rows * cols].reshape(rows, cols) for buf in hit_bufs]
            if lo == b0:  # a triangle block: columns b0 on, pairs j > i only
                take = upper[:rows, :cols]
                # the untaken pairs all lie in the leading rows x rows square;
                # no probability exceeds 1, so a 1.0 there gives no edge
                u[:, :rows].fill(1.0)
                # the kernel buffer is free until the comparison below
                u[take] = rng.random(out=p_buf[: np.count_nonzero(take)])
            else:  # a rectangle block: every pair
                rng.random(out=u)
            for side in run_sides:  # each pair i < j is written by one run only
                np.less(u, kernels[side](b0, b1, lo, c1, p), out=hits[side])
                tally = row[side] if matched else deg[side]
                tally[b0:b1] += hits[side].sum(axis=1, dtype=np.int32)
                tally[lo:c1] += hits[side].sum(axis=0, dtype=np.int32)
                if build:
                    adjs[side][b0:b1, lo:c1] = hits[side]
            if matched:  # ordered pairs: each i < j also stands for j > i
                both += 2 * int(np.count_nonzero(np.logical_and(*hits, out=hits[0])))
    for d, r in zip(deg, row):
        d[:z] += r
    # |A xor B| = |A| + |B| - 2 |A and B| over the matched blocks
    counts = EdgeCounts(tuple(row), tuple(deg), int(row[0].sum() + row[1].sum()) - 2 * both, both)
    if not build:
        return None, counts
    for adj in adjs:
        for r0 in range(0, len(adj), EDGE_BLOCK_ROWS):
            adj[r0:, r0 : r0 + EDGE_BLOCK_ROWS] |= adj[r0 : r0 + EDGE_BLOCK_ROWS, r0:].T
    return (adjs[0], adjs[1]), counts


class EdgeCounts(NamedTuple):
    """Integer edge counts of a coupled pair whose first z vertices are
    matched, so that its matched blocks are ``adj[:z, :z]``.

    ``row`` holds, for the true and then the synthetic graph, each matched
    vertex's edges into its matched block, and ``deg`` every vertex's degree
    (int32 arrays); ``xor`` and ``both`` count the ordered pairs of the
    blocks that are an edge in exactly one graph or in both.
    """

    row: tuple[np.ndarray, np.ndarray]
    deg: tuple[np.ndarray, np.ndarray]
    xor: int
    both: int


@dataclass(frozen=True)
class CoupledGraphs:
    """The jointly generated pair plus the coupling bookkeeping.

    ``edge_counts`` are the pair's :class:`EdgeCounts`, tallied while its
    edges were drawn, which the matched-plan evaluators read. A pair drawn
    without its adjacencies (see :func:`generate_coupled_graphs`) has graphs
    that hold attributes and identifiers but no ``adjacency``: reading one
    raises ``AttributeError``.
    """

    true_graph: AttributedGraph
    synthetic_graph: AttributedGraph
    shared_count: int
    extra_true_count: int
    extra_synthetic_count: int
    matched_cells: np.ndarray  # (Z,): the cell of matched pair s, which is vertex s of both graphs
    edge_counts: EdgeCounts = field(repr=False)
    private: PrivateMeasureResult = field(repr=False)
    partition: Partition = field(repr=False)
    kernel: Kernel = field(repr=False)
    a: float
    b: float

    def __post_init__(self):
        if self.match_count > min(self.true_graph.n_vertices, self.synthetic_graph.n_vertices):
            raise ValueError(f"{self.match_count} matched pairs exceed a graph's vertex count")

    @property
    def match_count(self) -> int:
        return len(self.matched_cells)

    def to_dict(self, private_only: bool = False) -> dict:
        """Both graphs as :func:`~privgraph.graphs.graph_to_dict` writes them,
        vertices in identifier order; ``coupling.matches`` lists matched pair s
        as (cell, true vertex, synthetic vertex), numbered in that order. With
        ``private_only``, only what is computed from the noisy counts: the
        synthetic graph and the released measure."""
        out = {
            "a": self.a,
            "b": self.b,
            "synthetic_graph": graph_to_dict(self.synthetic_graph),
            "private_measure": self.private.to_dict(private_only=private_only),
        }
        if not private_only:
            z = self.match_count  # vertex s < z of each graph is written at position written[s]
            written = [np.argsort(_written_order(g))[:z] for g in (self.true_graph, self.synthetic_graph)]
            matches = np.stack([self.matched_cells, *written], axis=1)
            out["true_graph"] = graph_to_dict(self.true_graph)
            out["coupling"] = {
                "shared_count": self.shared_count,
                "extra_true_count": self.extra_true_count,
                "extra_synthetic_count": self.extra_synthetic_count,
                "matches": matches.tolist(),
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
    build_graphs: Callable[[int, int], bool] | None = None,
) -> CoupledGraphs:
    """Run the full joint generator.

    ``private`` may carry a precomputed mechanism result to hold the noisy
    measure fixed across replicates; otherwise the mechanism runs first with
    the same rng. Every pair holds the :class:`EdgeCounts` tallied while its
    edges are drawn. ``build_graphs(N, M)``, asked once the sizes are drawn,
    says whether the pair also needs its adjacencies; when it says no, the
    pair holds no N x N array. Without it every pair is built with its
    adjacencies. The stream is drawn the same either way.
    The draw order is fixed, so output is bit-reproducible for
    a given generator state. Draw orders 3 and 4 (``DRAW_ORDER``): sizes,
    indicators, residual cells, extra cells, attribute picks, identifiers,
    then the edge uniforms in the three runs of :func:`_coupled_edges`,
    C(N,2) + C(M,2) - C(Z,2) uniforms for Z matched vertices. The vertex
    order is fixed before the attribute picks: the matched shared slots
    first, in slot order, then the residual shared slots, then the extras,
    so matched pair s is vertex s of both graphs and every matched block is
    the view ``adj[:Z, :Z]``.

    A true vertex takes a uniform dataset point of its cell, found through
    the dataset's cached binning (:meth:`AttributeDataset.bins`), so no work
    here grows with the dataset size.
    """
    for name, size in (("a", a), ("b", b)):
        if not (np.isfinite(size) and size > 0):
            raise ValueError(f"expected size {name} must be finite and positive, got {size!r}")
    if private is None:
        private = run_private_measure(dataset, partition, noise, rng)

    base_true = private.counts / dataset.n
    base_syn = private.private_weights
    common = np.minimum(base_true, base_syn)
    cum_common = np.cumsum(common)  # decides each match and picks its cell, so a match always has one
    if cum_common[-1] > 1.0 + 1e-12:
        raise ValueError(f"indicator mass exceeds 1 by {cum_common[-1] - 1.0}")

    lo = min(a, b)
    shared = int(rng.poisson(lo))
    extra_true = int(rng.poisson(a - lo))
    extra_syn = int(rng.poisson(b - lo))

    # shared slots: matched cell or per-side residual cells; vertices are the
    # matched slots, then the residual slots, then the extras
    u = rng.random(shared)
    is_match = u < cum_common[-1]
    z = int(np.count_nonzero(is_match))
    matched_cells = np.searchsorted(cum_common, u[is_match], side="right").astype(np.int64)
    res_true = _categorical(base_true - common, shared - z, rng)
    res_syn = _categorical(base_syn - common, shared - z, rng)
    true_cells = np.concatenate([matched_cells, res_true, _categorical(base_true, extra_true, rng)])
    syn_cells = np.concatenate([matched_cells, res_syn, _categorical(base_syn, extra_syn, rng)])

    n_true = shared + extra_true
    n_syn = shared + extra_syn

    # true attributes: uniform over the dataset points inside each vertex's cell
    sizes, order, offsets = dataset.bins(partition)
    if n_true and np.any(sizes[true_cells] == 0):
        raise AssertionError("true vertex assigned to an empty cell")
    pick = np.floor(rng.random(n_true) * sizes[true_cells]).astype(np.int64)
    pick = np.minimum(pick, np.maximum(sizes[true_cells] - 1, 0))
    true_attrs = dataset.points[order[offsets[true_cells] + pick]]
    syn_attrs = private.representatives[syn_cells]

    true_ids = _distinct_uniform_ids(n_true, rng)
    syn_ids = _distinct_uniform_ids(n_syn, rng)

    build = build_graphs is None or build_graphs(n_true, n_syn)
    adjs, counts = _coupled_edges(kernel, true_attrs, syn_attrs, z, rng, build)
    edges = [{"adjacency": adj} for adj in adjs] if build else [{}, {}]  # unbuilt graphs get no adjacency
    true_graph, synthetic_graph = (
        _unchecked(AttributedGraph, attributes=x, identifiers=ids, **e)
        for x, ids, e in zip((true_attrs, syn_attrs), (true_ids, syn_ids), edges)
    )
    return CoupledGraphs(
        true_graph=true_graph,
        synthetic_graph=synthetic_graph,
        shared_count=shared,
        extra_true_count=extra_true,
        extra_synthetic_count=extra_syn,
        matched_cells=matched_cells,
        edge_counts=counts,
        private=private,
        partition=partition,
        kernel=kernel,
        a=float(a),
        b=float(b),
    )
