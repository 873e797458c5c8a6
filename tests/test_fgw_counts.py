"""The count-based evaluators against dense oracles.

``matched_plan_cost`` and ``plan_cost_exact`` work from boolean adjacency
blocks and integer counts; here they are checked against the explicit dense
coupling (``plan_coupling`` + ``fgw_cost``) and against the earlier
gather-based matched-plan formula, on generated pairs and on pairs whose
matches, or one whole side, were replaced.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import brute_force_cost, count_edges, dense_transport_lp

from privgraph.fgw import (
    FgwParams,
    _transport_vertex_highs,
    fgw_cost,
    fgw_upper_bound,
    graph_to_measure,
    matched_plan_cost,
    mc_expected_fgw,
    plan_cost_exact,
    plan_coupling,
    transport_vertex,
    worst_pair_cost,
)
from privgraph.generator import _coupled_edges, generate_coupled_graphs
from privgraph.graphs import AttributedGraph, chung_lu, constant_kernel
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition, pairwise_distances


def _broadcast_distances(xs, ys, metric):
    diff = np.abs(xs[:, None, :] - ys[None, :, :])
    return diff.max(axis=-1) if metric == "sup" else np.sqrt((diff**2).sum(axis=-1))


def _matched_plan_cost_oracle(pair, params):
    """The matched-plan charge as first written: fancy-index gathers of the
    matched blocks and the diagonal of a full Z x Z distance matrix."""
    tg, sg = pair.true_graph, pair.synthetic_graph
    n, m = tg.n_vertices, sg.n_vertices
    worst = worst_pair_cost(params, pair.partition.space.diameter, pair.kernel.lipschitz_constant)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0 or pair.match_count == 0:
        return worst
    n0, z = max(n, m), pair.match_count
    t_idx = s_idx = np.arange(z)  # matched pair s is vertex s of both graphs
    d_match = _broadcast_distances(tg.attributes[t_idx], sg.attributes[s_idx], params.metric).diagonal()
    xor_sum = float(np.sum(tg.adjacency[np.ix_(t_idx, t_idx)] != sg.adjacency[np.ix_(s_idx, s_idx)]))
    matched = ((1.0 - params.alpha) * z * float(d_match.sum()) + params.alpha * params.C * xor_sum) / (n0 * n0)
    return matched + worst * (n0 * n0 - z * z) / (n0 * n0)


def _empty_graph(d):
    return AttributedGraph(attributes=np.zeros((0, d)), identifiers=np.zeros(0), adjacency=np.zeros((0, 0), bool))


def _matched_first(g, perm, z):
    """``g`` with its vertices reordered by ``perm``; the random set perm[:z]
    becomes the matched prefix."""
    return AttributedGraph(
        attributes=g.attributes[perm], identifiers=g.identifiers[perm], adjacency=g.adjacency[np.ix_(perm, perm)]
    )


@st.composite
def _pairs(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    metric = draw(st.sampled_from(["sup", "euclidean"]))
    kernel = chung_lu(d) if draw(st.booleans()) else constant_kernel(draw(st.floats(0.0, 1.0)))
    params = FgwParams(alpha=draw(st.floats(0.0, 1.0)), C=draw(st.floats(0.1, 3.0)), metric=metric)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    part = build_grid_partition(SpaceConfig(d=d, metric=metric), draw(st.integers(1, 9)))
    data = AttributeDataset(points=rng.random((draw(st.integers(1, 40)), d)))
    a, b = draw(st.floats(0.5, 25.0)), draw(st.floats(0.5, 25.0))
    pair = generate_coupled_graphs(data, part, discrete_laplace(draw(st.floats(0.2, 3.0))), a, b, kernel, rng)
    variant = draw(st.sampled_from(["generated", "no_matches", "rematched", "empty_true", "empty_synthetic"]))
    if variant == "no_matches":
        pair = _replace(pair, matched_cells=np.zeros(0, np.int64))
    elif variant == "rematched":  # random matched sets, moved to the front of each graph
        n, m = pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices
        z = int(rng.integers(0, min(n, m) + 1))
        pair = _replace(
            pair,
            true_graph=_matched_first(pair.true_graph, rng.permutation(n), z),
            synthetic_graph=_matched_first(pair.synthetic_graph, rng.permutation(m), z),
            matched_cells=np.zeros(z, np.int64),
        )
    elif variant != "generated":
        side = "true_graph" if variant == "empty_true" else "synthetic_graph"
        pair = _replace(pair, matched_cells=np.zeros(0, np.int64), **{side: _empty_graph(d)})
    return pair, params


def _replace(pair, **changes):
    """``pair`` with ``changes``, and the edge counts of its new graphs and matches."""
    pair = dataclasses.replace(pair, **changes)
    adjs = pair.true_graph.adjacency, pair.synthetic_graph.adjacency
    return dataclasses.replace(pair, edge_counts=count_edges(*adjs, pair.match_count))


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_count_evaluators_match_dense_oracles(case):
    pair, params = case
    charge = matched_plan_cost(pair, params)
    assert charge == pytest.approx(_matched_plan_cost_oracle(pair, params), rel=1e-12, abs=1e-12)
    exact = plan_cost_exact(pair, params)
    n, m = pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices
    if n and m:
        dense = fgw_cost(plan_coupling(pair), pair.true_graph, pair.synthetic_graph, params)
        assert exact == pytest.approx(dense, abs=1e-10)
    else:
        worst = worst_pair_cost(params, pair.partition.space.diameter, pair.kernel.lipschitz_constant)
        assert exact == (0.0 if n == m else worst)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(d)), elements=st.floats(-2.0, 2.0)),
            hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(d)), elements=st.floats(-2.0, 2.0)),
        )
    ),
    st.sampled_from(["sup", "euclidean"]),
)
def test_pairwise_distances_match_broadcast_formula(xy, metric):
    xs, ys = xy
    got = pairwise_distances(xs, ys, metric=metric)
    want = _broadcast_distances(xs, ys, metric)
    if metric == "sup":
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_pairwise_distances_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        pairwise_distances(np.zeros((2, 1)), np.zeros((3, 1)), metric="manhattan")


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_lp_vertex_matches_dense_constraint_matrix(n, m, seed):
    """The HiGHS transport helper (the shapes with no closed-form solver)
    returns exactly the dense-matrix LP's vertex."""
    rng = np.random.default_rng(seed)
    wa, wb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    cost = rng.standard_normal((n, m))
    dense = dense_transport_lp(cost, wa, wb)
    assert dense.success
    np.testing.assert_array_equal(_transport_vertex_highs(cost, wa, wb), dense.x.reshape(n, m))


@pytest.mark.parametrize("m", [128, 300])
def test_solver_past_one_adjacency_row_block_matches_the_quartic_sum(m):
    """The solver's products with the second adjacency run in blocks of 128
    rows; its values are the quartic sum over the dense C * adjacency."""
    rng = np.random.default_rng(m)
    params = FgwParams(alpha=0.6, C=1.7)
    graphs = []
    for n in (5, m):
        upper = np.triu(rng.random((n, n)) < 0.4, 1)
        graphs.append(AttributedGraph(attributes=rng.random((n, 2)), identifiers=rng.random(n), adjacency=upper | upper.T))
    a, b = graphs
    wa, wb = graph_to_measure(a), graph_to_measure(b)
    sa, sb = params.C * a.adjacency, params.C * b.adjacency
    quad = np.abs(sa[:, None, :, None] - sb[None, :, None, :])  # [i, j, k, l]
    dist = pairwise_distances(a.attributes, b.attributes)
    vertex = transport_vertex(rng.standard_normal((5, m)), wa, wb)
    for init in (None, 0.5 * (np.outer(wa, wb) + vertex)):
        for iterations in (0, 2):
            value, pi = fgw_upper_bound(a, b, params, init=init, iterations=iterations)
            want = (1 - params.alpha) * np.sum(dist * pi) + params.alpha * np.einsum("ijkl,ij,kl->", quad, pi, pi)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-14)


def _graph(adjacency):
    n = np.shape(adjacency)[0]
    return AttributedGraph(attributes=np.zeros((n, 1)), identifiers=np.arange(n) / n, adjacency=adjacency)


def test_binary_cap_scans_each_structure():
    # each side's structure is scanned when its graph is built; one cap C
    # from FgwParams then scales both sides' edges
    zero = _graph(np.zeros((3, 3)))
    edge = _graph([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]])
    params = FgwParams(alpha=1.0, C=2.0)
    assert fgw_cost(np.full((3, 3), 1.0 / 9), zero, zero, params) == 0.0
    for a, b in ((edge, zero), (zero, edge)):
        pi = np.full((3, 3), 1.0 / 9)
        # four of the nine ordered vertex pairs are edges, each charged C = 2
        assert fgw_cost(pi, a, b, params) == pytest.approx(2.0 * 4 / 9, rel=1e-12)
        assert fgw_cost(pi, a, b, params) == pytest.approx(brute_force_cost(pi, a, b, params), rel=1e-12)
    for bad in ([[0, 2.0], [2.0, 0]], [[0, 2.0, 0.41], [2.0, 0, 2.0], [0.41, 2.0, 0]], [[0, -1.0], [-1.0, 0]]):
        with pytest.raises(ValueError, match="0/1 or boolean"):
            _graph(bad)


def test_structure_symmetry_is_checked_exactly():
    # one entry of the upper triangle without its mirror, past the first row block
    n = 300
    adj = np.zeros((n, n), dtype=bool)
    adj[5, 290] = adj[290, 5] = adj[7, 260] = True
    with pytest.raises(ValueError, match="symmetric"):
        _graph(adj)
    with pytest.raises(ValueError, match="self-loops"):
        _graph(np.diag([False, True]))


def test_a_measure_without_vertices_is_refused():
    # a measure weighs each vertex 1/N, so it needs at least one
    with pytest.raises(ValueError, match="empty graph"):
        graph_to_measure(_empty_graph(1))


def _generated_pair(a=40.0, b=30.0, seed=5):
    part = build_grid_partition(SpaceConfig(d=1), 8)
    data = AttributeDataset(points=np.random.default_rng(seed).random((200, 1)))
    return generate_coupled_graphs(data, part, discrete_laplace(1.0), a, b, chung_lu(1), np.random.default_rng(seed))


def test_coupled_graphs_reject_matches_that_are_not_the_prefix():
    # matched pair s is vertex s of both graphs, so only a count above a
    # graph's vertex count can break the layout
    pair = _generated_pair()
    assert pair.match_count >= 2
    too_many = np.zeros(pair.synthetic_graph.n_vertices + 1, np.int64)
    with pytest.raises(ValueError, match="matched pairs exceed a graph's vertex count"):
        dataclasses.replace(pair, matched_cells=too_many)
    assert dataclasses.replace(pair, matched_cells=pair.matched_cells[:1]).match_count == 1


def test_an_exact_replicate_holds_no_n_by_n_array():
    # above the refine size cap and with no graph kept, a replicate draws its
    # edge counts in blocks of rows: an N x N boolean array alone is N^2 bytes
    data = AttributeDataset(points=np.random.default_rng(0).random((1000, 1)))
    part = build_grid_partition(SpaceConfig(d=1), 32)
    a = 4096
    tracemalloc.start()
    try:
        res = mc_expected_fgw(data, part, discrete_laplace(1.0), a, a, chung_lu(1), FgwParams(), 2, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.evaluators == ("exact", "exact") and res.graphs == []
    assert peak < a * a / 2


@pytest.mark.parametrize("n, m", [(9, 9), (7, 12), (12, 7), (300, 260)])
def test_edge_counts_are_row_sums_of_the_adjacencies(n, m):
    # the counts tallied while the edges are drawn, against the adjacencies the same draw returns
    rng = np.random.default_rng(n * m)
    attrs = rng.random((n, 1)), rng.random((m, 1))
    for z in (0, min(n, m) // 2, min(n, m)):
        adjs, counts = _coupled_edges(chung_lu(1), *attrs, z, rng, build=True)
        for adj, row, deg in zip(adjs, counts.row, counts.deg):
            assert row.dtype == deg.dtype == np.int32
            assert np.array_equal(row, adj[:z, :z].sum(axis=1))
            assert np.array_equal(deg, adj.sum(axis=1))
        both = np.count_nonzero(adjs[0][:z, :z] & adjs[1][:z, :z])
        assert (counts.both, counts.xor) == (both, np.count_nonzero(adjs[0][:z, :z] ^ adjs[1][:z, :z]))
        if n == 300 and z:  # the attributes differ, so the matched blocks share some edges, not all
            assert counts.both > 0 and counts.xor > 0
    pair = _generated_pair()
    counts = pair.edge_counts
    for g, deg in zip((pair.true_graph, pair.synthetic_graph), counts.deg):
        assert np.array_equal(deg, g.degrees())
