import json

import numpy as np
import pytest
from oracles import sample_graph
from scipy import stats

import privgraph.graphs as graphs_mod
from privgraph.generator import _coupled_edges
from privgraph.graphs import (
    AttributedGraph,
    chung_lu,
    constant_kernel,
    graph_from_json,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    inverse_distance,
    kernel_matrix,
)
from privgraph.space import AttributeDataset


def test_kernel_eval_examples():
    assert kernel_matrix(chung_lu(1), [0.5], [0.5])[0, 0] == pytest.approx(0.25)
    assert kernel_matrix(constant_kernel(0.3), [0.1], [0.9])[0, 0] == 0.3
    assert kernel_matrix(inverse_distance(0.5), [0.4], [0.4])[0, 0] == pytest.approx(1.0)


def test_kernel_symmetry_range_lipschitz_probes():
    rng = np.random.default_rng(0)
    for kern, d in [(chung_lu(2), 2), (constant_kernel(0.4), 3), (inverse_distance(0.7), 2)]:
        for _ in range(200):
            x, y, x2 = rng.random(d), rng.random(d), rng.random(d)
            kxy = kernel_matrix(kern, x, y)[0, 0]
            assert kxy == pytest.approx(kernel_matrix(kern, y, x)[0, 0], abs=1e-12)
            assert 0.0 <= kxy <= 1.0
            lhs = abs(kxy - kernel_matrix(kern, x2, y)[0, 0])
            assert lhs <= kern.lipschitz_constant * np.max(np.abs(x - x2)) + 1e-12


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_inverse_distance_refuses_a_scale_that_is_not_finite_and_positive(scale):
    # a NaN scale made every edge probability NaN, so no edge was ever drawn
    with pytest.raises(ValueError, match="finite scale > 0"):
        inverse_distance(scale)


def test_kernel_matrix_of_one_array_with_itself():
    # a kernel of an array with itself or its copy, whole or in blocks, is the same matrix
    xs = np.random.default_rng(2).random((9, 3))
    for kern in (chung_lu(3), constant_kernel(0.4), inverse_distance(0.7)):
        same = kernel_matrix(kern, xs, xs)
        assert np.array_equal(same, kernel_matrix(kern, xs, xs.copy()))
        assert np.array_equal(same[2:5, 4:], kernel_matrix(kern, xs[2:5], xs[4:]))


def test_zero_kernel_no_edges():
    rng = np.random.default_rng(1)
    data = AttributeDataset(points=rng.random((20, 1)))
    for _ in range(20):
        g = sample_graph(data, 30, constant_kernel(0.0), rng)
        assert g.n_edges == 0


def test_one_kernel_complete_graph():
    rng = np.random.default_rng(2)
    data = AttributeDataset(points=rng.random((20, 1)))
    g = sample_graph(data, 30, constant_kernel(1.0), rng)
    n = g.n_vertices
    assert g.n_edges == n * (n - 1) // 2


def test_chung_lu_half_zero_half_one():
    rng = np.random.default_rng(3)
    pts = np.zeros((100, 1))
    pts[50:] = 1.0
    data = AttributeDataset(points=pts)
    sizes = []
    for _ in range(500):
        g = sample_graph(data, 100, chung_lu(1), rng)
        sizes.append(g.n_vertices)
        ones = g.attributes[:, 0] == 1.0
        # attr-1 pairs connect with probability exactly 1; any pair touching 0 never connects
        sub = g.adjacency[np.ix_(ones, ones)]
        k = int(ones.sum())
        assert sub.sum() == k * (k - 1)
        assert g.adjacency[~ones].sum() == 0
    mean = np.mean(sizes)
    assert abs(mean - 100) < 4 * np.sqrt(100 / 500)


def test_vertex_count_poisson_gof():
    rng = np.random.default_rng(4)
    data = AttributeDataset(points=np.array([[0.5]]))
    a = 8.0
    counts = np.array(
        [sample_graph(data, a, constant_kernel(0.0), rng).n_vertices for _ in range(2000)]
    )
    hi = int(counts.max()) + 1
    observed = np.bincount(counts, minlength=hi + 1).astype(float)
    probs = stats.poisson(a).pmf(np.arange(hi + 1))
    probs[-1] = stats.poisson(a).sf(hi - 1)
    # merge bins with expected < 5
    exp = probs * counts.size
    keep = exp >= 5
    obs_merged, exp_merged = observed[keep], exp[keep]
    if (~keep).any():
        obs_merged = np.concatenate([obs_merged, [observed[~keep].sum()]])
        exp_merged = np.concatenate([exp_merged, [exp[~keep].sum()]])
    chi2 = float(((obs_merged - exp_merged) ** 2 / exp_merged).sum())
    assert stats.chi2.sf(chi2, df=obs_merged.size - 1) > 0.01


def test_conditional_edge_independence():
    rng = np.random.default_rng(5)
    attrs = np.array([[0.9], [0.8], [0.7], [0.6]])
    kern = chung_lu(1)
    n_rep = 4000
    e01, e23 = np.zeros(n_rep, bool), np.zeros(n_rep, bool)
    for r in range(n_rep):
        # the single-graph edge draw of sample_graph: no synthetic side
        adj = _coupled_edges(kern, attrs, attrs[:0], 0, rng)[0][0]
        e01[r], e23[r] = adj[0, 1], adj[2, 3]
    cov = np.cov(e01.astype(float), e23.astype(float))[0, 1]
    p1, p2 = kernel_matrix(kern, [0.9], [0.8])[0, 0], kernel_matrix(kern, [0.7], [0.6])[0, 0]
    sigma = np.sqrt(p1 * (1 - p1) * p2 * (1 - p2) / n_rep)
    assert abs(cov) < 4 * sigma


def test_attribute_marginal_empirical_measure():
    rng = np.random.default_rng(6)
    data = AttributeDataset(points=np.array([[0.2], [0.5], [0.8]]))
    attrs = []
    for _ in range(600):
        g = sample_graph(data, 10, constant_kernel(0.0), rng)
        attrs.extend(g.attributes[:, 0].tolist())
    attrs = np.array(attrs)
    assert set(np.unique(attrs)) <= {0.2, 0.5, 0.8}
    observed = np.array([(attrs == v).sum() for v in (0.2, 0.5, 0.8)])
    expected = np.full(3, attrs.size / 3)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, df=2) > 0.01


def test_sampling_from_probability_measure():
    rng = np.random.default_rng(7)
    measure = (np.array([[0.25], [0.75]]), np.array([0.2, 0.8]))
    g = sample_graph(measure, 400, constant_kernel(0.0), rng)
    frac = float((g.attributes[:, 0] == 0.75).mean())
    assert abs(frac - 0.8) < 4 * np.sqrt(0.16 / g.n_vertices)


def test_identifiers_distinct():
    rng = np.random.default_rng(8)
    data = AttributeDataset(points=rng.random((5, 2)))
    g = sample_graph(data, 50, constant_kernel(0.5), rng)
    assert np.unique(g.identifiers).size == g.n_vertices


def test_json_roundtrip_and_exports():
    g = AttributedGraph(
        attributes=np.array([[0.1], [0.9], [0.5]]),
        identifiers=np.array([0.3, 0.6, 0.9]),
        adjacency=np.array(
            [[False, True, False], [True, False, True], [False, True, False]]
        ),
    )
    back = graph_from_json(graph_to_json(g))
    assert np.allclose(back.attributes, g.attributes)
    assert np.array_equal(back.adjacency, g.adjacency)
    dot = graph_to_dot(g)
    assert "0 -- 1" in dot and "fillcolor" in dot
    # dark = small attribute
    assert '0 [fillcolor="0.000 0.000 0.100"]' in dot


@pytest.mark.parametrize("text", ["{}", '{"vertices": [], "edges": []}'])
def test_an_empty_graph_json_reads_as_a_graph_with_no_vertices_and_d_1(text):
    g = graph_from_json(text)
    assert g.n_vertices == 0
    assert g.attributes.shape == (0, 1) and g.identifiers.shape == (0,) and g.adjacency.shape == (0, 0)


def test_graph_validation():
    with pytest.raises(ValueError):
        AttributedGraph(
            attributes=np.array([[0.1]]),
            identifiers=np.array([0.5]),
            adjacency=np.array([[True]]),
        )


@pytest.mark.parametrize("bad", [0.41, 2, -1, np.nan])
def test_graph_refuses_adjacency_entries_other_than_0_1(bad):
    # each of these once became one edge without a word
    attrs, ids = np.zeros((3, 1)), np.array([0.2, 0.5, 0.8])
    adj = np.zeros((3, 3), dtype=type(bad))
    adj[0, 1] = adj[1, 0] = bad
    with pytest.raises(ValueError, match="0/1 or boolean"):
        AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)
    for dtype in (np.int64, float):
        adj = np.zeros((3, 3), dtype=dtype)
        adj[0, 1] = adj[1, 0] = 1
        g = AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)
        assert g.adjacency.dtype == bool and g.n_edges == 1 and g.edge_list() == [(0, 1)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_refuses_a_vertex_that_is_not_finite(bad):
    # a NaN attribute once made every FGW value NaN, and the exact search crashed
    attrs, ids = np.full((3, 2), 0.5), np.array([0.2, 0.5, 0.8])
    adj = np.zeros((3, 3), dtype=bool)
    attrs[2, 1] = bad
    with pytest.raises(ValueError, match="vertex 2 has a non-finite attribute"):
        AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)
    ids[1] = bad
    attrs[2, 1] = 0.5
    with pytest.raises(ValueError, match="vertex 1 has a non-finite identifier"):
        AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)


@pytest.mark.parametrize("i, j", [(1, 0), (0, 300), (300, 129), (298, 299), (130, 2)])
def test_symmetry_check_finds_one_asymmetric_entry_in_any_block(i, j):
    n = 300  # more than two blocks of graphs_mod._SYMMETRY_ROWS rows
    assert n > 2 * graphs_mod._SYMMETRY_ROWS
    rng = np.random.default_rng(3)
    adj = np.triu(rng.random((n + 1, n + 1)) < 0.5, 1)
    adj = adj | adj.T
    attrs, ids = np.zeros((n + 1, 1)), np.linspace(0.0, 1.0, n + 1)
    AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)
    adj[i, j] = not adj[i, j]
    with pytest.raises(ValueError, match="symmetric"):
        AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)


@pytest.mark.parametrize("n, p", [(0, 0.5), (1, 0.5), (2, 1.0), (7, 0.4), (129, 0.0), (300, 0.3), (300, 1.0)])
def test_edges_match_the_triu_formulation(n, p):
    # reference: edges i < j read off an N x N np.triu copy
    rng = np.random.default_rng(n)
    adj = np.triu(rng.random((n, n)) < p, 1)
    g = AttributedGraph(attributes=rng.random((n, 2)), identifiers=np.linspace(0.0, 1.0, n), adjacency=adj | adj.T)
    i, j = np.nonzero(np.triu(g.adjacency, 1))
    ref = list(zip(i.tolist(), j.tolist()))
    assert g.n_edges == int(np.triu(g.adjacency, 1).sum()) == len(ref)
    assert g.edge_list() == ref
    assert graph_to_json(g) == json.dumps({**graph_to_dict(g), "edges": [[int(a), int(b)] for a, b in ref]})
    dot_edges = [line for line in graph_to_dot(g).splitlines() if "--" in line]
    assert dot_edges == [f"  {a} -- {b};" for a, b in ref]


def _dot_formatted_whole(g, name):
    """DOT text as it was formatted from the whole edge list at once."""
    lines = [f"graph {name} {{", "  node [shape=circle style=filled label=\"\"];"]
    for i in range(g.n_vertices):
        shade = min(max(float(np.mean(g.attributes[i])), 0.0), 1.0)
        lines.append(f'  {i} [fillcolor="0.000 0.000 {shade:.3f}"];')
    lines += [f"  {i} -- {j};" for i, j in g.edge_list()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_dot_and_dict_bytes():
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        adj[i, j] = adj[j, i] = True
    g = AttributedGraph(
        attributes=np.array([[0.1, 0.3], [0.9, 1.0], [0.5, 0.5], [0.0, 0.25]]),
        identifiers=np.array([0.4, 0.1, 0.7, 0.2]),
        adjacency=adj,
    )
    # the writers list vertices by identifier: stored vertices 1, 3, 0, 2 become 0, 1, 2, 3
    assert graph_to_dot(g, name="pair") == (
        "graph pair {\n"
        '  node [shape=circle style=filled label=""];\n'
        '  0 [fillcolor="0.000 0.000 0.950"];\n'
        '  1 [fillcolor="0.000 0.000 0.125"];\n'
        '  2 [fillcolor="0.000 0.000 0.200"];\n'
        '  3 [fillcolor="0.000 0.000 0.500"];\n'
        "  0 -- 2;\n  0 -- 3;\n  1 -- 2;\n  1 -- 3;\n"
        "}\n"
    )
    assert graph_to_dict(g) == {
        "vertices": [{"attr": [0.9, 1.0], "id": 0.1}, {"attr": [0.0, 0.25], "id": 0.2},
                     {"attr": [0.1, 0.3], "id": 0.4}, {"attr": [0.5, 0.5], "id": 0.7}],
        "edges": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }
    assert g.edge_list() == [(0, 1), (0, 3), (1, 2), (2, 3)]  # the in-memory order stays
    rng = np.random.default_rng(8)
    for n in (0, 1, 300):  # 300 vertices span three blocks of rows
        adj = np.triu(rng.random((n, n)) < 0.3, 1)
        g = AttributedGraph(attributes=rng.random((n, 1)), identifiers=np.linspace(0.0, 1.0, n), adjacency=adj | adj.T)
        assert graph_to_dot(g, name="G") == _dot_formatted_whole(g, "G")
        # stored in a shuffled order, the same graph is written the same way
        perm = rng.permutation(n)
        shuffled = AttributedGraph(g.attributes[perm], g.identifiers[perm], g.adjacency[np.ix_(perm, perm)])
        assert graph_to_dot(shuffled, name="G") == graph_to_dot(g, name="G")
        assert graph_to_dict(shuffled) == graph_to_dict(g)
