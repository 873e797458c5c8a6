import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    count_edges,
    coupled_edges_reference,
    fixed_private,
    maximal_coupling_bernoulli,
    residual_cell_sampler,
    sample_common_indicator,
    sample_graph,
)
from scipy import stats

import privgraph.generator as generator_mod
import privgraph.graphs as graphs_mod
from privgraph.generator import generate_coupled_graphs
from privgraph.graphs import (
    AttributedGraph,
    chung_lu,
    constant_kernel,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    graph_to_edge_list_text,
    inverse_distance,
)
from privgraph.measures import run_private_measure
from privgraph.noise import discrete_laplace, zero_noise
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition


def test_maximal_coupling_equal_and_extreme():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = maximal_coupling_bernoulli(0.37, 0.37, rng)
        assert x == y
    for _ in range(200):
        assert maximal_coupling_bernoulli(1.0, 0.0, rng) == (1, 0)


def test_maximal_coupling_four_case_table():
    rng = np.random.default_rng(1)
    p, q = 0.7, 0.4
    n = 100_000
    joint = np.zeros((2, 2))
    for _ in range(n):
        x, y = maximal_coupling_bernoulli(p, q, rng)
        joint[x, y] += 1
    expected = np.array(
        [[1 - max(p, q), q - min(p, q)], [p - min(p, q), min(p, q)]]
    ) * n
    chi2 = float(((joint - expected) ** 2 / np.where(expected > 0, expected, 1)).sum())
    df = int((expected > 0).sum()) - 1
    assert stats.chi2.sf(chi2, df=df) > 0.01
    disagree = (joint[1, 0] + joint[0, 1]) / n
    assert disagree == pytest.approx(abs(p - q), abs=4 * np.sqrt(0.3 * 0.7 / n))


def test_common_indicator_zero_noise_always_hits():
    rng = np.random.default_rng(2)
    probs = np.array([0.25, 0.75])  # minima of identical vectors sum to 1
    for _ in range(300):
        assert sample_common_indicator(probs, rng) is not None


def test_common_indicator_disjoint_supports():
    rng = np.random.default_rng(3)
    probs = np.minimum([1.0, 0.0], [0.0, 1.0])
    for _ in range(100):
        assert sample_common_indicator(probs, rng) is None


def test_common_indicator_frequencies():
    rng = np.random.default_rng(4)
    probs = np.minimum([0.5, 0.5], [0.75, 0.25])
    draws = [sample_common_indicator(probs, rng) for _ in range(100_000)]
    observed = np.array(
        [sum(d == 0 for d in draws), sum(d == 1 for d in draws), sum(d is None for d in draws)]
    )
    expected = np.array([0.5, 0.25, 0.25]) * len(draws)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, df=2) > 0.01


def test_residual_sampler_single_positive_residual():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = residual_cell_sampler(np.array([0.5, 0.5]), np.array([0.5, 0.25]), rng)
        assert k == 1


def test_residual_sampler_normalization():
    rng = np.random.default_rng(6)
    draws = np.array(
        [
            residual_cell_sampler(np.array([0.6, 0.4]), np.array([0.3, 0.3]), rng)
            for _ in range(40_000)
        ]
    )
    frac0 = float((draws == 0).mean())
    assert frac0 == pytest.approx(0.75, abs=4 * np.sqrt(0.1875 / draws.size))


def test_indicator_plus_residual_composition_law():
    rng = np.random.default_rng(7)
    base = np.array([0.5, 0.3, 0.2])
    common = np.array([0.2, 0.3, 0.1])
    n = 100_000
    cells = np.zeros(n, dtype=int)
    for i in range(n):
        k = sample_common_indicator(common, rng)
        cells[i] = residual_cell_sampler(base, common, rng) if k is None else k
    observed = np.bincount(cells, minlength=3)
    expected = base * n
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, df=2) > 0.01


def test_residual_sampler_rejects_bad_inputs():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        residual_cell_sampler(np.array([0.5, 0.5]), np.array([0.5, 0.5]), rng)
    with pytest.raises(ValueError):
        residual_cell_sampler(np.array([0.5, 0.5]), np.array([0.6, 0.1]), rng)
    with pytest.raises(ValueError):
        sample_common_indicator(np.array([0.7, 0.7]), rng)


def _cell_center_setup(n_per_cell=20, m=4):
    part = build_grid_partition(SpaceConfig(d=1), m)
    centers = (part.lows + part.highs) / 2.0
    pts = np.repeat(centers, n_per_cell, axis=0)
    return AttributeDataset(points=pts), part


def test_zero_noise_equal_sizes_full_matching():
    data, part = _cell_center_setup()
    rng = np.random.default_rng(9)
    for _ in range(10):
        pair = generate_coupled_graphs(
            data, part, zero_noise(), 25.0, 25.0, constant_kernel(0.3), rng
        )
        assert pair.extra_true_count == 0 and pair.extra_synthetic_count == 0
        assert pair.match_count == pair.shared_count
        n_t = pair.true_graph.n_vertices
        assert n_t == pair.synthetic_graph.n_vertices == pair.shared_count
        # identical per-cell attribute counts on both sides
        t_cells = np.searchsorted(part.highs[:, 0], pair.true_graph.attributes[:, 0])
        s_cells = np.searchsorted(part.highs[:, 0], pair.synthetic_graph.attributes[:, 0])
        assert np.array_equal(np.bincount(t_cells, minlength=4), np.bincount(s_cells, minlength=4))


def test_generator_deterministic_given_seed():
    data, part = _cell_center_setup()
    p1 = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 20, 30, chung_lu(1), np.random.default_rng(42)
    )
    p2 = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 20, 30, chung_lu(1), np.random.default_rng(42)
    )
    assert np.array_equal(p1.true_graph.attributes, p2.true_graph.attributes)
    assert np.array_equal(p1.true_graph.adjacency, p2.true_graph.adjacency)
    assert np.array_equal(p1.synthetic_graph.adjacency, p2.synthetic_graph.adjacency)
    assert np.array_equal(p1.matched_cells, p2.matched_cells)


def test_true_attributes_come_from_matched_cells():
    data, part = _cell_center_setup()
    rng = np.random.default_rng(10)
    pair = generate_coupled_graphs(
        data, part, discrete_laplace(0.5), 30, 30, constant_kernel(0.2), rng
    )
    for s, cell in enumerate(pair.matched_cells):  # matched pair s is vertex s of both graphs
        x = pair.true_graph.attributes[s, 0]
        assert part.lows[cell, 0] <= x <= part.highs[cell, 0]
        y = pair.synthetic_graph.attributes[s, 0]
        assert part.lows[cell, 0] <= y <= part.highs[cell, 0]
        assert y == pair.private.representatives[cell, 0]


def test_disjoint_supports_yield_no_matches():
    part = build_grid_partition(SpaceConfig(d=1), 2)
    data = AttributeDataset(points=np.full((10, 1), 0.25))  # all in cell 0
    private = fixed_private(part, [10, 0], [0.0, 1.0])
    rng = np.random.default_rng(11)
    pair = generate_coupled_graphs(
        data, part, zero_noise(), 15, 15, constant_kernel(0.5), rng, private=private
    )
    assert pair.match_count == 0
    assert np.all(pair.true_graph.attributes == 0.25)
    assert np.all(pair.synthetic_graph.attributes == private.representatives[1, 0])


def test_written_pair_is_in_identifier_order():
    data, part = _cell_center_setup()
    pair = generate_coupled_graphs(data, part, discrete_laplace(1.0), 30, 25, chung_lu(1), np.random.default_rng(13))
    out = pair.to_dict()
    written = []
    for key, g in (("true_graph", pair.true_graph), ("synthetic_graph", pair.synthetic_graph)):
        w = graph_from_dict(out[key])
        order = np.argsort(g.identifiers)
        assert np.array_equal(w.identifiers, g.identifiers[order]) and np.array_equal(w.attributes, g.attributes[order])
        assert np.array_equal(w.adjacency, g.adjacency[np.ix_(order, order)])
        # every writer lists the in-memory graph as it lists w, whose identifiers are sorted
        assert not np.array_equal(order, np.arange(g.n_vertices))
        assert graph_to_dict(g) == out[key]
        assert graph_to_dot(g) == graph_to_dot(w)
        assert graph_to_edge_list_text(g) == "".join(f"{i} {j}\n" for i, j in w.edge_list())
        written.append(w)
    matches = np.array(out["coupling"]["matches"])
    z = pair.match_count
    assert z >= 2 and np.array_equal(matches[:, 0], pair.matched_cells)
    # each written match joins the same two vertices as matched pair s in memory
    assert np.array_equal(written[0].identifiers[matches[:, 1]], pair.true_graph.identifiers[:z])
    assert np.array_equal(written[1].identifiers[matches[:, 2]], pair.synthetic_graph.identifiers[:z])


def test_written_pair_bit_for_bit():
    # 12 matched pairs, one residual shared slot and two true extras (a != b);
    # the digest pins the written coupling.matches renumbering with the rest
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data = AttributeDataset(points=np.random.default_rng(14).random((40, 1)))
    pair = generate_coupled_graphs(data, part, discrete_laplace(1.0), 12.0, 9.0, chung_lu(1), np.random.default_rng(14))
    assert (pair.match_count, pair.shared_count, pair.extra_true_count) == (12, 13, 2)
    text = json.dumps(pair.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "31438193dea1bc2919a44d6c09faa5f7c2c978a6ecfbe5783c1338dbdde4e94b"


def test_written_synthetic_vertex_order_does_not_depend_on_the_true_counts():
    # Fixed private weights (1/2, 1/2); the true data sits in cell 0 or in
    # cell 1. The matched cells are then all 0 or all 1, so in the
    # matched-first layout vertex 0 would carry the true data's cell.
    # The written graph's vertex and edge counts, cell histogram and degree
    # histogram must not depend on them either: those are what the residual
    # draws, the true-side picks and the shared edge uniforms could leak.
    part = build_grid_partition(SpaceConfig(d=1), 2)
    reps = (part.lows + part.highs) / 2.0
    freq, sizes, edges, cells, first_degrees = [], [], [], [], []
    for counts in ([10, 0], [0, 10]):
        data = AttributeDataset(points=np.repeat(reps, counts, axis=0))
        private = fixed_private(part, counts, [0.5, 0.5])
        rng = np.random.default_rng(12)
        first, n_vertices, n_edges, in_cell_0, degree = [], [], [], 0, []
        for _ in range(400):
            pair = generate_coupled_graphs(data, part, zero_noise(), 8, 8, constant_kernel(0.5), rng, private=private)
            written = pair.to_dict(private_only=True)["synthetic_graph"]
            vertices = written["vertices"]
            first += [vertices[0]["attr"][0] == reps[0, 0]] if vertices else []
            n_vertices.append(len(vertices))
            n_edges.append(len(written["edges"]))
            in_cell_0 += sum(v["attr"][0] == reps[0, 0] for v in vertices)
            # one degree per pair: the degrees of one graph share its edges
            degree += [sum(0 in e for e in written["edges"])] if vertices else []
        freq.append(np.mean(first))
        sizes.append(n_vertices)
        edges.append(n_edges)
        cells.append([in_cell_0, sum(n_vertices) - in_cell_0])
        first_degrees.append(degree)
    assert abs(freq[0] - freq[1]) < 0.1 and all(abs(f - 0.5) < 0.1 for f in freq)
    for x, y in (sizes, edges):
        se = np.sqrt(np.var(x, ddof=1) / len(x) + np.var(y, ddof=1) / len(y))
        assert abs(np.mean(x) - np.mean(y)) < 4 * se
    top = max(max(d) for d in first_degrees) + 1
    degree_table = [np.bincount(d, minlength=top) for d in first_degrees]
    assert stats.chi2_contingency(cells, correction=False)[1] > 0.001
    assert stats.chi2_contingency(_merge_sparse_columns(np.array(degree_table)), correction=False)[1] > 0.001


def _merge_sparse_columns(table, least=10):
    """The columns of a contingency table merged left to right until each
    holds at least ``least`` in total; a remainder below that joins the last."""
    merged, run = [], np.zeros(table.shape[0], dtype=table.dtype)
    for col in table.T:
        run = run + col
        if run.sum() >= least:
            merged.append(run)
            run = np.zeros_like(run)
    if run.sum():
        merged[-1] = merged[-1] + run
    return np.array(merged).T


def test_per_cell_counts_have_poisson_marginals():
    # conditional on a fixed mechanism output, per-cell counts on each side
    # are independent Poisson with rates a*counts_k/n and b*private_k
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data_pts = np.concatenate(
        [np.full(10, 0.1), np.full(20, 0.35), np.full(30, 0.6), np.full(40, 0.85)]
    )[:, None]
    data = AttributeDataset(points=data_pts)
    private = fixed_private(part, [10, 20, 30, 40], [0.4, 0.3, 0.2, 0.1])
    a, b = 30.0, 20.0
    reps = 2500
    rng_streams = [np.random.default_rng(s) for s in np.random.SeedSequence(12).spawn(reps)]
    t_counts = np.zeros((reps, 4), dtype=int)
    s_counts = np.zeros((reps, 4), dtype=int)
    for r, rng in enumerate(rng_streams):
        pair = generate_coupled_graphs(
            data, part, zero_noise(), a, b, constant_kernel(0.0), rng, private=private
        )
        t_cells = np.searchsorted(part.highs[:, 0], pair.true_graph.attributes[:, 0])
        s_idx = np.searchsorted(
            private.representatives[:, 0], pair.synthetic_graph.attributes[:, 0]
        )
        t_counts[r] = np.bincount(t_cells, minlength=4)
        s_counts[r] = np.bincount(s_idx, minlength=4)

    def poisson_gof(samples, lam):
        hi = max(int(samples.max()), 1)
        observed = np.bincount(samples, minlength=hi + 1).astype(float)
        probs = stats.poisson(lam).pmf(np.arange(hi + 1))
        probs[-1] = stats.poisson(lam).sf(hi - 1)
        exp = probs * samples.size
        keep = exp >= 5
        obs_m, exp_m = observed[keep], exp[keep]
        if (~keep).any():
            obs_m = np.concatenate([obs_m, [observed[~keep].sum()]])
            exp_m = np.concatenate([exp_m, [exp[~keep].sum()]])
        chi2 = float(((obs_m - exp_m) ** 2 / exp_m).sum())
        return stats.chi2.sf(chi2, df=obs_m.size - 1)

    base = np.array([10, 20, 30, 40]) / 100
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    for k in range(4):
        assert poisson_gof(t_counts[:, k], a * base[k]) > 0.01
        assert poisson_gof(s_counts[:, k], b * weights[k]) > 0.01


def test_coupling_tightness_matches_overlap_mass():
    # the per-slot match probability equals the summed minima, which equals
    # 1 - tv/2 for the two probability vectors
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data_pts = np.concatenate(
        [np.full(10, 0.1), np.full(20, 0.35), np.full(30, 0.6), np.full(40, 0.85)]
    )[:, None]
    data = AttributeDataset(points=data_pts)
    private = fixed_private(part, [10, 20, 30, 40], [0.4, 0.3, 0.2, 0.1])
    base = np.array([0.1, 0.2, 0.3, 0.4])
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    overlap = np.minimum(base, weights).sum()
    assert overlap == pytest.approx(1 - 0.5 * np.abs(base - weights).sum(), abs=1e-15)
    total_slots = total_matches = 0
    for rng in [np.random.default_rng(s) for s in np.random.SeedSequence(17).spawn(400)]:
        pair = generate_coupled_graphs(
            data, part, zero_noise(), 25, 25, constant_kernel(0.0), rng, private=private
        )
        total_slots += pair.shared_count
        total_matches += pair.match_count
    freq = total_matches / total_slots
    assert freq == pytest.approx(overlap, abs=4 * np.sqrt(overlap * (1 - overlap) / total_slots))


def test_synthetic_size_mean_at_figure_scale():
    pts = np.zeros((1000, 1))
    pts[500:] = 1.0
    data = AttributeDataset(points=pts)
    part = build_grid_partition(SpaceConfig(d=1), 32)
    sizes = []
    for rng in [np.random.default_rng(s) for s in np.random.SeedSequence(23).spawn(200)]:
        pair = generate_coupled_graphs(
            data, part, discrete_laplace(1.0), 100.0, 100.0, chung_lu(1), rng
        )
        sizes.append(pair.synthetic_graph.n_vertices)
    assert abs(np.mean(sizes) - 100.0) < 4 * np.sqrt(100.0 / len(sizes))


def test_mechanism_rerun_vs_fixed_private():
    data, part = _cell_center_setup()
    rng = np.random.default_rng(13)
    fixed = run_private_measure(data, part, discrete_laplace(1.0), rng)
    pair = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 10, 10, constant_kernel(0.1), rng, private=fixed
    )
    assert pair.private is fixed


@st.composite
def _edge_case(draw):
    """Attributes and a matched-prefix length for the edge step."""
    d = draw(st.sampled_from([1, 2]))
    shared = draw(st.integers(0, 12))
    extra_true = draw(st.integers(0, 6))
    extra_syn = draw(st.sampled_from([0, extra_true, draw(st.integers(0, 6))]))
    z = draw(st.sampled_from([0, shared, draw(st.integers(0, shared))]))
    true_attrs = draw(hnp.arrays(np.float64, (shared + extra_true, d), elements=st.floats(0.0, 1.0)))
    syn_attrs = draw(hnp.arrays(np.float64, (shared + extra_syn, d), elements=st.floats(0.0, 1.0)))
    kernel = draw(
        st.sampled_from([chung_lu(d), constant_kernel(0.0), constant_kernel(0.4), constant_kernel(1.0),
                         inverse_distance(0.3), inverse_distance(2.0, metric="euclidean")])
    )
    return kernel, true_attrs, syn_attrs, shared, z, draw(st.integers(0, 2**32 - 1))


# 128 rows is more than any drawn side has, so every run is a single block;
# the default block size is tested at full size in the test that follows
@pytest.mark.parametrize("block", [1, 2, 7, 128])
@settings(max_examples=60, deadline=None)
@given(case=_edge_case())
def test_edges_match_draw_order_3_reference(block, case):
    # the reference takes the matched slots as a mask; under draw order 3
    # they are the first z shared slots
    kernel, true_attrs, syn_attrs, shared, z, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(generator_mod, "EDGE_BLOCK_ROWS", block)
        (adj_true, adj_syn), _ = generator_mod._coupled_edges(kernel, true_attrs, syn_attrs, z, rng)
    ref_true, ref_syn = coupled_edges_reference(kernel, true_attrs, syn_attrs, np.arange(shared) < z, ref_rng)
    assert np.array_equal(adj_true, ref_true) and np.array_equal(adj_syn, ref_syn)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kernel", [chung_lu(2), inverse_distance(0.3)])
def test_edges_at_the_default_block_size_match_the_reference(kernel):
    # past two full blocks of rows on each side, so every run has a second
    # block and a partial last one, and a matched prefix that ends mid-block
    rows = generator_mod.EDGE_BLOCK_ROWS
    n_true, n_syn, z = 2 * rows + 13, 2 * rows + 40, rows + 9
    points = np.random.default_rng(17)
    true_attrs, syn_attrs = points.random((n_true, 2)), points.random((n_syn, 2))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    (adj_true, adj_syn), _ = generator_mod._coupled_edges(kernel, true_attrs, syn_attrs, z, rng)
    ref_true, ref_syn = coupled_edges_reference(kernel, true_attrs, syn_attrs, np.arange(n_true) < z, ref_rng)
    assert np.array_equal(adj_true, ref_true) and np.array_equal(adj_syn, ref_syn)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for adj in (adj_true, adj_syn):
        assert 0 < np.count_nonzero(adj) < adj.size - len(adj)


def _assert_counts_match_graph_mode(kernel, true_attrs, syn_attrs, z, seed):
    """The counts drawn with and without the adjacencies against the
    reference ``count_edges`` of the built adjacencies from the same stream
    state, field by field, and both draws leave the stream in the same state."""
    rng = np.random.default_rng(seed)
    graph_rng = np.random.default_rng()
    graph_rng.bit_generator.state = rng.bit_generator.state
    no_adjs, counts = generator_mod._coupled_edges(kernel, true_attrs, syn_attrs, z, rng, build=False)
    adjs, graph_counts = generator_mod._coupled_edges(kernel, true_attrs, syn_attrs, z, graph_rng)
    assert no_adjs is None
    expected = count_edges(*adjs, z)
    _assert_same_counts(counts, expected)
    _assert_same_counts(graph_counts, expected)
    assert rng.bit_generator.state == graph_rng.bit_generator.state
    return expected


def _assert_same_counts(got, want):
    for name in ("row", "deg"):
        for x, y in zip(getattr(got, name), getattr(want, name), strict=True):
            assert x.dtype == y.dtype == np.int32 and np.array_equal(x, y), name
    for name in ("xor", "both"):
        assert type(getattr(got, name)) is int and getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("kernel", [chung_lu(2), constant_kernel(0.3), inverse_distance(0.4)])
def test_edge_counts_mode_matches_the_graph_mode_counts(kernel):
    # sizes on both sides of the default block of rows, unequal sides and an
    # empty one, with no, a mid-block and a full matched prefix
    rows = generator_mod.EDGE_BLOCK_ROWS
    assert rows == 64
    points = np.random.default_rng(23)
    edges = 0
    for n, m in [(63, 63), (64, 65), (65, 129), (129, 64), (65, 0), (0, 63)]:
        true_attrs, syn_attrs = points.random((n, 2)), points.random((m, 2))
        for z in sorted({0, min(n, m) // 2, min(n, m)}):
            expected = _assert_counts_match_graph_mode(kernel, true_attrs, syn_attrs, z, n * 1000 + m + z)
            edges += int(expected.deg[0].sum())
    assert edges > 0


@pytest.mark.parametrize("block", [1, 2, 7, 128])
@settings(max_examples=40, deadline=None)
@given(case=_edge_case())
def test_edge_counts_mode_matches_the_graph_mode_counts_on_drawn_cases(block, case):
    kernel, true_attrs, syn_attrs, _, z, seed = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(generator_mod, "EDGE_BLOCK_ROWS", block)
        _assert_counts_match_graph_mode(kernel, true_attrs, syn_attrs, z, seed)


def test_a_counts_only_pair_holds_the_counts_of_the_graph_mode_pair():
    # the same stream gives the same pair; only its adjacencies are missing
    data, part = _cell_center_setup()
    sizes = []

    def no_graphs(n, m):
        sizes.append((n, m))
        return False

    for seed in range(4):
        rng, graph_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        args = data, part, discrete_laplace(0.5), 25.0, 20.0, chung_lu(1)
        counted = generate_coupled_graphs(*args, rng, build_graphs=no_graphs)
        built = generate_coupled_graphs(*args, graph_rng)
        assert sizes[-1] == (built.true_graph.n_vertices, built.synthetic_graph.n_vertices)
        assert counted.shared_count == built.shared_count
        assert np.array_equal(counted.matched_cells, built.matched_cells)
        for got, want in ((counted.true_graph, built.true_graph), (counted.synthetic_graph, built.synthetic_graph)):
            assert got.n_vertices == want.n_vertices
            assert np.array_equal(got.attributes, want.attributes)
            assert np.array_equal(got.identifiers, want.identifiers)
            with pytest.raises(AttributeError, match="adjacency"):
                got.adjacency
        built_adjs = built.true_graph.adjacency, built.synthetic_graph.adjacency
        _assert_same_counts(built.edge_counts, count_edges(*built_adjs, built.match_count))
        _assert_same_counts(counted.edge_counts, built.edge_counts)
        assert rng.bit_generator.state == graph_rng.bit_generator.state


def test_generator_draws_edges_in_draw_order_3(monkeypatch):
    # the full generator hands the reference the same attributes, matched
    # prefix and stream position, and leaves the stream where it ends
    data, part = _cell_center_setup()
    seen = {}
    real = generator_mod._coupled_edges

    def recording(kernel, true_attrs, syn_attrs, z, rng, build):
        seen["state"] = rng.bit_generator.state
        seen["z"] = z
        return real(kernel, true_attrs, syn_attrs, z, rng, build)

    monkeypatch.setattr(generator_mod, "_coupled_edges", recording)
    mixed = 0  # seeds whose shared slots are partly matched, partly residual
    for seed in range(5):
        rng = np.random.default_rng(seed)
        kernel = inverse_distance(0.5) if seed % 2 else chung_lu(1)
        pair = generate_coupled_graphs(data, part, discrete_laplace(0.5), 25.0, 20.0, kernel, rng)
        z = seen["z"]
        mixed += 0 < z < pair.shared_count
        assert pair.match_count == z
        ref_rng = np.random.default_rng(seed)
        ref_rng.bit_generator.state = seen["state"]
        ref_true, ref_syn = coupled_edges_reference(
            kernel, pair.true_graph.attributes, pair.synthetic_graph.attributes,
            np.arange(pair.shared_count) < z, ref_rng,
        )
        assert np.array_equal(pair.true_graph.adjacency, ref_true)
        assert np.array_equal(pair.synthetic_graph.adjacency, ref_syn)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert mixed


def test_generator_memory_is_two_boolean_adjacencies():
    data = AttributeDataset(points=np.random.default_rng(0).random((1000, 1)))
    part = build_grid_partition(SpaceConfig(d=1), 32)
    tracemalloc.start()
    try:
        pair = generate_coupled_graphs(
            data, part, discrete_laplace(1.0), 2048.0, 2048.0, chung_lu(1), np.random.default_rng(3)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, m = pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices
    assert n > 1900 and m > 1900
    assert peak <= 2 * (n * n + m * m)


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_sizes_rejected(name, value):
    data, part = _cell_center_setup()
    sizes = {"a": 10.0, "b": 10.0, name: value}
    with pytest.raises(ValueError, match=f"expected size {name} must be finite and positive"):
        generate_coupled_graphs(
            data, part, discrete_laplace(1.0), sizes["a"], sizes["b"], chung_lu(1), np.random.default_rng(0)
        )


def _assert_as_checked(g):
    """``g`` passes every check of the ``AttributedGraph`` constructor, which
    the generator skips, and holds the arrays that constructor would make."""
    adj, n = g.adjacency, g.n_vertices
    assert adj.dtype == bool and adj.shape == (n, n)
    assert graphs_mod._is_symmetric(adj) and np.array_equal(adj, adj.T)
    assert not np.diag(adj).any()
    assert g.attributes.dtype == np.float64 and g.attributes.ndim == 2 and g.attributes.shape[0] == n
    assert g.identifiers.dtype == np.float64 and g.identifiers.shape == (n,)
    checked = AttributedGraph(g.attributes, g.identifiers, adj)
    for name in ("attributes", "identifiers", "adjacency"):
        assert getattr(checked, name).dtype == getattr(g, name).dtype
        assert np.array_equal(getattr(checked, name), getattr(g, name))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    kernel_kind=st.sampled_from(["chung_lu", "constant", "inverse_distance"]),
    a=st.floats(0.5, 40.0),
    b=st.floats(0.5, 40.0),
    m=st.sampled_from([1, 4, 9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_generated_graph_is_one_the_checked_constructor_accepts(d, kernel_kind, a, b, m, seed):
    kernel = {"chung_lu": chung_lu(d), "constant": constant_kernel(0.5), "inverse_distance": inverse_distance(0.3)}
    kernel = kernel[kernel_kind]
    rng = np.random.default_rng(seed)
    data = AttributeDataset(points=rng.random((30, d)))
    part = build_grid_partition(SpaceConfig(d=d), m)
    pair = generate_coupled_graphs(data, part, discrete_laplace(1.0), a, b, kernel, rng)
    for g in (pair.true_graph, pair.synthetic_graph):
        _assert_as_checked(g)
    support = (data.points[:3], np.full(3, 1 / 3))
    grid_ints = (np.arange(4)[:, None] % 2).repeat(d, axis=1)  # integer points become float64 attributes
    for source in (data, support, data.points, grid_ints):
        _assert_as_checked(sample_graph(source, a, kernel, rng))


def test_a_large_generated_pair_is_one_the_checked_constructor_accepts():
    data = AttributeDataset(points=np.random.default_rng(0).random((1000, 1)))
    part = build_grid_partition(SpaceConfig(d=1), 64)
    pair = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 4000.0, 4000.0, chung_lu(1), np.random.default_rng(8)
    )
    assert min(pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices) > 3800
    for g in (pair.true_graph, pair.synthetic_graph):
        _assert_as_checked(g)
