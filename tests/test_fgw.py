import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import brute_force_cost, fixed_private, sample_graph, wasserstein_uniform_exact

import privgraph.generator as generator_mod
from privgraph.fgw import (
    FgwParams,
    evaluate_pair,
    exact_small_search,
    fgw_cost,
    fgw_to_reference,
    fgw_upper_bound,
    graph_to_measure,
    ipm_lower_bound,
    matched_plan_cost,
    mc_expected_fgw,
    plan_cost_exact,
    plan_coupling,
    reference_graphs,
    spawn_streams,
    validate_coupling,
    worst_pair_cost,
)
from privgraph.generator import generate_coupled_graphs
from privgraph.graphs import AttributedGraph, chung_lu, constant_kernel, inverse_distance
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition


def _graph(attrs, edges, ids=None):
    attrs = np.atleast_2d(np.asarray(attrs, dtype=float))
    n = attrs.shape[0]
    if attrs.shape[1] == 0:
        attrs = attrs.reshape(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    ids = np.linspace(0.1, 0.9, n) if ids is None else np.asarray(ids, float)
    return AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)


def _random_graph(rng, n, d=1, edge_p=0.5):
    attrs = rng.random((n, d))
    adj = np.triu(rng.random((n, n)) < edge_p, 1)
    return _graph(attrs, list(zip(*np.nonzero(adj))) if adj.any() else [])


def _product_coupling(a, b):
    return np.outer(graph_to_measure(a), graph_to_measure(b))


def test_graph_to_measure_examples():
    assert graph_to_measure(_graph([[0.5]], [])).tolist() == [1.0]
    assert graph_to_measure(_graph([[0.2], [0.8]], [(0, 1)])).tolist() == [0.5, 0.5]
    triangle_and_one = _graph([[0.1], [0.2], [0.3], [0.4]], [(0, 1), (0, 2), (1, 2)])
    assert graph_to_measure(triangle_and_one).tolist() == [0.25] * 4


def test_fgw_cost_identical_single_vertex():
    params = FgwParams(alpha=0.5)
    a = _graph([[0.4]], [])
    assert fgw_cost(np.array([[1.0]]), a, a, params) == 0.0


def test_fgw_cost_two_singletons():
    params = FgwParams(alpha=0.5)
    a = _graph([[0.0]], [])
    b = _graph([[1.0]], [])
    assert fgw_cost(np.array([[1.0]]), a, b, params) == pytest.approx(0.5)


def test_fgw_cost_refuses_a_coupling_that_is_not_finite():
    # every comparison with NaN is False, so no marginal check alone refuses it
    params = FgwParams(alpha=0.5)
    g = _graph([[0.2], [0.8]], [(0, 1)])
    for bad in (np.full((2, 2), np.nan), np.array([[np.inf, 0.5], [0.5, -np.inf]])):
        with pytest.raises(ValueError, match="non-finite mass"):
            fgw_cost(bad, g, g, params)
        with pytest.raises(ValueError, match="non-finite mass"):
            fgw_upper_bound(g, g, params, init=bad)


def test_fgw_cost_constant_over_polytope():
    # same attrs, one side has the edge: structural cost is marginal-determined
    params = FgwParams(alpha=1.0, C=1.0)
    a = _graph([[0.3], [0.7]], [(0, 1)])
    b = _graph([[0.3], [0.7]], [])
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = rng.random() * 0.5
        pi = np.array([[t, 0.5 - t], [0.5 - t, t]])
        assert fgw_cost(pi, a, b, params) == pytest.approx(0.5, abs=1e-12)


def test_fgw_cost_matches_brute_force():
    rng = np.random.default_rng(1)
    params = FgwParams(alpha=0.6, C=1.0)
    for _ in range(10):
        a = _random_graph(rng, int(rng.integers(1, 4)))
        b = _random_graph(rng, int(rng.integers(1, 4)))
        pi = _product_coupling(a, b)
        assert fgw_cost(pi, a, b, params) == pytest.approx(
            brute_force_cost(pi, a, b, params), abs=1e-10
        )


def test_exact_small_identity_and_symmetry():
    rng = np.random.default_rng(3)
    params = FgwParams(alpha=0.5)
    for _ in range(5):
        a = _random_graph(rng, int(rng.integers(1, 5)))
        assert exact_small_search(a, a, params)[0] == pytest.approx(0.0, abs=1e-9)
        b = _random_graph(rng, int(rng.integers(1, 5)))
        ab = exact_small_search(a, b, params)[0]
        ba = exact_small_search(b, a, params)[0]
        assert ab == pytest.approx(ba, abs=1e-6)


def test_exact_small_constant_instance():
    params = FgwParams(alpha=1.0, C=1.0)
    a = _graph([[0.3], [0.7]], [(0, 1)])
    b = _graph([[0.3], [0.7]], [])
    assert exact_small_search(a, b, params)[0] == pytest.approx(0.5, abs=1e-9)


def test_exact_small_alpha0_equals_wasserstein():
    rng = np.random.default_rng(4)
    params = FgwParams(alpha=0.0)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        a = _random_graph(rng, n)
        b = _random_graph(rng, n)
        oracle = wasserstein_uniform_exact(a.attributes, b.attributes)
        assert exact_small_search(a, b, params)[0] == pytest.approx(oracle, abs=1e-6)


def test_exact_small_size_cap():
    rng = np.random.default_rng(5)
    params = FgwParams()
    big = _random_graph(rng, 5)
    with pytest.raises(ValueError):
        exact_small_search(big, big, params)


def test_upper_bound_from_optimal_start_stays_optimal():
    params = FgwParams(alpha=0.0)
    a = _graph([[0.0], [1.0]], [])
    b = _graph([[0.0], [1.0]], [])
    ident = np.diag([0.5, 0.5])
    val, _ = fgw_upper_bound(a, b, params, init=ident, iterations=20)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_upper_bound_monotone_per_iteration():
    rng = np.random.default_rng(6)
    params = FgwParams(alpha=0.5)
    for _ in range(200):
        a = _random_graph(rng, int(rng.integers(2, 5)))
        b = _random_graph(rng, int(rng.integers(2, 5)))
        pi = _product_coupling(a, b)
        prev = fgw_cost(pi, a, b, params)
        for _step in range(4):
            val, pi = fgw_upper_bound(a, b, params, init=pi, iterations=1)
            assert val <= prev + 1e-12
            prev = val


def test_upper_bound_sandwich_vs_exact():
    rng = np.random.default_rng(7)
    params = FgwParams(alpha=0.5)
    for _ in range(15):
        a = _random_graph(rng, 4)
        b = _random_graph(rng, 4)
        init = _product_coupling(a, b)
        init_cost = fgw_cost(init, a, b, params)
        val, _ = fgw_upper_bound(a, b, params, init=init, iterations=50)
        exact = exact_small_search(a, b, params)[0]
        assert exact - 1e-9 <= val <= init_cost + 1e-12


def test_matched_plan_zero_when_data_sit_on_representatives():
    part = build_grid_partition(SpaceConfig(d=1), 2)
    reps = np.array([[0.25], [0.75]])
    data = AttributeDataset(points=np.repeat(reps, 10, axis=0))
    private = fixed_private(part, [10, 10], [0.5, 0.5], reps)
    params = FgwParams(alpha=0.5)
    rng = np.random.default_rng(8)
    pair = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 20, 20, chung_lu(1), rng, private=private
    )
    assert matched_plan_cost(pair, params) == pytest.approx(0.0, abs=1e-12)


def test_matched_plan_worst_case_when_no_matches():
    part = build_grid_partition(SpaceConfig(d=1), 2)
    reps = np.array([[0.25], [0.75]])
    data = AttributeDataset(points=np.full((10, 1), 0.25))
    private = fixed_private(part, [10, 0], [0.0, 1.0], reps)
    params = FgwParams(alpha=0.5, C=1.0)
    rng = np.random.default_rng(9)
    pair = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 10, 10, chung_lu(1), rng, private=private
    )
    assert pair.match_count == 0
    worst = worst_pair_cost(params, 1.0, pair.kernel.lipschitz_constant)
    assert matched_plan_cost(pair, params) == pytest.approx(worst)
    assert worst == pytest.approx(0.5 * 1.0 + 0.5 * min(1.0, 2.0))


def test_plan_dominance_chain_on_small_pairs():
    rng_master = np.random.default_rng(10)
    part = build_grid_partition(SpaceConfig(d=1), 2)
    data = AttributeDataset(points=rng_master.random((12, 1)))
    params = FgwParams(alpha=0.5)
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        pair = generate_coupled_graphs(
            data, part, discrete_laplace(1.0), 3, 3, chung_lu(1), rng
        )
        nt, ns = pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices
        if not (1 <= nt <= 4 and 1 <= ns <= 4):
            continue
        charge = matched_plan_cost(pair, params)
        a, b, pi = pair.true_graph, pair.synthetic_graph, plan_coupling(pair)
        plan_cost = fgw_cost(pi, a, b, params)
        refined, _ = fgw_upper_bound(a, b, params, init=pi, iterations=50)
        exact = exact_small_search(a, b, params)[0]
        assert charge >= plan_cost - 1e-9
        assert plan_cost >= refined - 1e-12
        assert refined >= exact - 1e-9
        checked += 1
    assert checked >= 10


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    metric=st.sampled_from(["sup", "euclidean"]),
    scale_frac=st.one_of(st.none(), st.floats(0.02, 1.0)),  # None: Chung-Lu
    alpha=st.floats(0.0, 1.0),
    cap=st.floats(0.1, 5.0),
    eps=st.floats(0.1, 3.0),
    a=st.floats(1.0, 70.0),
    b=st.floats(1.0, 70.0),
    m=st.sampled_from([1, 4, 9]),
    refine_iters=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_dominance_chain_on_generated_pairs(d, metric, scale_frac, alpha, cap, eps, a, b, m, refine_iters, seed):
    # plan value <= the matched plan's exact cost <= its charge, for kernels with
    # 2*L*diam >= 1: Chung-Lu (L = d) and inverse distance of scale <= 2*diam.
    # The constant kernel (L = 0) is left out, since the charge does not cover it.
    part = build_grid_partition(SpaceConfig(d=d, metric=metric), m)
    diam = part.space.diameter
    kernel = chung_lu(d) if scale_frac is None else inverse_distance(scale_frac * 2.0 * diam, metric=metric)
    assert 2.0 * kernel.lipschitz_constant * diam >= 1.0 - 1e-12
    rng = np.random.default_rng(seed)
    data = AttributeDataset(points=rng.random((40, d)))
    pair = generate_coupled_graphs(data, part, discrete_laplace(eps), a, b, kernel, rng)
    params = FgwParams(alpha=alpha, C=cap, metric=metric)
    value = evaluate_pair(pair, params, refine_iters)[1]
    exact = plan_cost_exact(pair, params)
    assert value <= exact + 1e-9
    assert exact <= matched_plan_cost(pair, params) + 1e-9


def test_plan_cost_exact_matches_dense_evaluation():
    rng = np.random.default_rng(14)
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data = AttributeDataset(points=rng.random((40, 1)))
    params = FgwParams(alpha=0.5)
    for seed in range(8):
        pair = generate_coupled_graphs(
            data, part, discrete_laplace(1.0), 12, 9, chung_lu(1), np.random.default_rng(seed)
        )
        dense = fgw_cost(plan_coupling(pair), pair.true_graph, pair.synthetic_graph, params)
        sparse = plan_cost_exact(pair, params)
        assert sparse == pytest.approx(dense, abs=1e-10)


def test_plan_coupling_is_feasible():
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data = AttributeDataset(points=np.random.default_rng(0).random((40, 1)))
    pair = generate_coupled_graphs(
        data, part, discrete_laplace(1.0), 25, 15, chung_lu(1), np.random.default_rng(11)
    )
    pi = plan_coupling(pair)
    assert np.allclose(pi.sum(axis=1), graph_to_measure(pair.true_graph), atol=1e-12)
    assert np.allclose(pi.sum(axis=0), graph_to_measure(pair.synthetic_graph), atol=1e-12)
    assert pi.min() >= 0


def test_mc_degenerate_config_is_zero(monkeypatch):
    part = build_grid_partition(SpaceConfig(d=1), 1)
    reps = np.array([[0.5]])
    data = AttributeDataset(points=np.array([[0.5]]))
    private = fixed_private(part, [1], [1.0], reps)
    # every replicate's mechanism returns this fixed measure, whose one
    # representative sits on the one data point
    monkeypatch.setattr(generator_mod, "run_private_measure", lambda *args: private)
    res = mc_expected_fgw(
        data,
        part,
        discrete_laplace(1.0),
        10,
        10,
        constant_kernel(0.0),
        FgwParams(alpha=0.5),
        replicates=20,
        seed=0,
    )
    assert res.mean == 0.0 and res.stderr == 0.0
    assert res.plan_mean == 0.0


def test_mc_deterministic_given_seed():
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data = AttributeDataset(points=np.random.default_rng(1).random((30, 1)))
    kw = dict(
        noise=discrete_laplace(1.0),
        a=8.0,
        b=8.0,
        kernel=chung_lu(1),
        params=FgwParams(),
        replicates=10,
        seed=99,
    )
    r1 = mc_expected_fgw(data, part, **kw)
    r2 = mc_expected_fgw(data, part, **kw)
    assert r1.mean == r2.mean and r1.stderr == r2.stderr
    assert np.array_equal(r1.values, r2.values)


def test_mc_small_config_below_grid_bound():
    from privgraph.bounds import BoundInputs, expected_fgw_bound_grid

    rng = np.random.default_rng(2)
    n, m = 200, 8
    part = build_grid_partition(SpaceConfig(d=1), m)
    data = AttributeDataset(points=rng.random((n, 1)))
    eps = 1.0
    res = mc_expected_fgw(
        data,
        part,
        discrete_laplace(eps),
        float(m * m),
        float(m * m),
        chung_lu(1),
        FgwParams(alpha=0.5),
        replicates=120,
        seed=3,
    )
    inp = BoundInputs(a=float(m * m), b=float(m * m), n=n, m=m, eps=eps, d=1)
    bound = expected_fgw_bound_grid(inp).total
    assert res.plan_mean <= bound + 3 * res.plan_stderr
    assert res.mean <= res.plan_mean + 3 * (res.stderr + res.plan_stderr)


def test_reference_graphs_and_exact_singleton_values():
    refs = reference_graphs(d=1)
    assert len(refs) >= 5
    params = FgwParams(alpha=0.5)
    sample = _graph([[1.0]], [])
    ref0 = _graph([[0.0]], [])
    assert fgw_to_reference(ref0, sample, params) == pytest.approx(0.5)
    # exact singleton evaluation equals the small oracle
    rng = np.random.default_rng(12)
    g = _graph(rng.random((3, 1)), [(0, 1)])
    direct = fgw_to_reference(ref0, g, params)
    oracle = exact_small_search(ref0, g, params)[0]
    assert direct == pytest.approx(oracle, abs=1e-9)


@st.composite
def _small_graphs(draw, d, max_n=6):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # attributes from a few values make the transport steps meet ties
    attrs = rng.integers(0, 3, size=(n, d)) / 2 if draw(st.booleans()) else rng.random((n, d))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1)
    return AttributedGraph(attributes=attrs, identifiers=rng.random(n), adjacency=upper | upper.T)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2).flatmap(lambda d: st.tuples(_small_graphs(d), _small_graphs(d))),
    st.floats(0.0, 1.0),
    st.floats(0.1, 3.0),
    st.sampled_from(["sup", "euclidean"]),
)
def test_solver_matches_the_quartic_oracle(graphs, alpha, cap, metric):
    """The one conditional-gradient loop against the literal quadruple sum:
    each value is the cost of the coupling returned with it, the coupling is
    feasible, and more steps never raise the value."""
    a, b = graphs
    params = FgwParams(alpha=alpha, C=cap, metric=metric)
    prev = np.inf
    for iterations in range(5):
        value, pi = fgw_upper_bound(a, b, params, iterations=iterations)
        assert abs(value - brute_force_cost(pi, a, b, params)) <= 1e-12
        validate_coupling(pi, a, b)
        assert value <= prev
        prev = value
        if a.n_vertices > 1:
            assert fgw_to_reference(a, b, params, iterations) == value


@settings(max_examples=40, deadline=None)
@given(_small_graphs(1, max_n=4), _small_graphs(1, max_n=4), st.floats(0.0, 1.0), st.floats(0.1, 3.0))
def test_exact_search_returns_a_coupling_that_achieves_its_value(a, b, alpha, cap):
    """The coupling comes from the best start, transposed back when the
    search swapped its arguments into canonical order."""
    params = FgwParams(alpha=alpha, C=cap)
    (value_ab, pi_ab), (value_ba, pi_ba) = exact_small_search(a, b, params), exact_small_search(b, a, params)
    assert value_ab == value_ba  # the canonical argument order makes the value symmetric bit for bit
    assert abs(fgw_cost(pi_ab, a, b, params) - value_ab) <= 1e-9
    assert abs(fgw_cost(pi_ba, b, a, params) - value_ba) <= 1e-9


def test_reference_scoring_makes_no_float_copy_of_the_sample():
    rng = np.random.default_rng(21)
    g = sample_graph(rng.random((200, 1)), 2000, chung_lu(1), rng)
    n = g.n_vertices
    for ref in reference_graphs(1)[-2:]:
        tracemalloc.start()
        try:
            fgw_to_reference(ref, g, FgwParams(), refine_iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a quarter of one N x N float64 array
        assert peak < 2 * n * n


def test_ipm_lower_bound_examples():
    params = FgwParams(alpha=0.5)
    zeros = [_graph([[0.0]], []) for _ in range(5)]
    ones = [_graph([[1.0]], []) for _ in range(5)]
    refs = [_graph([[0.0]], [])]
    assert ipm_lower_bound(zeros, zeros, refs, params) == 0.0
    assert ipm_lower_bound(zeros, ones, refs, params) == pytest.approx(0.5)


def test_ipm_below_expected_distance_on_generator_samples():
    rng = np.random.default_rng(13)
    part = build_grid_partition(SpaceConfig(d=1), 4)
    data = AttributeDataset(points=rng.random((100, 1)))
    params = FgwParams(alpha=0.5)
    kern = chung_lu(1)
    noise = discrete_laplace(1.0)
    trues, syns = [], []
    for stream in spawn_streams(5, 60):
        pair = generate_coupled_graphs(data, part, noise, 16.0, 16.0, kern, stream)
        trues.append(pair.true_graph)
        syns.append(pair.synthetic_graph)
    worst = worst_pair_cost(params, 1.0, kern.lipschitz_constant)
    ipm = ipm_lower_bound(trues, syns, reference_graphs(1), params, empty_value=worst)
    res = mc_expected_fgw(
        data, part, noise, 16.0, 16.0, kern, params, replicates=60, seed=5
    )
    assert ipm <= res.mean + 3 * res.stderr


def test_wasserstein_oracle_basics():
    assert wasserstein_uniform_exact(np.array([[0.0]]), np.array([[1.0]])) == pytest.approx(1.0)
    pts = np.array([[0.0], [1.0]])
    assert wasserstein_uniform_exact(pts, pts) == pytest.approx(0.0)
    # unequal sizes via the transport LP: {0} vs {0, 1} uniform
    val = wasserstein_uniform_exact(np.array([[0.0]]), pts)
    assert val == pytest.approx(0.5)
