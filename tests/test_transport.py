"""The conditional-gradient transport step against a dense-matrix LP.

``transport_vertex`` solves equal-size uniform problems as an assignment
(scipy's compiled solver, loaded without importing ``scipy.optimize``),
two-row and two-column problems by a sorted fill, forced one-row and
one-column couplings directly, and everything else in HiGHS. Each path must
return a feasible vertex whose objective equals the dense LP optimum, also
when ties leave several optimal vertices.
"""

from importlib.machinery import ModuleSpec, SourceFileLoader

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from oracles import dense_transport_lp
from scipy.optimize import linear_sum_assignment

import privgraph.fgw as fgw_mod
from privgraph.fgw import FgwParams, fgw_cost, fgw_upper_bound, plan_coupling, transport_vertex
from privgraph.generator import generate_coupled_graphs
from privgraph.graphs import chung_lu, constant_kernel
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition


def _weights(rng, n, uniform):
    return np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))


def _cost(rng, n, m, ties):
    if not ties:
        return rng.standard_normal((n, m))
    # small integer costs with duplicated columns: many optimal vertices
    base = rng.integers(0, 3, size=(n, max(1, m // 2))).astype(float)
    return base[:, rng.integers(0, base.shape[1], size=m)]


def _check_vertex(cost, wa, wb):
    pi = transport_vertex(cost, wa, wb)
    assert pi.shape == cost.shape
    assert pi.min() >= 0.0
    np.testing.assert_allclose(pi.sum(axis=1), wa, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pi.sum(axis=0), wb, rtol=0, atol=1e-12)
    scale = max(1.0, float(np.abs(cost).max()))
    dense = dense_transport_lp(cost, wa, wb)
    assert dense.success
    assert abs(float(np.sum(cost * pi)) - dense.fun) <= 1e-12 * scale
    return pi


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_transport_vertex_is_feasible_and_optimal(n, m, square, uniform, ties, seed):
    rng = np.random.default_rng(seed)
    m = n if square else m
    wa, wb = _weights(rng, n, uniform), _weights(rng, m, uniform)
    pi = _check_vertex(_cost(rng, n, m, ties), wa, wb)
    if n == m and uniform and n > 1:  # the assignment path
        assert np.all(np.count_nonzero(pi, axis=0) == 1) and np.all(np.count_nonzero(pi, axis=1) == 1)
        assert set(pi[pi > 0].tolist()) == {1.0 / n}
    elif min(n, m) == 2:  # the sorted fill
        assert np.count_nonzero(pi) <= n + m - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_two_vertex_sides_with_dirichlet_weights(k, two_rows, ties, seed):
    rng = np.random.default_rng(seed)
    n, m = (2, k) if two_rows else (k, 2)
    cost = _cost(rng, n, m, ties)
    pi = _check_vertex(cost, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
    assert np.count_nonzero(pi) <= n + m - 1
    pi = _check_vertex(cost[:2, :2], rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
    assert np.count_nonzero(pi) <= 3


def test_only_unequal_or_nonuniform_wide_shapes_reach_highs(monkeypatch):
    calls = []
    real = fgw_mod._transport_vertex_highs
    monkeypatch.setattr(fgw_mod, "_transport_vertex_highs", lambda *args: calls.append(args) or real(*args))
    rng = np.random.default_rng(0)
    for n, m, uniform in [(1, 5, False), (5, 1, True), (2, 6, False), (6, 2, True), (2, 2, False), (6, 6, True)]:
        _check_vertex(rng.standard_normal((n, m)), _weights(rng, n, uniform), _weights(rng, m, uniform))
    assert not calls
    for n, m, uniform in [(3, 4, True), (4, 4, False)]:
        _check_vertex(rng.standard_normal((n, m)), _weights(rng, n, uniform), _weights(rng, m, uniform))
    assert len(calls) == 2


@pytest.mark.parametrize("ties", [False, True])
def test_assignment_solver_matches_scipy_optimize(ties):
    solver = fgw_mod._assignment_solver()
    assert fgw_mod._assignment_solver() is solver  # loaded once
    rng = np.random.default_rng(7)
    for n in range(1, 65):
        cost = _cost(rng, n, n, ties)
        rows, cols = solver(cost)
        expected = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, expected[0])
        np.testing.assert_array_equal(cols, expected[1])


@pytest.fixture
def fresh_solver():
    fgw_mod._assignment_solver.cache_clear()
    yield
    fgw_mod._assignment_solver.cache_clear()


@pytest.mark.parametrize("found", [None, "source"])
def test_assignment_falls_back_to_scipy_optimize_without_the_extension(monkeypatch, fresh_solver, found):
    rng = np.random.default_rng(11)
    w = np.full(9, 1.0 / 9)
    costs = [_cost(rng, 9, 9, ties) for ties in (False, True)]
    expected = [transport_vertex(cost, w, w) for cost in costs]
    fgw_mod._assignment_solver.cache_clear()
    lookups = []

    class NoExtension:
        @staticmethod
        def find_spec(name, path):
            lookups.append(name)
            if found is None:
                return None
            return ModuleSpec(name, SourceFileLoader(name, "_lsap.py"))

    monkeypatch.setattr(fgw_mod, "PathFinder", NoExtension)
    calls = []
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", lambda c: calls.append(c) or linear_sum_assignment(c))
    for cost, pi in zip(costs, expected):
        np.testing.assert_array_equal(transport_vertex(cost, w, w), pi)
    assert lookups == ["scipy.optimize._lsap"]
    assert len(calls) == 2  # both solved through scipy.optimize's name


def test_two_row_fill_breaks_ties_in_column_order():
    cost = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    pi = transport_vertex(cost, np.array([0.5, 0.5]), np.full(3, 1.0 / 3))
    np.testing.assert_allclose(pi, [[1 / 6, 0.0, 1 / 3], [1 / 6, 1 / 3, 0.0]], rtol=0, atol=1e-16)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.floats(2.0, 14.0),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_refinement_is_monotone_from_the_matched_plan(d, ab, alpha, constant, seed):
    rng = np.random.default_rng(seed)
    part = build_grid_partition(SpaceConfig(d=d), 3)
    data = AttributeDataset(points=rng.random((30, d)))
    kernel = constant_kernel(0.4) if constant else chung_lu(d)
    pair = generate_coupled_graphs(data, part, discrete_laplace(1.0), ab, ab, kernel, rng)
    if not (pair.true_graph.n_vertices and pair.synthetic_graph.n_vertices):
        return
    params = FgwParams(alpha=alpha)
    a, b, pi = pair.true_graph, pair.synthetic_graph, plan_coupling(pair)
    previous = fgw_cost(pi, a, b, params)
    for iterations in range(1, 5):
        value, plan = fgw_upper_bound(a, b, params, init=pi, iterations=iterations)
        assert value <= previous
        assert value == pytest.approx(fgw_cost(plan, a, b, params), abs=1e-12)
        previous = value
