import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import tv_distance, tv_optimum_analytic, tv_project_bruteforce, tv_project_lp

from privgraph.measures import run_private_measure, true_counts, tv_project
from privgraph.noise import discrete_laplace, expected_abs
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition


def test_true_counts_examples():
    part = build_grid_partition(SpaceConfig(d=1), 2)
    data = AttributeDataset(points=np.array([[0.1], [0.2], [0.9]]))
    assert true_counts(data, part).tolist() == [2, 1]
    part4 = build_grid_partition(SpaceConfig(d=1), 4)
    assert true_counts(AttributeDataset(points=np.array([[0.1]])), part4).tolist() == [1, 0, 0, 0]


def test_true_counts_binomial_concentration():
    rng = np.random.default_rng(21)
    n, m = 10_000, 10
    part = build_grid_partition(SpaceConfig(d=1), m)
    data = AttributeDataset(points=rng.random((n, 1)))
    counts = true_counts(data, part)
    assert counts.sum() == n
    slack = 4 * np.sqrt(n * 0.1 * 0.9)
    assert np.all(np.abs(counts - n / m) < slack)


def test_tv_distance_examples():
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        w1, w2 = rng.normal(size=6), rng.normal(size=6)
        oracle = sum(abs(a - b) for a, b in zip(w1, w2))
        assert tv_distance(w1, w2) == pytest.approx(oracle, abs=1e-12)
    with pytest.raises(ValueError):
        tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


def test_tv_project_already_probability():
    proj, dist = tv_project(np.array([0.3, 0.7]))
    assert dist == 0.0
    assert np.allclose(proj, [0.3, 0.7])


def test_tv_project_clips_negative_mass():
    proj, dist = tv_project(np.array([1.2, -0.2]))
    assert np.allclose(proj, [1.0, 0.0])
    assert dist == pytest.approx(0.4, abs=1e-12)


def test_tv_project_surplus_case_with_grid_oracle():
    # dense lattice over the 2-simplex at step 1e-3, then local refinement
    w = np.array([0.5, 0.2, 0.2])
    step = 1e-3
    t1 = np.arange(0.0, 1.0 + step / 2, step)
    best = np.inf
    for a in t1:
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        c = 1.0 - a - b
        cost = np.abs(w[0] - a) + np.abs(w[1] - b) + np.abs(w[2] - c)
        best = min(best, float(cost.min()))
    assert best == pytest.approx(0.1, abs=2e-3)
    proj, dist = tv_project(w)
    assert dist == pytest.approx(0.1, abs=1e-12)
    assert dist <= best + 1e-9
    # deterministic tie-break: deficit of 0.1 added at the first coordinate
    assert np.allclose(proj, [0.6, 0.2, 0.2])


def test_tv_project_lp_matches_closed_form_and_oracles():
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        w = rng.uniform(-1.0, 2.0, size=m)
        _, d_closed = tv_project(w)
        d_lp = tv_project_lp(w)
        assert abs(d_lp - d_closed) < 1e-9
        assert abs(d_lp - tv_optimum_analytic(w)) < 1e-9
        assert abs(d_lp - tv_project_bruteforce(w)) < 1e-6


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.integers(1, 30), elements=st.floats(-2.0, 3.0)))
def test_tv_project_attains_analytic_optimum(w):
    """The closed form returns a probability vector at the optimal distance,
    and the distance it reports is the distance to that vector."""
    proj, dist = tv_project(w)
    assert dist == pytest.approx(tv_optimum_analytic(w), abs=1e-9)
    assert dist == float(np.abs(w - proj).sum())
    assert proj.min() >= 0.0 and abs(proj.sum() - 1.0) <= 1e-9


def test_tv_project_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.uniform(-1.0, 2.0, size=4)
        proj, _ = tv_project(w)
        again, dist = tv_project(proj)
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(again, proj)


def _setup(n=60, m=4, seed=0):
    rng = np.random.default_rng(seed)
    part = build_grid_partition(SpaceConfig(d=1), m)
    data = AttributeDataset(points=rng.random((n, 1)))
    return data, part


def test_mechanism_reproducible_bit_exact():
    data, part = _setup()
    r1 = run_private_measure(data, part, discrete_laplace(1.0), np.random.default_rng(77))
    r2 = run_private_measure(data, part, discrete_laplace(1.0), np.random.default_rng(77))
    assert np.array_equal(r1.representatives, r2.representatives)
    assert np.array_equal(r1.noise_draws, r2.noise_draws)
    assert np.array_equal(r1.private_weights, r2.private_weights)


def test_mechanism_representatives_fresh_and_in_cells():
    data, part = _setup()
    rng = np.random.default_rng(3)
    r1 = run_private_measure(data, part, discrete_laplace(1.0), rng)
    r2 = run_private_measure(data, part, discrete_laplace(1.0), rng)
    assert not np.array_equal(r1.representatives, r2.representatives)
    assert np.all(r1.representatives >= part.lows)
    assert np.all(r1.representatives <= part.highs)


def test_mechanism_representatives_are_the_cell_corners_plus_uniform_offsets():
    part = build_grid_partition(SpaceConfig(d=2), 49)
    data = AttributeDataset(points=np.random.default_rng(6).random((300, 2)))
    rng = np.random.default_rng(19)
    clone = np.random.default_rng()
    clone.bit_generator.state = rng.bit_generator.state
    res = run_private_measure(data, part, discrete_laplace(1.0), rng)
    u = clone.random((part.m, part.d))
    np.testing.assert_array_equal(res.representatives, part.lows + u * (part.highs - part.lows))


def test_mechanism_mean_tv_error_bounded():
    data, part = _setup(n=200, m=8)
    noise = discrete_laplace(1.0)
    budget = 2 * (part.m / data.n) * expected_abs(noise)
    rng = np.random.default_rng(11)
    dists = []
    for _ in range(200):
        res = run_private_measure(data, part, noise, rng)
        assert res.private_weights.min() >= 0.0 and abs(res.private_weights.sum() - 1.0) <= 1e-9
        dists.append(np.abs(res.counts / data.n - res.private_weights).sum())
    assert np.mean(dists) <= budget


def test_result_serialization_redaction():
    data, part = _setup()
    res = run_private_measure(data, part, discrete_laplace(0.5), np.random.default_rng(4))
    full = res.to_dict()
    assert "counts" in full and "noise_draws" in full
    red = res.to_dict(private_only=True)
    assert set(red) == {"representatives", "private_weights", "tv_residual"}
    json.dumps(red)  # serializable
