"""The dataset's per-partition cell binning and its cache."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import bins_reference, cell_indices_reference

import privgraph.space as space_mod
from privgraph.fgw import FgwParams, mc_expected_fgw
from privgraph.graphs import chung_lu
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition, cell_indices


@st.composite
def _dataset_and_partition(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, 7 if d < 3 else 4))
    n = draw(st.integers(1, 60))
    pts = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(0.0, 1.0)))
    return pts, build_grid_partition(SpaceConfig(d=d), k**d)


@settings(max_examples=150, deadline=None)
@given(_dataset_and_partition())
def test_bins_match_fresh_binning(case):
    pts, part = case
    ds = AttributeDataset(points=pts)
    bins = ds.bins(part)
    for got, want in zip(bins, bins_reference(part, pts)):
        np.testing.assert_array_equal(got, want)
    assert ds.bins(part) is bins


def _points_with_edges(d, k, n, seed):
    """Uniform points, every edge i/k on each axis, and the corners at 0.0 and 1.0."""
    pts = np.random.default_rng(seed).random((n, d))
    edges = np.arange(k + 1) / k
    pts[: k + 1] = edges[:, None]
    pts[k + 1 : 2 * (k + 1), 0] = edges[::-1]
    pts[-2], pts[-1] = 0.0, 1.0
    return pts


@pytest.mark.parametrize(
    "d, m, dtype",
    [(1, 255, np.uint8), (1, 256, np.uint8), (1, 257, np.uint16), (1, 65_535, np.uint16),
     (1, 65_536, np.uint16), (1, 65_537, np.uint32), (2, 256, np.uint8), (2, 289, np.uint16),
     (2, 4489, np.uint16)],
)
def test_bins_and_cell_indices_match_the_int64_oracle(d, m, dtype):
    part = build_grid_partition(SpaceConfig(d=d), m)
    assert part.m == m
    pts = _points_with_edges(d, part.k_per_axis, max(5_000, 3 * (part.k_per_axis + 1)), seed=m)
    keys = cell_indices(part, pts)
    assert keys.dtype == dtype == np.min_scalar_type(m - 1)
    np.testing.assert_array_equal(keys, cell_indices_reference(part, pts))
    for got, want in zip(AttributeDataset(points=pts).bins(part), bins_reference(part, pts)):
        np.testing.assert_array_equal(got, want)


def test_first_binning_peak_memory_per_point():
    n, part = 100_000, build_grid_partition(SpaceConfig(d=2), 4489)
    ds = AttributeDataset(points=np.random.default_rng(8).random((n, 2)))
    tracemalloc.start()
    try:
        ds.bins(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n


def test_one_dataset_two_partitions():
    pts = np.random.default_rng(5).random((300, 2))
    ds = AttributeDataset(points=pts)
    coarse = build_grid_partition(SpaceConfig(d=2), 4)
    fine = build_grid_partition(SpaceConfig(d=2, metric="euclidean"), 25)
    got_coarse, got_fine = ds.bins(coarse), ds.bins(fine)
    assert got_coarse[0].size == 4 and got_fine[0].size == 25
    for part, got in ((coarse, got_coarse), (fine, got_fine)):
        for g, want in zip(got, bins_reference(part, pts)):
            np.testing.assert_array_equal(g, want)
    # the grid alone decides the binning; the metric does not
    assert ds.bins(build_grid_partition(SpaceConfig(d=2, metric="euclidean"), 4)) is got_coarse


def test_points_are_an_owned_read_only_copy():
    original = np.array([[0.1, 0.2], [0.7, 0.9]])
    ds = AttributeDataset(points=original)
    assert not ds.points.flags.writeable
    with pytest.raises(ValueError):
        ds.points[0, 0] = 0.5
    original[0, 0] = 0.99
    assert ds.points[0, 0] == 0.1
    bins = ds.bins(build_grid_partition(SpaceConfig(d=2), 4))
    assert not any(arr.flags.writeable for arr in bins)


def test_mc_bins_the_dataset_once(monkeypatch):
    calls = []

    def counting(partition, x):
        calls.append(np.shape(x))
        return cell_indices(partition, x)

    monkeypatch.setattr(space_mod, "cell_indices", counting)
    data = AttributeDataset(points=np.random.default_rng(2).random((500, 1)))
    part = build_grid_partition(SpaceConfig(d=1), 8)
    mc_expected_fgw(
        data, part, discrete_laplace(1.0), 6.0, 6.0, chung_lu(1),
        FgwParams(alpha=0.5, C=1.0), replicates=10, seed=9, refine_iters=0,
    )
    assert calls == [(500, 1)]


def test_concurrent_first_use_shares_one_binning():
    part = build_grid_partition(SpaceConfig(d=2), 49)
    workers = 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            ds = AttributeDataset(points=np.random.default_rng(seed).random((20_000, 2)))
            barrier = threading.Barrier(workers)
            results = [None] * workers

            def work(i):
                barrier.wait(timeout=10)
                results[i] = ds.bins(part)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(r is results[0] for r in results)
            assert ds.bins(part) is results[0]
            for got, want in zip(results[0], bins_reference(part, ds.points)):
                np.testing.assert_array_equal(got, want)
    finally:
        sys.setswitchinterval(old)


def test_mc_expected_fgw_golden():
    # Pinned under draw order 3 (matched vertices first, one uniform per
    # vertex pair); any change to the replicate streams shows up here. The tolerance only absorbs
    # summation-order differences between BLAS builds.
    data = AttributeDataset(points=np.random.default_rng(3).random((80, 2)))
    part = build_grid_partition(SpaceConfig(d=2), 9)
    res = mc_expected_fgw(
        data, part, discrete_laplace(1.0), 6.0, 5.0, chung_lu(2),
        FgwParams(alpha=0.5, C=1.0), replicates=6, seed=2024,
    )
    np.testing.assert_allclose(
        res.values,
        [0.19021046502243824, 0.11565215121284639, 0.22013377214612218,
         0.15635921267437927, 0.12253926580233904, 0.09856179400493428],
        rtol=1e-9, atol=0,
    )
    np.testing.assert_allclose(
        res.plan_charges,
        [0.1902104650224382, 0.4606170623129073, 0.5210031851969054,
         0.5397638682726589, 0.40377570029743537, 0.5151557398939179],
        rtol=1e-9, atol=0,
    )
