"""Test-only reference implementations, written for clarity rather than speed."""

import itertools

import numpy as np
from scipy.optimize import linprog

from privgraph.graphs import kernel_matrix
from privgraph.space import pairwise_distances


def coupled_edges_reference(kernel, true_attrs, syn_attrs, is_match, rng):
    """Draw order 2, one pair and one ``rng.random()`` call at a time.

    Shared slot s is vertex s of both graphs. The runs, each over pairs
    i < j in row-major order: matched x matched pairs (one uniform decides
    the edge in both graphs), then the other true-graph pairs, then the
    other synthetic-graph pairs.
    """
    probs_true = kernel_matrix(kernel, true_attrs, true_attrs)
    probs_syn = kernel_matrix(kernel, syn_attrs, syn_attrs)
    adj_true = np.zeros(probs_true.shape, dtype=bool)
    adj_syn = np.zeros(probs_syn.shape, dtype=bool)
    matched = [int(s) for s in np.flatnonzero(is_match)]
    for a, i in enumerate(matched):
        for j in matched[a + 1 :]:
            u = rng.random()
            adj_true[i, j] = adj_true[j, i] = u < probs_true[i, j]
            adj_syn[i, j] = adj_syn[j, i] = u < probs_syn[i, j]
    matched = set(matched)
    for adj, probs in ((adj_true, probs_true), (adj_syn, probs_syn)):
        n = probs.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if i in matched and j in matched:
                    continue
                adj[i, j] = adj[j, i] = rng.random() < probs[i, j]
    return adj_true, adj_syn


def wasserstein_uniform_exact(xs, ys, metric="sup"):
    """1-Wasserstein distance between uniform point clouds, independent of
    the package's transport solvers: equal sizes take the cheapest of all
    permutations, unequal sizes the transport LP with a dense equality
    matrix."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    d = pairwise_distances(xs, ys, metric=metric)
    n, m = d.shape
    if n == m:
        return min(float(d[np.arange(n), list(perm)].sum()) for perm in itertools.permutations(range(n))) / n
    res = dense_transport_lp(d, np.full(n, 1.0 / n), np.full(m, 1.0 / m))
    assert res.success, res.message
    return float(res.fun)


def dense_transport_lp(cost, wa, wb):
    """The transport LP (row sums wa, column sums wb) in HiGHS, with a dense
    equality matrix; returns scipy's ``OptimizeResult``."""
    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    return linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([wa, wb]), bounds=(0, None), method="highs")
