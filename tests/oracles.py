"""Test-only reference implementations, written for clarity rather than speed."""

import numpy as np

from privgraph.graphs import kernel_matrix


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
