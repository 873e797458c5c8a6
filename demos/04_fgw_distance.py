"""Fused Gromov-Wasserstein basics: exact small instances, the local solver,
and the matched-plan upper bound on a generated pair."""

import numpy as np

from privgraph.fgw import FgwParams, exact_small_search, fgw_upper_bound, matched_plan_cost, plan_coupling
from privgraph.generator import generate_coupled_graphs
from privgraph.graphs import AttributedGraph, chung_lu
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition

params = FgwParams(alpha=0.5, C=1.0)


def tiny(attrs, edges):
    attrs = np.atleast_2d(np.asarray(attrs, float))
    n = attrs.shape[0]
    adj = np.zeros((n, n), bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return AttributedGraph(attributes=attrs, identifiers=np.linspace(0.1, 0.9, n), adjacency=adj)


a = tiny([[0.2], [0.8]], [(0, 1)])
b = tiny([[0.2], [0.8]], [])
print("same attributes, edge vs no edge:", exact_small_search(a, b, params)[0])
print("identical graphs:", exact_small_search(a, a, params)[0])

c = tiny([[0.1], [0.5], [0.9]], [(0, 1), (1, 2)])
d = tiny([[0.15], [0.55], [0.95]], [(0, 2)])
exact = exact_small_search(c, d, params)[0]
val, _ = fgw_upper_bound(c, d, params, iterations=50)
print(f"3-vertex pair: exact {exact:.4f}, local solver from product start {val:.4f}")

# upper-bounding the distance of a generated pair via the matched plan
rng = np.random.default_rng(3)
data = AttributeDataset(points=rng.random((300, 1)))
partition = build_grid_partition(SpaceConfig(d=1), 16)
pair = generate_coupled_graphs(
    data, partition, discrete_laplace(1.0), 60.0, 60.0, chung_lu(1), rng
)
charge = matched_plan_cost(pair, params)
tg, sg = pair.true_graph, pair.synthetic_graph
refined, _ = fgw_upper_bound(tg, sg, params, init=plan_coupling(pair), iterations=3)
print(
    f"generated pair (N={tg.n_vertices}, M={sg.n_vertices}): worst-case plan charge {charge:.4f}, "
    f"refined coupling cost {refined:.4f}"
)
