"""Jointly generate the "true" graph and its private synthetic counterpart.

Mirrors the product-kernel showcase: attributes are half 0 and half 1 on
[0,1], the kernel is kappa(x, y) = x*y, and the partition size follows the
optimal rule. DOT files land in demos/out/ (or the directory given as the
first argument) for rendering with graphviz.
"""

import sys
from pathlib import Path

import numpy as np

from privgraph.generator import generate_coupled_graphs
from privgraph.graphs import chung_lu, graph_to_dot
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

pts = np.zeros((1000, 1))
pts[500:] = 1.0
data = AttributeDataset(points=pts)
kernel = chung_lu(1)

for eps in (1.0, 0.1, 0.01):
    m = int(np.ceil(np.sqrt(eps * data.n)))
    partition = build_grid_partition(SpaceConfig(d=1), m)
    pair = generate_coupled_graphs(
        data, partition, discrete_laplace(eps), 100.0, 100.0, kernel, np.random.default_rng(7)
    )
    tg, sg = pair.true_graph, pair.synthetic_graph
    print(
        f"eps={eps:5g} (m={partition.m}): true graph {tg.n_vertices} vertices "
        f"/ {tg.n_edges} edges, synthetic {sg.n_vertices} vertices / {sg.n_edges} edges, "
        f"{pair.match_count} of {pair.shared_count} shared slots matched"
    )
    if eps == 1.0:
        (out / "true.dot").write_text(graph_to_dot(tg, name="true_graph"))
    (out / f"synthetic_eps{eps:g}.dot").write_text(graph_to_dot(sg, name="synthetic_graph"))

print(f"\nDOT files written to {out}/ (render with `dot -Tpng`)")
print("With weaker privacy (large eps) the synthetic degree structure tracks")
print("the true one; as eps shrinks the noisy measure drifts and so do edges.")
