"""Attributed graphs of the random connection model: connection kernels, the
graph type, and JSON/DOT/edge-list export.

A graph of the model has a Poisson number of vertices, each with an attribute
and a uniform identifier, and connects each unordered pair independently with
probability kernel(x_i, x_j). :mod:`privgraph.generator` draws two such graphs,
coupled, on one probability space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .space import _METRICS, _is_int, _is_real, pairwise_distances

CHUNG_LU = "chung_lu"
CONSTANT = "constant"
INVERSE_DISTANCE = "inverse_distance"
_SYMMETRY_ROWS = 128  # adjacency rows per block of the symmetry check and the edge listing


@dataclass(frozen=True)
class Kernel:
    """Symmetric edge connection function on [0,1]^d x [0,1]^d -> [0,1].

    ``lipschitz_constant`` is with respect to the sup-norm on the cube:
    d for the coordinate-product kernel, 0 for constants, 1/scale for the
    exponential-decay kernel exp(-dist/scale).
    """

    kind: str
    p: float = 0.0
    scale: float = 1.0
    d: int = 1
    metric: str = "sup"

    def __post_init__(self):
        if self.kind == CONSTANT and not 0.0 <= self.p <= 1.0:
            raise ValueError("constant kernel needs p in [0,1]")
        if self.kind == INVERSE_DISTANCE and not 0 < self.scale < math.inf:  # NaN fails too
            raise ValueError(f"inverse_distance kernel needs finite scale > 0, got {self.scale}")
        if self.kind not in (CHUNG_LU, CONSTANT, INVERSE_DISTANCE):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")

    @property
    def lipschitz_constant(self) -> float:
        if self.kind == CHUNG_LU:
            return float(self.d)
        if self.kind == CONSTANT:
            return 0.0
        return 1.0 / self.scale


def chung_lu(d: int = 1) -> Kernel:
    """kappa(x, y) = prod_j x_j y_j; vertices with large attributes connect more."""
    return Kernel(kind=CHUNG_LU, d=d)


def constant_kernel(p: float) -> Kernel:
    return Kernel(kind=CONSTANT, p=p)


def inverse_distance(scale: float, metric: str = "sup") -> Kernel:
    """kappa(x, y) = exp(-dist(x, y)/scale); equals 1 at zero distance."""
    return Kernel(kind=INVERSE_DISTANCE, scale=scale, metric=metric)


def kernel_matrix(kernel: Kernel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(n, d) x (m, d) -> (n, m) matrix of connection probabilities."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if kernel.kind == CHUNG_LU:
        return np.outer(xs.prod(axis=1), ys.prod(axis=1))
    if kernel.kind == CONSTANT:
        return np.full((xs.shape[0], ys.shape[0]), kernel.p)
    dist = pairwise_distances(xs, ys, metric=kernel.metric)
    return np.exp(-dist / kernel.scale)


def _edge_blocks(adj: np.ndarray, order: np.ndarray | None = None):
    """(i, j) index arrays of the edges i < j in row-major order, _SYMMETRY_ROWS
    rows at a time, so no N x N temporary is made. With ``order``, vertex k
    is the stored vertex ``order[k]``, and each block of rows is permuted on
    its own."""
    for r0 in range(0, adj.shape[0], _SYMMETRY_ROWS):
        rows = slice(r0, r0 + _SYMMETRY_ROWS)
        i, j = np.nonzero(adj[rows] if order is None else adj[np.ix_(order[rows], order)])
        upper = j > i + r0
        yield i[upper] + r0, j[upper]


def _is_symmetric(adj: np.ndarray) -> bool:
    """Exact adj == adj.T, compared _SYMMETRY_ROWS rows at a time: rows
    [r0, r1) from column r0 on against the matching columns, so no N x N
    temporary is made."""
    n = adj.shape[0]
    for r0 in range(0, n, _SYMMETRY_ROWS):
        r1 = min(r0 + _SYMMETRY_ROWS, n)
        if not np.array_equal(adj[r0:r1, r0:], adj[r0:, r0:r1].T):
            return False
    return True


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given,
    without running its ``__post_init__`` checks: for arrays their maker
    already built to the class's invariants, such as the generator's
    adjacencies, which are symmetric with an empty diagonal by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class AttributedGraph:
    """Vertices = (attribute, identifier) pairs; undirected simple edges.

    ``adjacency`` is a symmetric boolean matrix with zero diagonal; the edge
    list view enumerates index pairs i < j. The constructor takes 0/1 or
    boolean entries and checks all of this exactly, and refuses a vertex
    whose attribute or identifier is not finite; the generator, whose arrays
    are built that way, makes its graphs through :func:`_unchecked`, from
    the arrays this constructor would make (2-D float64 attributes, 1-D
    float64 identifiers).
    """

    attributes: np.ndarray
    identifiers: np.ndarray
    adjacency: np.ndarray = field(repr=False)

    def __post_init__(self):
        attrs = np.atleast_2d(np.asarray(self.attributes, dtype=float))
        ids = np.asarray(self.identifiers, dtype=float).ravel()
        n = ids.size
        if attrs.shape[0] != n:
            raise ValueError("inconsistent vertex arrays")
        for name, bad in (("attribute", ~np.isfinite(attrs).all(axis=1)), ("identifier", ~np.isfinite(ids))):
            if bad.any():
                raise ValueError(f"vertex {int(np.argmax(bad))} has a non-finite {name}")
        adj = np.asarray(self.adjacency)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must be {n} x {n}, one row per vertex, got shape {adj.shape}")
        if adj.dtype != bool:
            binary = adj.astype(bool)
            if not np.array_equal(adj, binary):
                raise ValueError("adjacency entries must be 0/1 or boolean")
            adj = binary
        if n and (np.any(np.diag(adj)) or not _is_symmetric(adj)):
            raise ValueError("adjacency must be symmetric with no self-loops")
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "identifiers", ids)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_vertices(self) -> int:
        return self.identifiers.size

    @property
    def n_edges(self) -> int:
        # the adjacency is symmetric with an empty diagonal (checked in __post_init__,
        # or built so by the generator)
        return int(np.count_nonzero(self.adjacency)) // 2

    def edge_list(self) -> list[tuple[int, int]]:
        return [e for i, j in _edge_blocks(self.adjacency) for e in zip(i.tolist(), j.tolist())]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)


def _distinct_uniform_ids(n: int, rng: np.random.Generator) -> np.ndarray:
    ids = rng.random(n)
    # duplicates have probability zero but rejection keeps the invariant exact;
    # the check sorts rather than calling np.unique, whose first call imports numpy.ma
    while (np.diff(np.sort(ids)) == 0).any():
        _, first = np.unique(ids, return_index=True)
        dup = np.setdiff1d(np.arange(n), first)
        ids[dup] = rng.random(dup.size)
    return ids


# -- serialization -----------------------------------------------------------


def _written_order(g: AttributedGraph) -> np.ndarray:
    """The vertices sorted by identifier: the order every writer lists them
    in. The identifiers are iid uniform, so unlike the generator's
    matched-first layout this order does not depend on the true data."""
    return np.argsort(g.identifiers, kind="stable")


def graph_to_dict(g: AttributedGraph) -> dict:
    """The graph with its vertices in :func:`_written_order`, numbered from 0."""
    order = _written_order(g)
    return {
        "vertices": [{"attr": g.attributes[i].tolist(), "id": float(g.identifiers[i])} for i in order],
        "edges": [e for i, j in _edge_blocks(g.adjacency, order) for e in np.column_stack((i, j)).tolist()],
    }


def _is_vertex_index(x, n: int) -> bool:
    return _is_int(x) and 0 <= x < n


def graph_from_dict(obj: dict) -> AttributedGraph:
    """The graph of :func:`graph_to_dict`'s form. "vertices" and "edges" must
    be lists; each vertex needs an "attr" that is a list of numbers and an
    "id" that is a number, and each edge must be a pair of distinct integer
    vertex indices in [0, n). Anything else is refused."""
    if not isinstance(obj, dict):
        raise ValueError("a graph must be a JSON object")
    verts, edges = obj.get("vertices", []), obj.get("edges", [])
    for key, value in (("vertices", verts), ("edges", edges)):
        if not isinstance(value, list):
            raise ValueError(f"{key!r} must be a list, got {value!r}")
    n = len(verts)
    for i, v in enumerate(verts):
        for key in ("attr", "id"):
            if not (isinstance(v, dict) and key in v):
                raise ValueError(f"vertex {i} has no {key!r}")
        if not (isinstance(v["attr"], list) and all(map(_is_real, v["attr"]))):
            raise ValueError(f"vertex {i} has an 'attr' that is not a list of numbers: {v['attr']!r}")
        if not _is_real(v["id"]):
            raise ValueError(f"vertex {i} has an 'id' that is not a number: {v['id']!r}")
    adj = np.zeros((n, n), dtype=bool)
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(_is_vertex_index(x, n) for x in edge)):
            raise ValueError(f"edge {edge!r} is not a pair of integer vertex indices in [0, {n})")
        i, j = edge
        if i == j:
            raise ValueError(f"edge {edge!r} is a self-loop")
        adj[i, j] = adj[j, i] = True
    attrs = np.array([v["attr"] for v in verts], dtype=float) if n else np.zeros((0, 1))  # empty: d = 1
    ids = np.array([v["id"] for v in verts], dtype=float)
    return AttributedGraph(attributes=attrs, identifiers=ids, adjacency=adj)


def graph_to_json(g: AttributedGraph) -> str:
    return json.dumps(graph_to_dict(g))


def graph_from_json(text: str) -> AttributedGraph:
    return graph_from_dict(json.loads(text))


def graph_to_dot(g: AttributedGraph, name: str = "G") -> str:
    """DOT export with grayscale vertices, listed in :func:`_written_order`;
    small attributes render dark. Edges i < j follow in row-major order."""
    order = _written_order(g)
    text = [f"graph {name} {{\n", "  node [shape=circle style=filled label=\"\"];\n"]
    for k, i in enumerate(order):
        shade = min(max(float(np.mean(g.attributes[i])), 0.0), 1.0)
        text.append(f'  {k} [fillcolor="0.000 0.000 {shade:.3f}"];\n')
    for i, j in _edge_blocks(g.adjacency, order):  # formatted one block of rows at a time
        text.append(("  %d -- %d;\n" * i.size) % tuple(np.column_stack((i, j)).ravel().tolist()))
    return "".join(text) + "}\n"
