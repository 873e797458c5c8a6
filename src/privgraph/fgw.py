"""Fused Gromov-Wasserstein machinery for attributed graphs.

The distance between two attributed graphs, each with weight 1/N on every
vertex (Vayer et al., ICML 2019), mixes a feature cost (attribute
distances, weight 1-alpha) with a structural cost (absolute differences of
structural distances, weight alpha), both at exponent 1:

    cost(pi) = (1-alpha) * sum_ij d(a_i, b_j) pi_ij
             + alpha * sum_ijkl |S_A[i,k] - S_B[j,l]| pi_ij pi_kl

minimized over couplings pi of the two vertex weight vectors. Structural
distances are cap-scaled adjacency (entry C if the pair is an edge, else 0),
so the solver works on each graph's boolean adjacency and C comes from
:class:`FgwParams`. Every structural term stays below C, and
|S_A[i,k] - S_B[j,l]| = S_A[i,k] + S_B[j,l] - (2/C) S_A[i,k] S_B[j,l] makes
the quadratic evaluable from adjacency products.

The module provides: one conditional-gradient solver
(:func:`fgw_upper_bound`, monotone from any feasible start, its linear steps
going to :func:`transport_vertex`) behind every FGW value it computes: a
coupling's cost, plan refinement, reference-graph scores and an exact
small-instance oracle (multi-start over the coupling polytope); the
matched-pair transport-plan upper bound used for the theoretical-bound
checks, Monte-Carlo estimation of the expected distance over generator runs
(through the replicate runner that ``evaluate`` also uses), and
reference-graph test functions giving a lower bound on the induced distance
between graph distributions.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec

import numpy as np

from .generator import CoupledGraphs, generate_coupled_graphs
from .graphs import AttributedGraph, Kernel
from .noise import NoiseSpec
from .space import _METRICS, AttributeDataset, Partition, SpaceConfig, pairwise_distances

_MARGINAL_TOL = 1e-9
_DIST_ROWS = 128  # rows of an N x M feature-distance matrix held at once
# Largest N*M scored by conditional-gradient refinement; larger pairs get the
# matched plan's exact cost (see evaluate_pair).
REFINE_SIZE_CAP = 4096
_EXACT_STARTS = 60  # random vertex starts of the exact small-instance search


@dataclass(frozen=True)
class FgwParams:
    """Trade-off alpha in [0,1], finite single-edge cost cap C > 0, feature metric."""

    alpha: float = 0.5
    C: float = 1.0
    metric: str = "sup"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0,1]")
        if not 0 < self.C < np.inf:  # NaN fails too; an infinite C makes every cost inf or NaN
            raise ValueError(f"C must be finite and positive, got {self.C}")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")


def graph_to_measure(g: AttributedGraph) -> np.ndarray:
    """The graph's vertex measure: weight 1/N on each of its N vertices."""
    n = g.n_vertices
    if n == 0:
        raise ValueError("cannot build a measure from an empty graph")
    return np.full(n, 1.0 / n)


def validate_coupling(pi: np.ndarray, a: AttributedGraph, b: AttributedGraph):
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (a.n_vertices, b.n_vertices):
        raise ValueError(f"coupling shape {pi.shape}, expected {(a.n_vertices, b.n_vertices)}")
    if not np.isfinite(pi).all():
        raise ValueError("coupling has non-finite mass")
    if pi.min() < -_MARGINAL_TOL:
        raise ValueError("coupling has negative mass")
    if np.abs(pi.sum(axis=1) - graph_to_measure(a)).max() > _MARGINAL_TOL:
        raise ValueError("row sums do not match source weights")
    if np.abs(pi.sum(axis=0) - graph_to_measure(b)).max() > _MARGINAL_TOL:
        raise ValueError("column sums do not match target weights")
    return pi


def _times_adjacency(x: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """x @ adj for a k x N float x and a symmetric N x N boolean adj, taken
    _DIST_ROWS adjacency rows at a time (its column blocks are row blocks)."""
    rows = [adj[i : i + _DIST_ROWS].astype(float) @ x.T for i in range(0, adj.shape[0], _DIST_ROWS)]
    return np.concatenate(rows).T


def _line_step(c1: float, c2: float) -> float:
    """Minimizer of c1*t + c2*t^2 over t in [0, 1], taken among 0, 1 and the
    clipped stationary point -c1 / (2*c2)."""
    cands = [0.0, 1.0]
    if c2 > 1e-18:
        cands.append(min(max(-c1 / (2.0 * c2), 0.0), 1.0))
    vals = [c1 * t + c2 * t * t for t in cands]
    return cands[int(np.argmin(vals))]


@functools.cache
def _assignment_solver():
    """scipy's compiled ``linear_sum_assignment`` (Crouse's shortest
    augmenting path), loaded from its extension module
    ``scipy.optimize._lsap`` without running ``scipy/optimize/__init__.py``,
    whose imports (linalg, special, fft, sparse.linalg) take about 0.6 s. The
    extension registers itself under its own name, so a later
    ``import scipy.optimize`` finds it and exports the same function. A scipy
    with no such extension gets the package's function."""
    import scipy

    spec = PathFinder.find_spec("scipy.optimize._lsap", [os.path.join(os.path.dirname(scipy.__file__), "optimize")])
    if spec is not None and isinstance(spec.loader, ExtensionFileLoader):
        try:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, AttributeError):
            pass
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def transport_vertex(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Exact minimizing vertex of <cost, pi> over couplings of wa and wb.

    Each shape gets an exact solver for its polytope:
    - one row or one column: the forced coupling;
    - n = m with every weight on both sides equal: an assignment scaled by
      that weight, optimal since the polytope's vertices are the scaled
      permutation matrices (Birkhoff-von Neumann). scipy's compiled
      ``linear_sum_assignment`` solves it, loaded on first use without
      importing ``scipy.optimize`` (:func:`_assignment_solver`);
    - two rows or two columns, any weights: a fractional knapsack, filled
      greedily in stable order of the cost difference between the two;
    - anything else: the transport LP in HiGHS.
    Ties among optimal vertices are broken by the solver that runs, so the
    vertex returned can differ from another exact solver's while the
    objective agrees.
    """
    n, m = cost.shape
    if m == 1:
        return wa[:, None].copy()
    if n == 1:
        return wb[None, :].copy()
    if n == m and np.all(wa == wa[0]) and np.all(wb == wa[0]):
        rows, cols = _assignment_solver()(cost)
        pi = np.zeros((n, m))
        pi[rows, cols] = wa[0]
        return pi
    if n == 2:
        return _two_row_vertex(cost, wa, wb)
    if m == 2:
        return _two_row_vertex(cost.T, wb, wa).T
    return _transport_vertex_highs(cost, wa, wb)


def _two_row_vertex(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Two-row transport: row 0 takes column j's mass in increasing order of
    cost[0, j] - cost[1, j] until it holds wa[0]; row 1 takes the rest."""
    order = np.argsort(cost[0] - cost[1], kind="stable")
    mass = wb[order]
    before = np.cumsum(mass) - mass
    pi = np.empty((2, wb.size))
    pi[0, order] = np.clip(wa[0] - before, 0.0, mass)
    pi[1] = wb - pi[0]
    return pi


def _transport_vertex_highs(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The transport LP in HiGHS, with a sparse (CSC) equality matrix."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    n, m = cost.shape
    # column i*m + j holds the ones of row sum i and column sum n + j
    rows = np.stack([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)], axis=1)
    a_eq = csc_array((np.ones(2 * n * m), rows.ravel(), np.arange(0, 2 * n * m + 1, 2)), shape=(n + m, n * m))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([wa, wb]), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(n, m)


def fgw_cost(pi, a: AttributedGraph, b: AttributedGraph, params: FgwParams) -> float:
    """Cost of a given feasible coupling (validated within 1e-9)."""
    return fgw_upper_bound(a, b, params, init=pi, iterations=0)[0]


def fgw_upper_bound(
    a: AttributedGraph,
    b: AttributedGraph,
    params: FgwParams,
    init: np.ndarray | None = None,
    iterations: int = 50,
    tol: float = 1e-12,
) -> tuple[float, np.ndarray]:
    """Conditional-gradient descent from a feasible start (default: the
    product coupling), as in Vayer et al. (ICML 2019).

    Each step solves the linearized transport problem exactly
    (:func:`transport_vertex`) and takes the exact line-search step, so the
    cost sequence is non-increasing and the returned value is always a valid
    upper bound for the minimum. Among tied optimal vertices the solver's
    choice decides the path, so the value depends on which solver ran.

    With S_A = C * a.adjacency (dense, a is the small side of a reference
    score) and S_B = C * b.adjacency, the loop keeps P = pi S_B. The
    structural gradient Q(pi) = S_A w_a + S_B w_b - (2/C) S_A P is affine in
    P, so a step moves Q by t Q(delta) and needs one product with the B side,
    vertex S_B, taken _DIST_ROWS boolean rows at a time. S_B w_b comes from
    integer degrees, and the product coupling starts from P = w_a (S_B w_b)^T
    with no product. The cost is <(1-alpha) D + alpha Q, pi>.
    """
    al, cap, cross = params.alpha, params.C, 2.0 / params.C
    wa, wb = graph_to_measure(a), graph_to_measure(b)
    sa = np.multiply(a.adjacency, cap, dtype=float)
    sb_wb = cap * b.adjacency.sum(axis=1) / b.n_vertices
    d = (1.0 - al) * pairwise_distances(a.attributes, b.attributes, metric=params.metric)
    if init is None:
        pi, p = np.outer(wa, wb), np.outer(wa, sb_wb)
    else:
        pi = validate_coupling(np.array(init, dtype=float), a, b)
        p = cap * _times_adjacency(pi, b.adjacency)
    q = (sa @ wa)[:, None] + sb_wb[None, :] - cross * (sa @ p)
    cost = float(np.sum((d + al * q) * pi))
    for _ in range(iterations):
        grad = d + 2.0 * al * q
        vertex = transport_vertex(grad, wa, wb)
        vp = cap * _times_adjacency(vertex, b.adjacency)
        delta = vertex - pi
        dq = -cross * (sa @ (vp - p))  # Q(delta): delta has zero marginals
        t = _line_step(float(np.sum(grad * delta)), al * float(np.sum(dq * delta)))
        if t <= 0.0:
            break
        pi, p, q = pi + t * delta, p + t * (vp - p), q + t * dq
        new_cost = float(np.sum((d + al * q) * pi))
        if cost - new_cost < tol:
            cost = min(cost, new_cost)
            break
        cost = new_cost
    return cost, pi


def _canonical_key(g: AttributedGraph) -> tuple:
    return (g.n_vertices, g.attributes.tobytes(), g.adjacency.tobytes())


def exact_small_search(a: AttributedGraph, b: AttributedGraph, params: FgwParams) -> tuple[float, np.ndarray]:
    """(global minimum, a coupling of a and b achieving it) for instances up
    to 4x4.

    The objective is quadratic in the coupling and can attain its optimum off
    the vertex set, so the search runs conditional-gradient descent from a
    battery of starts covering the polytope: the product coupling, the
    diagonal (when feasible), exact vertices for _EXACT_STARTS random linear
    costs, and random interior mixtures, all drawn from seed 0. Arguments
    are canonically ordered first so the value is symmetric by construction;
    the coupling of the best start is transposed back when they were swapped.
    """
    n, m = a.n_vertices, b.n_vertices
    if n > 4 or m > 4:
        raise ValueError("exact oracle capped at 4 vertices per side")
    if _canonical_key(a) > _canonical_key(b):
        value, pi = exact_small_search(b, a, params)
        return value, pi.T
    wa, wb = graph_to_measure(a), graph_to_measure(b)
    rng = np.random.default_rng(0)
    starts = [np.outer(wa, wb)]
    if n == m:
        starts.append(np.diag(wa))
    starts.append(transport_vertex(pairwise_distances(a.attributes, b.attributes, params.metric), wa, wb))
    vertices = [transport_vertex(rng.standard_normal((n, m)), wa, wb) for _ in range(_EXACT_STARTS)]
    starts.extend(vertices)
    for _ in range(_EXACT_STARTS // 3):
        picks = rng.integers(0, len(vertices), size=3)
        lam = rng.dirichlet(np.ones(3))
        starts.append(sum(l * vertices[p] for l, p in zip(lam, picks)))
    best, best_pi = np.inf, None
    for s in starts:
        val, pi = fgw_upper_bound(a, b, params, init=s, iterations=200, tol=1e-14)
        if val < best:
            best, best_pi = val, pi
    return max(float(best), 0.0), best_pi


# -- the matched transport plan of the coupled generator ---------------------


def worst_pair_cost(params: FgwParams, diam: float, lipschitz: float) -> float:
    """Per-unit-mass cost cap for an arbitrary vertex pair: feature part at the
    space diameter, structural part at min(C, 2*C*L*diam).

    It caps every pair's realised cost only when min(C, 2*C*L*diam) = C, that
    is when 2*L*diam >= 1. Unmatched pairs draw their edges independently,
    so with the constant kernel (L = 0) a structural cost of C can be
    realised that this cap does not cover.
    """
    return (1.0 - params.alpha) * diam + params.alpha * min(
        params.C, 2.0 * params.C * lipschitz * diam
    )


def matched_plan_cost(pair: CoupledGraphs, params: FgwParams) -> float:
    """Upper bound on the pair's FGW distance from the matched transport plan.

    Mass 1/max(N, M) moves across each of the Z matched vertex pairs at its
    realized cost; all remaining mass is charged at the worst-case pair cost.
    The mean of this statistic over generator runs is what the theoretical
    accuracy bounds dominate.

    Precondition: it bounds the exact cost of the same plan (the dominance
    chain exact <= refined <= plan cost <= this charge) only when
    min(C, 2*C*L*diam) = C, see :func:`worst_pair_cost`. For the constant
    kernel (L = 0) the charge can fall below the plan's exact cost.
    """
    n, m = pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices
    worst = worst_pair_cost(params, pair.partition.space.diameter, pair.kernel.lipschitz_constant)
    z = pair.match_count
    if z == 0:  # also when a graph is empty, since Z <= min(N, M)
        return 0.0 if n == m == 0 else worst
    n0 = max(n, m)
    matched = (
        (1.0 - params.alpha) * z * _matched_distance_sum(pair, params.metric)
        + params.alpha * params.C * pair.edge_counts.xor
    ) / (n0 * n0)
    return matched + worst * (n0 * n0 - z * z) / (n0 * n0)


def _matched_distance_sum(pair: CoupledGraphs, metric: str) -> float:
    """Summed feature distance of the matched vertex pairs (vertex s of both
    graphs for s < Z)."""
    z, xs, ys = pair.match_count, pair.true_graph.attributes, pair.synthetic_graph.attributes
    return float(SpaceConfig(xs.shape[1], metric).distance(xs[:z], ys[:z]).sum())


def plan_coupling(pair: CoupledGraphs) -> np.ndarray:
    """Explicit feasible coupling of the true and the synthetic graph
    realizing the matched plan: matched mass 1/max(N, M) per pair, residual
    mass completed as a product coupling."""
    wa, wb = graph_to_measure(pair.true_graph), graph_to_measure(pair.synthetic_graph)
    n0 = max(wa.size, wb.size)
    w = 1.0 / n0
    pi = np.zeros((wa.size, wb.size))
    matched = np.arange(pair.match_count)  # vertex s of both graphs
    pi[matched, matched] = w
    row_rest = wa - pi.sum(axis=1)
    col_rest = wb - pi.sum(axis=0)
    rest = row_rest.sum()
    if rest > 1e-15:
        pi = pi + np.outer(row_rest, col_rest) / rest
    return pi


def _completion(deg: np.ndarray, row: np.ndarray, n0: int):
    """One side's completion marginal u = 1/n - 1_[:Z]/n0 with (A u)[:Z] and
    u^T A u, from the adjacency A's degrees and matched-block row counts."""
    n, z = deg.size, row.size
    u = np.full(n, 1.0 / n)
    u[:z] -= 1.0 / n0
    au = (float(n0) * deg[:z] - float(n) * row) / (n * n0)  # exact: float64 holds these integers
    uau = n0 * n0 * int(deg.sum()) - 2 * n0 * n * int(deg[:z].sum()) + n * n * int(row.sum())
    return u, au, uau / (n * n0) ** 2


def plan_cost_exact(pair: CoupledGraphs, params: FgwParams) -> float:
    """Cost of the explicit matched-plan coupling without materializing it.

    The plan is matched mass w = 1/max(N, M) on vertex s of both graphs for
    s < Z, plus the product completion u v^T / (1 - Z w) with
    u = 1/N - w 1_[:Z] (v likewise on the synthetic side). Every structural
    term comes from :attr:`~CoupledGraphs.edge_counts`: integer degrees,
    edges inside the matched blocks, and edges the blocks share. The
    feature term u^T D v sums v over each distinct synthetic attribute row
    first, so its float work is N x (distinct rows), in row blocks.
    """
    tg, sg = pair.true_graph, pair.synthetic_graph
    n, m = tg.n_vertices, sg.n_vertices
    if n == 0 or m == 0:
        return 0.0 if n == m else worst_pair_cost(params, pair.partition.space.diameter, pair.kernel.lipschitz_constant)
    n0 = max(n, m)
    w = 1.0 / n0
    z = pair.match_count
    rest = (n0 - z) / n0
    counts = pair.edge_counts
    deg = counts.deg
    feature = w * _matched_distance_sum(pair, params.metric)
    # <pi, S_A pi S_B> / C^2 from the matched part and the product completion
    bilinear = w * w * counts.both
    if z < n0:
        u, au_t, uau = _completion(deg[0], counts.row[0], n0)
        v, bv_s, vbv = _completion(deg[1], counts.row[1], n0)
        # u^T D v over the feature distances D to each distinct synthetic row
        xs, ys = tg.attributes, np.ascontiguousarray(sg.attributes)
        # rows as single byte strings: a 1-D unique is several times faster than axis=0
        rows = ys.view(np.dtype((np.void, ys.itemsize * ys.shape[1]))).ravel()
        _, first, group = np.unique(rows, return_index=True, return_inverse=True)
        ys, v = ys[first], np.bincount(group, weights=v, minlength=first.size)
        feature += sum(
            float(u[i : i + _DIST_ROWS] @ pairwise_distances(xs[i : i + _DIST_ROWS], ys, params.metric) @ v)
            for i in range(0, n, _DIST_ROWS)
        ) / rest
        bilinear += 2.0 * w * float(au_t @ bv_s) / rest + uau * vbv / (rest * rest)
    const = int(deg[0].sum()) / (n * n) + int(deg[1].sum()) / (m * m)
    quad = params.C * (const - 2.0 * bilinear)
    return (1.0 - params.alpha) * feature + params.alpha * quad


@dataclass(frozen=True)
class McFgwResult:
    """Per-replicate plan values, matched-plan charges and evaluators, with the
    ``(true, synthetic)`` graphs of the first ``keep_graphs`` replicates."""

    values: np.ndarray = field(repr=False)
    plan_charges: np.ndarray = field(repr=False)
    evaluators: tuple[str, ...] = field(repr=False)
    graphs: list[tuple[AttributedGraph, AttributedGraph]] = field(repr=False)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def stderr(self) -> float:
        return float(self.values.std(ddof=1) / np.sqrt(self.values.size))

    @property
    def plan_mean(self) -> float:
        return float(self.plan_charges.mean())

    @property
    def plan_stderr(self) -> float:
        return float(self.plan_charges.std(ddof=1) / np.sqrt(self.plan_charges.size))


def spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """Replicate RNG streams: stream r is default_rng(SeedSequence(seed).spawn()[r]).

    This is the package-wide seeding contract.
    """
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n)]


def run_replicates(fn, n: int, seed: int) -> list:
    """[fn(r, rng_r) for r in range(n)], in index order, rng_r being stream r
    of :func:`spawn_streams`."""
    streams = spawn_streams(seed, n)
    return [fn(r, streams[r]) for r in range(n)]


def _refines(n: int, m: int, refine_iters: int) -> bool:
    """Whether a pair of an n- and an m-vertex graph is scored by refinement."""
    return refine_iters > 0 and 0 < n * m <= REFINE_SIZE_CAP


def evaluate_pair(pair: CoupledGraphs, params: FgwParams, refine_iters: int) -> tuple[float, float, str]:
    """(matched-plan charge, plan value, evaluator) of one replicate. The
    evaluator is "refine" when refine_iters > 0 and 0 < n*m <= REFINE_SIZE_CAP:
    the plan value is then the matched-plan coupling refined by
    ``refine_iters`` conditional-gradient steps. Otherwise it is "exact", the
    coupling's exact cost, which reads the pair's attributes and edge counts
    but no adjacency."""
    charge = matched_plan_cost(pair, params)
    refine = _refines(pair.true_graph.n_vertices, pair.synthetic_graph.n_vertices, refine_iters)
    evaluator = "refine" if refine else "exact"
    if refine:
        pi = plan_coupling(pair)
        value, _ = fgw_upper_bound(pair.true_graph, pair.synthetic_graph, params, init=pi, iterations=refine_iters)
    else:
        value = plan_cost_exact(pair, params)
    return charge, value, evaluator


def mc_expected_fgw(
    dataset: AttributeDataset,
    partition: Partition,
    noise: NoiseSpec,
    a: float,
    b: float,
    kernel: Kernel,
    params: FgwParams,
    replicates: int,
    seed: int,
    refine_iters: int = 2,
    keep_graphs: int = 0,
) -> McFgwResult:
    """Monte-Carlo estimate of the expected FGW distance between the pair.

    This is the one replicate loop: ``privgraph evaluate`` and ``privgraph mc``
    both run it. Each replicate draws a coupled pair and scores it by
    :func:`evaluate_pair`; its analytic plan charge is recorded alongside as
    the statistic the theoretical bounds dominate in expectation. Replicates
    run through :func:`run_replicates`; the graphs of the first
    ``keep_graphs`` are kept in the result. Every pair carries the edge
    counts the generator tallies as it draws; only a kept or a refined pair
    is also built with its adjacencies, so an exact replicate holds no N x N
    array.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if refine_iters > 0 and a * b <= REFINE_SIZE_CAP:
        # N*M is about a*b, so refinement can run: load its solvers now rather
        # than inside the first replicate. With a == b both sizes are one
        # Poisson draw, every step is a square uniform assignment and HiGHS
        # never runs, so the assignment solver alone is loaded; otherwise
        # HiGHS can run and scipy.optimize (about 0.6 s) is imported.
        if a == b:
            _assignment_solver()
        else:
            import scipy.optimize  # noqa: F401

    def one(r, rng):
        pair = generate_coupled_graphs(
            dataset, partition, noise, a, b, kernel, rng,
            build_graphs=lambda n, m: r < keep_graphs or _refines(n, m, refine_iters),
        )
        kept = (pair.true_graph, pair.synthetic_graph) if r < keep_graphs else None
        return (*evaluate_pair(pair, params, refine_iters), kept)

    charges, values, evaluators, graphs = zip(*run_replicates(one, replicates, seed))
    return McFgwResult(
        values=np.array(values, dtype=float),
        plan_charges=np.array(charges, dtype=float),
        evaluators=evaluators,
        graphs=[g for g in graphs if g is not None],
    )


# -- reference-graph test functions ------------------------------------------


def reference_graphs(d: int) -> list[AttributedGraph]:
    """Seven small deterministic reference graphs spread over the attribute
    cube: five single vertices, then two vertices with and without an edge.

    Single-vertex references dominate the list because their FGW value
    against any graph is closed-form exact (the coupling is forced).
    """
    refs = [
        AttributedGraph(attributes=np.full((1, d), t), identifiers=[0.5], adjacency=np.zeros((1, 1), dtype=bool))
        for t in np.linspace(0.1, 0.9, 5)
    ]
    two = np.array([np.full(d, 0.25), np.full(d, 0.75)])
    refs.append(AttributedGraph(attributes=two, identifiers=[0.25, 0.75], adjacency=~np.eye(2, dtype=bool)))
    refs.append(AttributedGraph(attributes=two, identifiers=[0.3, 0.7], adjacency=np.zeros((2, 2), dtype=bool)))
    return refs


def fgw_to_reference(
    ref: AttributedGraph,
    sample: AttributedGraph,
    params: FgwParams,
    refine_iters: int = 1,
    empty_value: float | None = None,
) -> float:
    """Upper evaluation of d_FGW(ref, sample) with a fixed-effort evaluator.

    Single-vertex references are exact (forced coupling); otherwise the value
    is the product coupling refined by a fixed number of conditional-gradient
    steps (:func:`fgw_upper_bound`), so every sample is scored by the same
    evaluator. Both work from the sample's boolean adjacency and integer
    degrees: no N x N float copy of the sample is made.
    """
    if sample.n_vertices == 0 or ref.n_vertices == 0:
        if ref.n_vertices == 0 and sample.n_vertices == 0:
            return 0.0
        if empty_value is None:
            raise ValueError("empty graph encountered; supply empty_value")
        return empty_value
    if ref.n_vertices == 1:
        n = sample.n_vertices
        dists = pairwise_distances(sample.attributes, ref.attributes, metric=params.metric)
        feature = (1.0 - params.alpha) * float(dists.mean())
        quad = params.alpha * params.C * np.count_nonzero(sample.adjacency) / (n * n)
        return feature + quad
    val, _ = fgw_upper_bound(ref, sample, params, iterations=refine_iters)
    return val


def ipm_lower_bound(
    samples_a: list[AttributedGraph],
    samples_b: list[AttributedGraph],
    references: list[AttributedGraph],
    params: FgwParams,
    refine_iters: int = 1,
    empty_value: float | None = None,
) -> float:
    """max over references of |mean_A f_ref - mean_B f_ref|.

    Each f_ref is Lipschitz(1) for the FGW distance, so this estimates a lower
    bound on the induced distance between the two graph distributions, up to
    evaluator error on multi-vertex references (the same evaluator scores both
    sample sets).
    """
    if not samples_a or not samples_b or not references:
        raise ValueError("sample sets and references must be nonempty")
    best = 0.0
    for ref in references:
        fa = np.mean(
            [fgw_to_reference(ref, g, params, refine_iters, empty_value) for g in samples_a]
        )
        fb = np.mean(
            [fgw_to_reference(ref, g, params, refine_iters, empty_value) for g in samples_b]
        )
        best = max(best, abs(float(fa) - float(fb)))
    return best
