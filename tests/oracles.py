"""Test-only reference implementations, written for clarity rather than speed."""

import csv
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from privgraph.bounds import BoundInputs, distribution_bound_grid, expected_fgw_bound_grid
from privgraph.generator import EdgeCounts, _coupled_edges
from privgraph.graphs import AttributedGraph, _distinct_uniform_ids, _unchecked, kernel_matrix
from privgraph.measures import PrivateMeasureResult
from privgraph.noise import expected_abs
from privgraph.space import AttributeDataset, pairwise_distances


def coupled_edges_reference(kernel, true_attrs, syn_attrs, is_match, rng):
    """The edge runs, one pair and one ``rng.random()`` call at a time.

    Shared slot s is vertex s of both graphs. The runs, each over pairs
    i < j in row-major order: matched x matched pairs (one uniform decides
    the edge in both graphs), then the other true-graph pairs, then the
    other synthetic-graph pairs. This is draw order 2 for any ``is_match``
    and draw order 3 when the matched slots are a prefix,
    ``arange(shared) < Z``.
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


def count_edges(adj_true, adj_syn, z):
    """The :class:`EdgeCounts` of two boolean adjacencies whose first z
    vertices are matched, read off the adjacencies: row sums of the matched
    blocks and of the whole adjacencies, and the blocks' XOR and AND."""
    blocks = adj_true[:z, :z], adj_syn[:z, :z]
    return EdgeCounts(
        row=tuple(b.sum(axis=1, dtype=np.int32) for b in blocks),
        deg=tuple(adj.sum(axis=1, dtype=np.int32) for adj in (adj_true, adj_syn)),
        xor=int(np.count_nonzero(blocks[0] ^ blocks[1])),
        both=int(np.count_nonzero(blocks[0] & blocks[1])),
    )


def sample_graph(attr_measure, intensity, kernel, rng):
    """One draw from the random connection model.

    Vertex count ~ Poisson(intensity); attributes iid from ``attr_measure``
    (uniform over a dataset's points or an array's rows, or per-weight over
    the support of a ``(support, weights)`` tuple); identifiers iid uniform
    on [0,1]; each pair carries an edge independently with probability
    kernel(x_i, x_j).
    The edges come from the generator's ``_coupled_edges`` with an empty
    synthetic side: one uniform per pair i < j, C(N,2) in all, drawn in row
    blocks, so the tests that use it pin that one-sided run.
    """
    if intensity <= 0:
        raise ValueError("intensity must be > 0")
    n = int(rng.poisson(intensity))
    if isinstance(attr_measure, tuple):
        support, weights = attr_measure
        attrs = support[rng.choice(support.shape[0], size=n, p=weights / weights.sum())]
    else:
        pts = attr_measure.points if isinstance(attr_measure, AttributeDataset) else np.array(attr_measure, float, ndmin=2)
        attrs = pts[rng.integers(0, pts.shape[0], size=n)]
    ids = _distinct_uniform_ids(n, rng)
    adj = _coupled_edges(kernel, attrs, attrs[:0], 0, rng)[0][0]
    return _unchecked(AttributedGraph, attributes=attrs, identifiers=ids, adjacency=adj)


def fixed_private(part, counts, weights, reps=None):
    """A mechanism result with the given true counts and private weights and
    no noise, for holding the generator's measure fixed; the representatives
    default to the cell centres."""
    n = int(np.sum(counts))
    reps = reps if reps is not None else (part.lows + part.highs) / 2.0
    return PrivateMeasureResult(
        representatives=reps,
        counts=np.asarray(counts, dtype=np.int64),
        noise_draws=np.zeros(part.m, dtype=np.int64),
        raw_weights=np.asarray(counts, float) / n,
        private_weights=np.asarray(weights, float),
        tv_residual=float(np.abs(np.asarray(counts, float) / n - weights).sum()),
    )


def grid_bounds_unrounded(eps, n, d, alpha=0.5, C=1.0, L_kappa=1.0):
    """Both grid-form bound totals at the exact, un-rounded optimal partition
    size m = f n, f = eps^(d/(d+1)) n^(-1/(d+1)), with a = b = m^(2/d).
    Rounding m to a grid makes the bound/rate ratio wobble with n; here it
    is constant."""
    m = eps ** (d / (d + 1.0)) * n ** (-1.0 / (d + 1.0)) * n
    a = m ** (2.0 / d)
    # BoundInputs takes a whole number of cells; the grid forms are the same
    # closed forms at a real m, which is set after the checks
    inp = BoundInputs(a=a, b=a, n=n, m=1, eps=eps, d=d, alpha=alpha, C=C, L_kappa=L_kappa,
                      max_cell_diam=m ** (-1.0 / d))
    object.__setattr__(inp, "m", m)
    return expected_fgw_bound_grid(inp).total, distribution_bound_grid(inp).total


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


def brute_force_cost(pi, a, b, params):
    """FGW cost of the coupling pi as the literal quadruple sum over the
    structural distances C * adjacency: the oracle for the package's solver."""
    n, m = a.n_vertices, b.n_vertices
    sa, sb = params.C * a.adjacency, params.C * b.adjacency
    total = 0.0
    for i in range(n):
        for j in range(m):
            diff = np.abs(a.attributes[i] - b.attributes[j])
            d_feat = np.max(diff) if params.metric == "sup" else np.sqrt(np.sum(diff**2))
            for k in range(n):
                for l in range(m):
                    term = (1 - params.alpha) * d_feat + params.alpha * abs(sa[i, k] - sb[j, l])
                    total += term * pi[i, j] * pi[k, l]
    return total


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


def tv_project_lp(weights):
    """TV projection onto the simplex as the epigraph LP in HiGHS: minimize
    sum(u) over tau >= 0, sum(tau) = 1, u_i >= w_i - tau_i, u_i >= tau_i - w_i
    (2m variables, 2m inequalities). Returns the optimal distance."""
    w = np.asarray(weights, dtype=float)
    m = w.size
    eye = np.eye(m)
    res = linprog(
        np.concatenate([np.zeros(m), np.ones(m)]),
        A_ub=np.block([[-eye, -eye], [eye, -eye]]),
        b_ub=np.concatenate([-w, w]),
        A_eq=np.concatenate([np.ones(m), np.zeros(m)])[None, :],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def tv_project_bruteforce(weights):
    """Exact TV-projection optimum by enumerating vertices of the feasible region.

    The objective sum|w_i - tau_i| is piecewise linear over the simplex cut by
    the hyperplanes tau_i = w_i, so its minimum is attained at a point where
    m-1 coordinates sit at 0 or w_i and the remaining one absorbs the slack.
    Enumerating all such candidates (m * 2^(m-1), tiny for m <= 5) is an
    exhaustive polytope-vertex search independent of every solver.
    """
    w = np.asarray(weights, dtype=float)
    m = w.size
    best = np.inf
    for free in range(m):
        others = [i for i in range(m) if i != free]
        for mask in range(2 ** len(others)):
            tau = np.zeros(m)
            ok = True
            for bit, i in enumerate(others):
                if (mask >> bit) & 1:
                    if w[i] < 0:
                        ok = False
                        break
                    tau[i] = w[i]
            if not ok:
                continue
            slack = 1.0 - tau.sum()
            if slack < -1e-12:
                continue
            tau[free] = max(slack, 0.0)
            best = min(best, float(np.abs(w - tau).sum()))
    return best


def tv_distance(w1, w2):
    """Sum of absolute differences of two weight vectors on a shared support."""
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    if w1.shape != w2.shape:
        raise ValueError("weight vectors must have equal length")
    return float(np.abs(w1 - w2).sum())


def tv_optimum_analytic(weights):
    """Best achievable TV distance to the simplex: sum(neg part) + |sum(pos part) - 1|."""
    w = np.asarray(weights, dtype=float)
    pos = np.clip(w, 0.0, None).sum()
    neg = np.clip(-w, 0.0, None).sum()
    return float(neg + abs(pos - 1.0))


def abs_variance(spec):
    """Var(|noise|) of a ``NoiseSpec``, exactly, by its closed form. Sizes
    Monte-Carlo tolerances."""
    p = math.exp(-spec.eps)
    second = 2.0 * p / (1.0 - p) ** 2
    return second - expected_abs(spec) ** 2


def maximal_coupling_bernoulli(p, q, rng):
    """Pair of bits with marginals Ber(p), Ber(q) and P(bits differ) = |p - q|.

    One shared uniform threshold achieves the maximal coupling: the joint law
    is (1,1) w.p. min(p,q), (1,0) w.p. p - min, (0,1) w.p. q - min,
    (0,0) w.p. 1 - max(p,q). The generator draws each matched pair's edges
    this way, with the uniform shared by both graphs.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p, q must lie in [0,1]")
    u = rng.random()
    return int(u < p), int(u < q)


def sample_common_indicator(probs, rng):
    """Cell k with probability probs[k], or None with the residual probability.

    ``probs`` are the per-cell minima min(counts_k/n, private_k); their sum
    must not exceed 1 (a tiny numerical overshoot is clamped).
    """
    probs = np.asarray(probs, dtype=float)
    total = probs.sum()
    if total > 1.0 + 1e-9:
        raise ValueError(f"indicator probabilities sum to {total} > 1")
    u = rng.random()
    if u >= total:
        return None
    return int(np.searchsorted(np.cumsum(probs), u, side="right"))


def residual_cell_sampler(base, common, rng):
    """Cell draw conditional on the common indicator having returned None:
    cell k with probability (base_k - common_k) / (1 - sum(common)), the
    residual law computed here on its own, not by the generator.

    Composing the indicator with this residual reproduces the base categorical
    law exactly: P(k) = common_k + P(none) * (base_k - common_k)/P(none).
    """
    res = np.asarray(base, dtype=float) - np.asarray(common, dtype=float)
    if res.min() < 0.0 or res.sum() <= 0.0:
        raise ValueError(f"no residual law: base - common = {res}")
    return int(np.searchsorted(np.cumsum(res) / res.sum(), rng.random(), side="right"))


def cell_indices_reference(partition, points):
    """Int64 cell keys: each axis truncated, then clamped to k - 1, and the
    axes flattened in C order; the reference for ``space.cell_indices``."""
    k = partition.k_per_axis
    axis_idx = np.minimum((np.asarray(points, dtype=float) * k).astype(np.int64), k - 1)
    flat = np.zeros(axis_idx.shape[0], dtype=np.int64)
    for j in range(partition.d):
        flat = flat * k + axis_idx[:, j]
    return flat


def bins_reference(partition, points):
    """``(counts, order, offsets)`` from the int64 keys and a stable argsort;
    the reference for ``AttributeDataset.bins``."""
    keys = cell_indices_reference(partition, points)
    counts = np.bincount(keys, minlength=partition.m)
    return counts, np.argsort(keys, kind="stable"), np.cumsum(counts) - counts


def load_points_csv_reference(path, d):
    """The points CSV read one ``csv.reader`` row at a time: the reference for
    ``privgraph.space.load_points_csv``. Rows that are empty, or whose fields
    are all blank, are skipped; errors name the 1-based file line where the
    row ends."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            lineno = reader.line_num
            if len(row) < d:
                raise ValueError(f"row {lineno}: expected {d} columns, got {len(row)}")
            try:
                vals = [float(c) for c in row[:d]]
            except ValueError as exc:
                raise ValueError(f"row {lineno}: non-numeric value ({exc})") from None
            for v in vals:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"row {lineno}: value {v} outside [0,1]")
            rows.append(vals)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return AttributeDataset(points=rows)
