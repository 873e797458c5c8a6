"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget. Run with `pytest -s` to see the
lines as they complete."""

import math
import time

import numpy as np
from oracles import (grid_bounds_unrounded, tv_optimum_analytic, tv_project_bruteforce, tv_project_lp,
                     wasserstein_uniform_exact)
from scipy import stats

from privgraph.bounds import (
    BoundInputs,
    bound_inputs_from,
    bound_table,
    expected_fgw_bound,
    expected_fgw_bound_grid,
    laplace_noise_factor,
    optimal_params,
    rate_bounds,
)
from privgraph.experiments import ExperimentConfig, cmd_generate, make_recipe_dataset
from privgraph.fgw import (
    FgwParams,
    exact_small_search,
    fgw_cost,
    fgw_to_reference,
    fgw_upper_bound,
    graph_to_measure,
    matched_plan_cost,
    mc_expected_fgw,
    plan_cost_exact,
    reference_graphs,
    spawn_streams,
)
from privgraph.generator import generate_coupled_graphs
from privgraph.graphs import AttributedGraph, chung_lu, kernel_matrix
from privgraph.measures import run_private_measure, tv_project, true_counts
from privgraph.noise import discrete_laplace, dp_ratio_satisfied, sample
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition


def _report(num: int, name: str, ok: bool, t0: float, budget: float) -> float:
    elapsed = time.time() - t0
    print(f"\nCRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.1f}s (budget {budget:.0f}s)")
    return elapsed


def test_criterion_1_tv_projection_optimality():
    t0 = time.time()
    rng = np.random.default_rng(20240101)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        w = rng.uniform(-1.0, 2.0, size=m)
        d_lp = tv_project_lp(w)
        ok &= abs(d_lp - tv_project_bruteforce(w)) < 1e-6
        ok &= abs(d_lp - tv_optimum_analytic(w)) < 1e-9
        _, d = tv_project(w)  # the projection the mechanism runs
        ok &= abs(d - tv_project_bruteforce(w)) < 1e-6
        ok &= abs(d - tv_optimum_analytic(w)) < 1e-9
    elapsed = _report(1, "TV projection optimality", ok, t0, 30)
    assert ok and elapsed < 30


def _wilson(count: int, n: int, z: float = 2.5758293):
    phat = count / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def test_criterion_2_dp_ratio():
    t0 = time.time()
    ok = True
    # exact pmf scans
    for eps in (0.5, 1.0, 2.0):
        rep = dp_ratio_satisfied(discrete_laplace(eps), eps)
        ok &= rep.satisfied and abs(rep.worst_ratio - math.exp(eps)) < 1e-12
    # empirical neighboring-dataset histograms: one point crosses a boundary
    runs = 100_000
    m = 4
    counts_a = np.array([10, 10, 10, 10])
    counts_b = np.array([9, 11, 10, 10])
    for i_eps, eps in enumerate((0.5, 1.0)):
        noise = discrete_laplace(eps)
        bound = math.exp(eps)
        rng = np.random.default_rng(777 + i_eps)
        lam_a = sample(noise, rng, size=runs * m).reshape(runs, m)
        lam_b = sample(noise, rng, size=runs * m).reshape(runs, m)
        noisy_a = counts_a[None, :] + lam_a
        noisy_b = counts_b[None, :] + lam_b
        for cell in range(m):
            vals = np.union1d(noisy_a[:, cell], noisy_b[:, cell])
            for v in vals:
                ca = int((noisy_a[:, cell] == v).sum())
                cb = int((noisy_b[:, cell] == v).sum())
                lo_a, hi_a = _wilson(ca, runs)
                lo_b, hi_b = _wilson(cb, runs)
                ok &= lo_a <= bound * hi_b + 1e-12
                ok &= lo_b <= bound * hi_a + 1e-12
    elapsed = _report(2, "privacy ratio", ok, t0, 120)
    assert ok and elapsed < 120


def _poisson_gof_pvalue(samples: np.ndarray, lam: float) -> float:
    if lam < 1e-12:
        return 1.0 if np.all(samples == 0) else 0.0
    hi = max(int(samples.max()), 1)
    observed = np.bincount(samples, minlength=hi + 1).astype(float)
    probs = stats.poisson(lam).pmf(np.arange(hi + 1))
    probs[-1] = stats.poisson(lam).sf(hi - 1)
    exp = probs * samples.size
    keep = exp >= 5
    obs_m, exp_m = observed[keep], exp[keep]
    if (~keep).any():
        obs_m = np.concatenate([obs_m, [observed[~keep].sum()]])
        exp_m = np.concatenate([exp_m, [exp[~keep].sum()]])
    chi2 = float(((obs_m - exp_m) ** 2 / exp_m).sum())
    return float(stats.chi2.sf(chi2, df=obs_m.size - 1))


def test_criterion_3_marginals_and_couplings():
    t0 = time.time()
    d, m, ab = 1, 8, 50.0
    reps = 2000
    rng = np.random.default_rng(31)
    part = build_grid_partition(SpaceConfig(d=d), m)
    data = AttributeDataset(points=rng.random((400, d)))
    kern = chung_lu(d)
    noise = discrete_laplace(1.0)
    private = run_private_measure(data, part, noise, np.random.default_rng(555))
    base = true_counts(data, part) / data.n
    nu_hat = private.private_weights

    t_counts = np.zeros((reps, m), dtype=int)
    s_counts = np.zeros((reps, m), dtype=int)
    t_edge_obs = t_edge_exp = t_edge_var = 0.0
    s_edge_obs = s_edge_exp = s_edge_var = 0.0
    dis_obs = dis_exp = dis_var = 0.0
    for r, stream in enumerate(spawn_streams(12345, reps)):
        pair = generate_coupled_graphs(data, part, noise, ab, ab, kern, stream, private=private)
        tg, sg = pair.true_graph, pair.synthetic_graph
        from privgraph.space import cell_indices

        if tg.n_vertices:
            t_counts[r] = np.bincount(cell_indices(part, tg.attributes), minlength=m)
        if sg.n_vertices:
            s_counts[r] = np.bincount(cell_indices(part, sg.attributes), minlength=m)
        # edge marginals, aggregated z-statistics over all unordered pairs
        for g, acc in ((tg, "t"), (sg, "s")):
            n_v = g.n_vertices
            if n_v < 2:
                continue
            probs = kernel_matrix(kern, g.attributes, g.attributes)
            iu = np.triu_indices(n_v, 1)
            p = probs[iu]
            obs = float(np.triu(g.adjacency, 1).sum())
            if acc == "t":
                t_edge_obs += obs
                t_edge_exp += float(p.sum())
                t_edge_var += float((p * (1 - p)).sum())
            else:
                s_edge_obs += obs
                s_edge_exp += float(p.sum())
                s_edge_var += float((p * (1 - p)).sum())
        # disagreement rate on matched-pair edges; matched pair s is vertex s of both graphs
        z = pair.match_count
        if z >= 2:
            kt = kernel_matrix(kern, tg.attributes[:z], tg.attributes[:z])
            ks = kernel_matrix(kern, sg.attributes[:z], sg.attributes[:z])
            iu = np.triu_indices(z, 1)
            diff = np.abs(kt[iu] - ks[iu])
            disagree = np.triu(tg.adjacency[:z, :z] != sg.adjacency[:z, :z], 1).sum()
            dis_obs += float(disagree)
            dis_exp += float(diff.sum())
            dis_var += float((diff * (1 - diff)).sum())

    ok = True
    for k in range(m):
        ok &= _poisson_gof_pvalue(t_counts[:, k], ab * base[k]) > 0.01
        ok &= _poisson_gof_pvalue(s_counts[:, k], ab * nu_hat[k]) > 0.01
    z_crit = stats.norm.ppf(0.995)
    z_t = (t_edge_obs - t_edge_exp) / math.sqrt(t_edge_var)
    z_s = (s_edge_obs - s_edge_exp) / math.sqrt(s_edge_var)
    ok &= abs(z_t) < z_crit and abs(z_s) < z_crit
    ok &= abs(dis_obs - dis_exp) < 4 * math.sqrt(dis_var)
    elapsed = _report(3, "generator marginals and couplings", ok, t0, 180)
    assert ok and elapsed < 180


GRID = [(d, eps, n) for d in (1, 2) for eps in (0.1, 1.0) for n in (200, 1000)]
_GRID_CACHE: dict = {}


def _run_grid_cell(d: int, eps: float, n: int, reps: int = 500):
    key = (d, eps, n)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    opt = optimal_params(eps, n, d)
    part = build_grid_partition(SpaceConfig(d=d), opt.m_request)
    data_rng = np.random.default_rng(hash(key) % (2**32))
    data = AttributeDataset(points=data_rng.random((n, d)))
    kern = chung_lu(d)
    params = FgwParams(alpha=0.5, C=1.0)
    noise = discrete_laplace(eps)
    refs = reference_graphs(d)
    singles = [g for g in refs if g.n_vertices == 1]
    multis = [g for g in refs if g.n_vertices > 1]
    ipm_pairs_cap = 150

    charges = np.zeros(reps)
    plan_vals = np.zeros(reps)
    f_single_t = np.zeros(len(singles))
    f_single_s = np.zeros(len(singles))
    f_multi_t = np.zeros(len(multis))
    f_multi_s = np.zeros(len(multis))
    multi_done = 0
    from privgraph.fgw import worst_pair_cost

    worst = worst_pair_cost(params, 1.0, kern.lipschitz_constant)
    for r, stream in enumerate(spawn_streams(98765 + 7 * hash(key) % 1000, reps)):
        pair = generate_coupled_graphs(data, part, noise, opt.a, opt.a, kern, stream)
        charges[r] = matched_plan_cost(pair, params)
        plan_vals[r] = plan_cost_exact(pair, params)
        for i, ref in enumerate(singles):
            f_single_t[i] += fgw_to_reference(ref, pair.true_graph, params, empty_value=worst)
            f_single_s[i] += fgw_to_reference(ref, pair.synthetic_graph, params, empty_value=worst)
        if r < ipm_pairs_cap:
            for i, ref in enumerate(multis):
                f_multi_t[i] += fgw_to_reference(
                    ref, pair.true_graph, params, refine_iters=0, empty_value=worst
                )
                f_multi_s[i] += fgw_to_reference(
                    ref, pair.synthetic_graph, params, refine_iters=0, empty_value=worst
                )
            multi_done += 1
    gaps = list(np.abs(f_single_t - f_single_s) / reps)
    if multi_done:
        gaps += list(np.abs(f_multi_t - f_multi_s) / multi_done)
    result = {
        "charges": charges,
        "plan_vals": plan_vals,
        "ipm_lower": max(gaps),
        "inputs": BoundInputs(
            a=opt.a, b=opt.a, n=n, m=opt.m, eps=eps, d=d,
            alpha=0.5, C=1.0, L_kappa=kern.lipschitz_constant,
        ),
    }
    _GRID_CACHE[key] = result
    return result


def test_criterion_4_bound_dominance_grid():
    t0 = time.time()
    ok = True
    for d, eps, n in GRID:
        cell = _run_grid_cell(d, eps, n)
        charges = cell["charges"]
        mean = charges.mean()
        se = charges.std(ddof=1) / math.sqrt(charges.size)
        general = expected_fgw_bound(cell["inputs"]).total
        grid = expected_fgw_bound_grid(cell["inputs"]).total
        cell_ok = mean <= general + 3 * se and mean <= grid + 3 * se
        ok &= cell_ok
        print(
            f"  cell d={d} eps={eps} n={n}: mean={mean:.4f} se={se:.4f} "
            f"general={general:.4f} grid={grid:.4f} {'ok' if cell_ok else 'FAIL'}"
        )
    elapsed = _report(4, "bound dominance on the parameter grid", ok, t0, 600)
    assert ok and elapsed < 600


def test_criterion_5_sandwich():
    t0 = time.time()
    ok = True
    for d, eps, n in GRID:
        cell = _run_grid_cell(d, eps, n)
        vals = cell["plan_vals"]
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        cell_ok = cell["ipm_lower"] <= mean + 3 * se
        ok &= cell_ok
        print(
            f"  cell d={d} eps={eps} n={n}: ipm={cell['ipm_lower']:.4f} "
            f"mc={mean:.4f}+-{se:.4f} {'ok' if cell_ok else 'FAIL'}"
        )
    elapsed = _report(5, "distribution-distance sandwich", ok, t0, 600)
    assert ok and elapsed < 600


def test_criterion_6_rates():
    t0 = time.time()
    ok = True
    eps = 1.0
    ns = [100, 1000, 10_000, 100_000]
    for d in (1, 2):
        logs = []
        for n in ns:
            opt = optimal_params(eps, n, d)
            inp = BoundInputs(a=opt.a, b=opt.a, n=n, m=opt.m, eps=eps, d=d)
            logs.append(math.log(expected_fgw_bound_grid(inp).total))
        slope = np.polyfit(np.log(ns), logs, 1)[0]
        ok &= abs(slope + 1.0 / (d + 1)) < 0.05
        # un-rounded evaluations against the closed-form rates: constant factors
        coup_ratio, power_ratio, log_ratio = [], [], []
        alpha, C, L = 0.5, 1.0, 1.0
        c_alpha = (1 - alpha) + alpha * C
        for n in ns:
            c_val, s_val = grid_bounds_unrounded(eps, n, d, alpha, C, L)
            rates = rate_bounds(eps, n, d, alpha, C, L)
            coup_ratio.append(c_val / rates.coupling)
            x = (eps * n) ** (-1.0 / (d + 1))
            power = (2 * (1 - alpha) + 4 * alpha * C * L) * x
            logterm = c_alpha * (1 + (2 / (d + 1)) * math.log(eps * n)) / (eps * n)
            power_ratio.append(power / power)
            log_ratio.append((s_val - power) / logterm)
        for ratios in (coup_ratio, power_ratio, log_ratio):
            ok &= float(np.var(ratios)) < 1e-6
        # the matched log-term factor is 2 eps g(eps)
        ok &= abs(log_ratio[0] - 2 * eps * laplace_noise_factor(eps)) < 1e-9
    elapsed = _report(6, "convergence rates", ok, t0, 1)
    assert ok and elapsed < 1


def _measured_rate_point(d, n, eps=1.0):
    """The replicate kernel at the optimal m and a = b (20 replicates,
    seed 1, plan values exact) on the uniform recipe's n points, and the
    coupling bound ``evaluate`` reports for those inputs."""
    opt = optimal_params(eps, n, d)
    part = build_grid_partition(SpaceConfig(d), opt.m)
    noise, kernel, params = discrete_laplace(eps), chung_lu(d), FgwParams()
    res = mc_expected_fgw(make_recipe_dataset("uniform", n, d, 1), part, noise, opt.a, opt.a, kernel, params,
                          replicates=20, seed=1, refine_iters=0)
    return res, expected_fgw_bound(bound_inputs_from(part, n, noise, opt.a, opt.a, params, kernel, eps)).total


def _log_log_slope(ns, means, stderrs):
    """Slope of log mean on log n by weighted least squares, each point
    weighted by 1/(stderr/mean)^2, the delta-method variance of its log,
    and the slope's standard error."""
    x, y = np.log(ns), np.log(means)
    w = (np.asarray(means) / np.asarray(stderrs)) ** 2
    xc = x - np.average(x, weights=w)
    sxx = float(np.sum(w * xc * xc))
    return float(np.sum(w * xc * y)) / sxx, sxx**-0.5


def test_measured_charge_decays_at_the_paper_rate():
    """Criterion 6 fits the bound's slope in n; this fits the slope of the
    measured matched-plan charge, which the bound dominates, at d = 2.
    -1/(d+1) must lie within slope +- (3 se + 0.05). With -s it prints the
    README's rows: n, charge, plan value, coupling bound, bound / charge."""
    ns = [100, 1000, 10_000, 100_000]
    points = [_measured_rate_point(2, n) for n in ns]
    for n, (res, bound) in zip(ns, points):
        print(f"\n{n} {res.plan_mean:.4f}±{res.plan_stderr:.4f} {res.mean:.4f}±{res.stderr:.4f} "
              f"{bound:.3f} {bound / res.plan_mean:.2f}")
    slope, se = _log_log_slope(ns, [r.plan_mean for r, _ in points], [r.plan_stderr for r, _ in points])
    print(f"charge slope {slope:.3f} ± {se:.3f}")
    assert abs(slope + 1.0 / 3.0) <= 3 * se + 0.05


def _random_small_graph(rng, n=None):
    n = n or int(rng.integers(2, 5))
    attrs = rng.random((n, 1))
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = adj | adj.T
    return AttributedGraph(attributes=attrs, identifiers=np.linspace(0.1, 0.9, n), adjacency=adj)


def test_criterion_7_fgw_engine():
    t0 = time.time()
    rng = np.random.default_rng(7007)
    params = FgwParams(alpha=0.5, C=1.0)
    ok = True
    # identity and symmetry
    for _ in range(6):
        a = _random_small_graph(rng)
        b = _random_small_graph(rng)
        ok &= exact_small_search(a, a, params)[0] < 1e-9
        ok &= abs(exact_small_search(a, b, params)[0] - exact_small_search(b, a, params)[0]) < 1e-6
    # alpha = 0 reduces to 1-Wasserstein (independent assignment oracle)
    p0 = FgwParams(alpha=0.0, C=1.0)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = _random_small_graph(rng, n=n)
        b = _random_small_graph(rng, n=n)
        oracle = wasserstein_uniform_exact(a.attributes, b.attributes)
        ok &= abs(exact_small_search(a, b, p0)[0] - oracle) < 1e-6
    # the constant-cost instance is exactly 0.5
    p1 = FgwParams(alpha=1.0, C=1.0)
    ga = AttributedGraph(
        attributes=np.array([[0.3], [0.7]]),
        identifiers=np.array([0.2, 0.8]),
        adjacency=np.array([[False, True], [True, False]]),
    )
    gb = AttributedGraph(
        attributes=np.array([[0.3], [0.7]]),
        identifiers=np.array([0.2, 0.8]),
        adjacency=np.zeros((2, 2), dtype=bool),
    )
    ok &= abs(exact_small_search(ga, gb, p1)[0] - 0.5) < 1e-12
    # conditional-gradient monotonicity on 200 random pairs
    for _ in range(200):
        a = _random_small_graph(rng)
        b = _random_small_graph(rng)
        pi = np.outer(graph_to_measure(a), graph_to_measure(b))
        prev = fgw_cost(pi, a, b, params)
        for _step in range(3):
            val, pi = fgw_upper_bound(a, b, params, init=pi, iterations=1)
            ok &= val <= prev + 1e-12
            prev = val
    elapsed = _report(7, "FGW engine", ok, t0, 60)
    assert ok and elapsed < 60


def test_criterion_8_bound_table():
    t0 = time.time()
    table = bound_table()  # default grid: eps rows x n in {100, 1000, 10000}
    ok = len(table.rows) >= 3 and len(table.rows[0]) == 7
    ok &= list(table.n_list) == [100, 1000, 10000] or tuple(table.n_list) == (100, 1000, 10000)
    for row in table.rows:
        for j in range(len(table.n_list) - 1):
            ok &= row[1 + 2 * j] > row[3 + 2 * j]
            ok &= row[2 + 2 * j] > row[4 + 2 * j]
    largest = max(range(len(table.rows)), key=lambda i: table.rows[i][0])
    for j in range(len(table.n_list)):
        ok &= table.rows[largest][1 + 2 * j] <= table.rows[largest][2 + 2 * j]
    elapsed = _report(8, "bound table regeneration", ok, t0, 1)
    assert ok and elapsed < 1


def test_criterion_9_pipeline_and_degree_correlation(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        recipe="half_zero_one",
        n=1000,
        d=1,
        a=100.0,
        b=100.0,
        m="auto",
        seed=90,
        emit_dot=True,
        out_dir=str(tmp_path),
    )
    outputs = cmd_generate(cfg, eps_list=[1.0, 0.1, 0.01])
    names = {o.split("/")[-1] for o in outputs}
    ok = {"true.dot", "synthetic_eps1.dot", "synthetic_eps0.1.dot", "synthetic_eps0.01.dot"} <= names
    ok &= {"pair_eps1.json", "pair_eps0.1.json", "pair_eps0.01.json"} <= names
    # attribute-degree correlation in the true graph
    pts = np.zeros((1000, 1))
    pts[500:] = 1.0
    data = AttributeDataset(points=pts)
    part = build_grid_partition(SpaceConfig(d=1), 32)
    kern = chung_lu(1)
    noise = discrete_laplace(1.0)
    rhos = []
    for stream in spawn_streams(42, 50):
        pair = generate_coupled_graphs(data, part, noise, 100.0, 100.0, kern, stream)
        g = pair.true_graph
        if g.n_vertices < 3 or np.unique(g.attributes[:, 0]).size < 2:
            continue
        rho = stats.spearmanr(g.attributes[:, 0], g.degrees()).statistic
        rhos.append(rho)
    ok &= len(rhos) >= 45 and float(np.mean(rhos)) > 0.5
    elapsed = _report(9, "pipeline and degree correlation", ok, t0, 60)
    assert ok and elapsed < 60
