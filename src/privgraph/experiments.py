"""Experiment configuration, manifests, and the generate/evaluate/mc commands behind the CLI.

A config fully determines an experiment: dataset (file or synthetic recipe),
space, partition request (or "auto" via the optimal parameter rule), privacy
level, expected sizes (or "auto"), kernel, FGW parameters, replicate count,
and a mandatory master seed. The noise is not a setting: every experiment
adds discrete-Laplace noise, the one noise here whose release is ε-DP.
Replicate r always draws from ``default_rng(SeedSequence(seed).spawn()[r])``,
and the "uniform" recipe from ``default_rng(SeedSequence(seed))``.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import bounds as bnd
from .fgw import FgwParams, McFgwResult, ipm_lower_bound, mc_expected_fgw, reference_graphs, spawn_streams

# Re-exported, not called here: benchmarks/tracing.py times each replicate by
# wrapping the runner it finds as privgraph.experiments.run_replicates.
from .fgw import run_replicates  # noqa: F401
from .generator import DRAW_ORDER, generate_coupled_graphs
from .graphs import Kernel, chung_lu, constant_kernel, graph_to_dot, inverse_distance
from .noise import NoiseSpec, discrete_laplace
from .space import AttributeDataset, Partition, SpaceConfig, _is_int, _is_real, build_grid_partition, load_points_csv


def _spelt(value):
    """The number a string such as "12" or "2.5" spells (flags arrive as
    text), with an integral float as an int; any other value as it is."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return value
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    eps: float = 1.0
    d: int = 1
    metric: str = "sup"
    data: str | None = None  # CSV path
    recipe: str | None = None  # "half_zero_one" or "uniform"
    n: int = 1000  # recipe size
    m: int | str = "auto"
    a: float | str = "auto"
    b: float | str = "auto"
    kernel: str = "chung-lu"
    kernel_param: float = 0.5
    alpha: float = 0.5
    C: float = 1.0
    replicates: int = 100
    refine_iters: int = 2
    ipm_samples: int = 50  # replicates whose graphs the IPM lower bound scores
    private_only: bool = False
    emit_dot: bool = False
    out_dir: str = "."

    def __post_init__(self):
        """The one check of a config, however it was made: from flags, a JSON
        file, a manifest or :func:`dataclasses.replace`. A numeral for ``m``,
        ``a`` or ``b`` becomes the number it spells."""
        m, a, b = (_spelt(v) for v in (self.m, self.a, self.b))
        for name, value, low in (("seed", self.seed, 0), ("d", self.d, 1), ("n", self.n, 1), ("m", m, 1),
                                 ("replicates", self.replicates, 1), ("refine_iters", self.refine_iters, 0),
                                 ("ipm_samples", self.ipm_samples, 1)):
            if not (_is_int(value) and value >= low or name == "m" and value == "auto"):
                rule = ('"auto" or ' if name == "m" else "") + f"an integer >= {low}"
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        for name in ("eps", "kernel_param", "alpha", "C"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name, value in (("a", a), ("b", b)):
            if not (value == "auto" or _is_real(value) and 0 < value < math.inf):
                raise ValueError(f'{name} must be "auto" or finite and > 0, got {getattr(self, name)!r}')
        for name, kind, rule in (("data", (str, type(None)), "a path string or null"), ("out_dir", str, "a string"),
                                 ("private_only", bool, "true or false"), ("emit_dot", bool, "true or false")):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.data and self.recipe:
            raise ValueError(f"data ({self.data!r}) and recipe ({self.recipe!r}) are both set; give one of them")
        object.__setattr__(self, "m", m if m == "auto" else int(m))
        object.__setattr__(self, "a", a if a == "auto" else float(a))
        object.__setattr__(self, "b", b if b == "auto" else float(b))

    @classmethod
    def from_dict(cls, obj: dict, **overrides) -> "ExperimentConfig":
        """The config of ``obj``, a dict or a manifest, with ``overrides`` (the
        flags, ``seed`` among them) set over its keys, then checked once: a
        misspelt key (say "epsilon") or a retired one (say "noise_kind") is an
        error, the seed is mandatory, and ``__post_init__`` checks each value.
        A manifest replays only under the draw order it was written with.
        """
        if "config" in obj:  # a manifest: its config plus the resolved_* values it records
            order = obj.get("draw_order")
            if order != DRAW_ORDER:
                recorded = "no draw order (so draw order 1)" if order is None else f"draw order {order}"
                raise ValueError(
                    f"the manifest records {recorded}, but this privgraph generates under "
                    f"draw order {DRAW_ORDER}; it would replay into different graphs"
                )
            obj = {k: v for k, v in obj["config"].items() if not k.startswith("resolved_")}
        obj = {**obj, **overrides}
        unknown = sorted(set(obj) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if obj.get("seed") is None:
            raise ValueError('seed is mandatory in experiment mode: give --seed or a "seed" in the config')
        return cls(**obj)


def make_recipe_dataset(recipe: str, n: int, d: int, seed: int) -> AttributeDataset:
    """Synthetic datasets: "half_zero_one" (half attrs 0, half 1, any d) or
    "uniform" (iid uniform on the cube, drawn from the root ``SeedSequence(seed)``,
    which no replicate stream of :func:`spawn_streams` shares)."""
    if recipe == "half_zero_one":
        pts = np.zeros((n, d))
        pts[n // 2 :] = 1.0
        return AttributeDataset(points=pts)
    if recipe == "uniform":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return AttributeDataset(points=rng.random((n, d)))
    raise ValueError(f"unknown recipe {recipe!r}")


def make_kernel(name: str, param: float, d: int, metric: str) -> Kernel:
    if name in ("chung-lu", "chung_lu"):
        if not math.isfinite(param):  # unused here, but the manifest records it as JSON
            raise ValueError(f"kernel_param must be finite, got {param}")
        return chung_lu(d=d)
    if name == "constant":
        return constant_kernel(param)
    if name in ("inverse-distance", "inverse_distance"):
        return inverse_distance(param, metric=metric)
    raise ValueError(f"unknown kernel {name!r}")


@dataclass
class ResolvedExperiment:
    config: ExperimentConfig
    dataset: AttributeDataset
    partition: Partition
    noise: NoiseSpec
    kernel: Kernel
    params: FgwParams
    a: float
    b: float

    @property
    def level(self) -> dict:
        """The privacy level and the sizes resolved at it."""
        return {"eps": self.config.eps, "resolved_m": self.partition.m,
                "resolved_k_per_axis": self.partition.k_per_axis, "resolved_a": self.a, "resolved_b": self.b}

    @property
    def manifest_config(self) -> dict:
        return {**asdict(self.config), **self.level, "resolved_n": self.dataset.n}

    def monte_carlo(self, keep_graphs: int = 0) -> McFgwResult:
        """The config's replicates through the one replicate kernel,
        :func:`privgraph.fgw.mc_expected_fgw`."""
        cfg = self.config
        return mc_expected_fgw(
            self.dataset, self.partition, self.noise, self.a, self.b, self.kernel, self.params,
            cfg.replicates, cfg.seed, refine_iters=cfg.refine_iters, keep_graphs=keep_graphs,
        )


def resolve(cfg: ExperimentConfig, dataset: AttributeDataset | None = None) -> ResolvedExperiment:
    """The config's objects. Those that check a setting are built before the
    dataset is read, so a bad setting fails before any file is opened. A
    ``dataset`` given is the config's own, read once for all its levels."""
    space = SpaceConfig(d=cfg.d, metric=cfg.metric)
    kernel = make_kernel(cfg.kernel, cfg.kernel_param, cfg.d, cfg.metric)
    params = FgwParams(alpha=cfg.alpha, C=cfg.C, metric=cfg.metric)
    noise = discrete_laplace(cfg.eps)
    if dataset is None:
        if cfg.data:
            dataset = load_points_csv(cfg.data, cfg.d)
        elif cfg.recipe:
            dataset = make_recipe_dataset(cfg.recipe, cfg.n, cfg.d, cfg.seed)
        else:
            raise ValueError("config needs either a data path or a recipe")
    m_request = bnd.optimal_params(cfg.eps, dataset.n, cfg.d).m_request if cfg.m == "auto" else cfg.m
    partition = build_grid_partition(space, m_request)
    auto_a = float(partition.m) ** (2.0 / cfg.d)  # a = m^(2/d), as in bounds.optimal_params
    return ResolvedExperiment(
        config=cfg,
        dataset=dataset,
        partition=partition,
        noise=noise,
        kernel=kernel,
        params=params,
        a=auto_a if cfg.a == "auto" else cfg.a,
        b=auto_a if cfg.b == "auto" else cfg.b,
    )


def write_manifest(path: Path, command: str, resolved: ResolvedExperiment, outputs: list[str], t0: float,
                   levels: list[dict] | None = None) -> None:
    """``levels``, a ``generate`` run's :attr:`ResolvedExperiment.level` values,
    are recorded with their ``eps_list`` and one seed path per level."""
    streams = resolved.config.replicates if levels is None else len(levels)
    manifest = {
        "tool": "privgraph",
        "version": __version__,
        "command": command,
        "draw_order": DRAW_ORDER,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config": resolved.manifest_config,
        "seeding": "replicate r uses default_rng(SeedSequence(seed).spawn()[r])",
        "replicate_seed_paths": [[resolved.config.seed, r] for r in range(streams)],
        "outputs": outputs,
        "timing_s": round(time.time() - t0, 3),
        **({} if levels is None else {"eps_list": [lv["eps"] for lv in levels], "levels": levels}),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_generate(cfg: ExperimentConfig, eps_list: list[float] | None = None) -> list[str]:
    """Generate one coupled pair per privacy level, level i from replicate
    stream i; write JSON (+ optional DOT) and a manifest that records the
    levels, sufficient for bit-exact replay. Every level is checked before
    anything is written."""
    t0 = time.time()
    eps_values = [cfg.eps] if eps_list is None else eps_list
    if not eps_values:
        raise ValueError("--eps-list gives no privacy level")
    tags = [f"eps{eps:g}" for eps in eps_values]
    for idx, tag in enumerate(tags):
        first = tags.index(tag)
        if first < idx:
            raise ValueError(
                f"levels {eps_values[first]!r} and {eps_values[idx]!r} would both be written to pair_{tag}.json"
            )
    levels = [resolve(replace(cfg, eps=eps_values[0]))]
    levels += [resolve(replace(cfg, eps=eps), levels[0].dataset) for eps in eps_values[1:]]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    streams = spawn_streams(cfg.seed, len(eps_values))
    for idx, (resolved, tag) in enumerate(zip(levels, tags)):
        pair = generate_coupled_graphs(
            resolved.dataset,
            resolved.partition,
            resolved.noise,
            resolved.a,
            resolved.b,
            resolved.kernel,
            streams[idx],
        )
        pair_path = out_dir / f"pair_{tag}.json"
        pair_path.write_text(json.dumps(pair.to_dict(private_only=cfg.private_only), sort_keys=True) + "\n")
        outputs.append(str(pair_path))
        if cfg.emit_dot:
            if idx == 0 and not cfg.private_only:
                p = out_dir / "true.dot"
                p.write_text(graph_to_dot(pair.true_graph, name="true_graph"))
                outputs.append(str(p))
            p = out_dir / f"synthetic_{tag}.dot"
            p.write_text(graph_to_dot(pair.synthetic_graph, name="synthetic_graph"))
            outputs.append(str(p))
    write_manifest(out_dir / "manifest.json", "generate", resolved, outputs, t0, levels=[lv.level for lv in levels])
    return outputs


def cmd_mc(cfg: ExperimentConfig) -> McFgwResult:
    """Monte-Carlo expected FGW distance and matched-plan charge over the
    config's replicates."""
    return resolve(cfg).monte_carlo()


def cmd_evaluate(cfg: ExperimentConfig, ipm_samples: int | None = None) -> dict:
    """Per-replicate distance statistics against the theoretical bounds.

    Writes evaluate.csv (per-replicate rows + summary row) and a manifest.
    Returns the summary as a dict. ``ipm_samples``, when given, replaces
    ``cfg.ipm_samples``, so the manifest records the value that ran.
    """
    t0 = time.time()
    if ipm_samples is not None:
        cfg = replace(cfg, ipm_samples=ipm_samples)
    resolved = resolve(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    inp = bnd.bound_inputs_from(
        resolved.partition,
        resolved.dataset.n,
        resolved.noise,
        resolved.a,
        resolved.b,
        resolved.params,
        resolved.kernel,
        cfg.eps,
    )
    coupling_total = bnd.expected_fgw_bound(inp).total
    grid_total = None
    try:
        grid_total = bnd.expected_fgw_bound_grid(inp).total
    except ValueError:  # the grid form does not cover these inputs
        pass

    res = resolved.monte_carlo(keep_graphs=cfg.ipm_samples)
    trues, syns = zip(*res.graphs)
    ipm = ipm_lower_bound(
        trues,
        syns,
        reference_graphs(cfg.d),
        resolved.params,
        refine_iters=max(cfg.refine_iters, 1),
        empty_value=inp.rates.worst_cost,
    )

    summary = {
        "matched_plan_mean": res.plan_mean,
        "matched_plan_stderr": res.plan_stderr,
        "refined_mean": res.mean,
        "refined_stderr": res.stderr,
        "coupling_bound": coupling_total,
        "grid_coupling_bound": grid_total,
        "ipm_lower": ipm,
        "coupling_bound_satisfied": bool(res.plan_mean <= coupling_total + 3 * res.plan_stderr),
        "grid_bound_satisfied": (
            bool(res.plan_mean <= grid_total + 3 * res.plan_stderr) if grid_total is not None else None
        ),
        "sandwich_satisfied": bool(ipm <= res.mean + 3 * res.stderr),
    }

    def fmt(value) -> str:
        return "" if value is None else f"{value:.9g}"

    rows = [["replicate", "matched_plan_cost", "refined_fgw", "coupling_bound", "grid_coupling_bound", "ipm_lower", "evaluator"]]
    rows += [
        [str(r), fmt(charge), fmt(value), fmt(coupling_total), fmt(grid_total), "", evaluator]
        for r, (charge, value, evaluator) in enumerate(zip(res.plan_charges, res.values, res.evaluators))
    ]
    rows.append(
        ["summary", fmt(summary["matched_plan_mean"]), fmt(summary["refined_mean"]), fmt(coupling_total),
         fmt(grid_total), fmt(ipm), "+".join(sorted(set(res.evaluators)))]
    )
    csv_path = out_dir / "evaluate.csv"
    csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(out_dir / "manifest.json", "evaluate", resolved, [str(csv_path)], t0)
    return summary
