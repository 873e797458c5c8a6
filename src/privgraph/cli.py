"""Command-line surface: generate, evaluate, bounds, table, project, noisecheck,
dist, mc. Configuration comes from flags set over a single JSON file (--config);
a manifest written by a previous run is itself a valid config."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .experiments import ExperimentConfig, cmd_evaluate, cmd_generate, cmd_mc
from .fgw import FgwParams, exact_small_search, fgw_upper_bound
from .graphs import graph_from_json
from .measures import tv_project
from .noise import discrete_laplace, dp_ratio_satisfied
from .space import _is_real


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _read_object(path: str, required, allowed=None) -> dict:
    """The JSON object in ``path``, refused naming the first key of
    ``required`` it lacks or, when ``allowed`` is given, the keys outside it."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{path}: missing key {missing[0]!r}")
    unknown = [] if allowed is None else sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")
    return obj


def _emit(text: str, out: str | None) -> None:
    """``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> tuple[ExperimentConfig, list[float] | None]:
    """The config of the flags set over --config's file or manifest, checked
    once by :meth:`ExperimentConfig.from_dict`, and the levels a manifest records."""
    # a flag left unset reads None (False for a switch) and keeps the config's value
    flags = {
        name: val
        for name in ExperimentConfig.__dataclass_fields__
        if (val := getattr(args, name, None)) is not None and val is not False
    }
    if getattr(args, "emit", None) == "dot":
        flags["emit_dot"] = True
    obj = _read_object(args.config, []) if args.config else {}
    return ExperimentConfig.from_dict(obj, **flags), obj.get("eps_list")


def _add_experiment_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config or a manifest from a previous run")
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--metric", choices=["sup", "euclidean"])
    p.add_argument("--data", help="CSV of attribute points in [0,1]^d")
    p.add_argument("--recipe", choices=["half_zero_one", "uniform"])
    p.add_argument("--n", type=int, help="synthetic recipe size")
    p.add_argument("--m", help='partition size request or "auto"')
    p.add_argument("--a", help='expected true-graph size or "auto"')
    p.add_argument("--b", help='expected synthetic-graph size or "auto"')
    p.add_argument("--kernel", choices=["chung-lu", "constant", "inverse-distance"])
    p.add_argument("--kernel-param", dest="kernel_param", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--replicates", type=int)
    p.add_argument("--refine-iters", dest="refine_iters", type=int)
    p.add_argument("--out", dest="out_dir")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="privgraph",
        description="Private synthetic attributed graphs with utility guarantees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate coupled graph pairs")
    _add_experiment_flags(p_gen)
    p_gen.add_argument("--eps-list", type=_float_list, help="comma list; one pair per level")
    p_gen.add_argument("--emit", choices=["dot"], help="also write DOT files")
    p_gen.add_argument("--private-only", action="store_true", help="write only what the noisy counts determine")

    p_eval = sub.add_parser("evaluate", help="replicate distances vs. theoretical bounds")
    _add_experiment_flags(p_eval)
    p_eval.add_argument("--ipm-samples", dest="ipm_samples", type=int, help="replicates the IPM bound scores")

    p_bounds = sub.add_parser("bounds", help="per-term bound report for given inputs")
    p_bounds.add_argument("--json", required=True, help="JSON file of bound inputs")
    p_bounds.add_argument("--out", help="write report JSON here (default stdout)")

    p_table = sub.add_parser("table", help="bound table over (eps, n) grids")
    p_table.add_argument("--d", type=int, default=2)
    p_table.add_argument("--alpha", type=float, default=0.5)
    p_table.add_argument("--C", type=float, default=1.0)
    p_table.add_argument("--Lk", type=float, default=1.0)
    p_table.add_argument("--eps", type=_float_list, default=list(bnd.DEFAULT_TABLE_EPS))
    p_table.add_argument("--n", type=_int_list, default=list(bnd.DEFAULT_TABLE_N))
    p_table.add_argument("--out", help="write CSV here (default stdout)")

    p_proj = sub.add_parser("project", help="TV-project a signed measure onto the simplex")
    p_proj.add_argument("measure", help='JSON file: {"weights": [...]}')

    p_noise = sub.add_parser("noisecheck", help="verify the likelihood ratio of one count shifted by 1; with n "
                             "public, replacing a point moves two counts, so the release is 2*level-DP")
    p_noise.add_argument("--eps", type=float, default=1.0, help="discrete-Laplace noise parameter")
    p_noise.add_argument("--level", type=float, help="privacy level to check (default --eps)")

    p_dist = sub.add_parser("dist", help="FGW distance between two graph JSON files")
    p_dist.add_argument("graph_a")
    p_dist.add_argument("graph_b")
    p_dist.add_argument("--alpha", type=float, default=0.5)
    p_dist.add_argument("--cap", type=float, default=1.0)
    p_dist.add_argument("--metric", choices=["sup", "euclidean"], default="sup")
    p_dist.add_argument("--out", help="write JSON here (default stdout)")

    p_mc = sub.add_parser("mc", help="Monte-Carlo expected FGW over generator runs")
    _add_experiment_flags(p_mc)
    p_mc.add_argument("--reps", dest="replicates", type=int, help="alias for --replicates")

    args = parser.parse_args(argv)

    try:
        if args.command == "generate":
            cfg, levels = _config_from_args(args)
            eps_list = args.eps_list
            if eps_list is None and args.eps is None:
                eps_list = levels
            outputs = cmd_generate(cfg, eps_list=eps_list)
            print("\n".join(outputs))
            return 0

        if args.command == "evaluate":
            summary = cmd_evaluate(_config_from_args(args)[0])
            print(json.dumps(summary, indent=2, sort_keys=True))
            ok = summary["coupling_bound_satisfied"] and summary["sandwich_satisfied"]
            return 0 if ok else 3

        if args.command == "bounds":
            names = [f.name for f in fields(bnd.BoundInputs)]
            required = [f.name for f in fields(bnd.BoundInputs) if f.default is MISSING]
            obj = _read_object(args.json, required, allowed=names)
            payload = {
                key: {"terms": val.terms, "total": val.total} if isinstance(val, bnd.BoundTerms) else asdict(val)
                for key, val in bnd.bound_report(bnd.BoundInputs(**obj)).items()
            }
            _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
            return 0

        if args.command == "table":
            table = bnd.bound_table(
                eps_list=args.eps, n_list=args.n, d=args.d, alpha=args.alpha, C=args.C, L_kappa=args.Lk
            )
            csv_text = table.to_csv()
            monotone = all(
                row[1 + 2 * j] > row[3 + 2 * j] and row[2 + 2 * j] > row[4 + 2 * j]
                for row in table.rows
                for j in range(len(args.n) - 1)
            )
            _emit(f"{csv_text}# entries decrease in n at fixed eps: {monotone}\n", args.out)
            return 0

        if args.command == "project":
            weights = _read_object(args.measure, ["weights"], allowed=["weights"])["weights"]
            if not (isinstance(weights, list) and all(map(_is_real, weights))):
                raise ValueError(f"{args.measure}: 'weights' must be a list of numbers")
            projected, dist = tv_project(weights)
            print(json.dumps({"weights": projected.tolist(), "distance": dist}))
            return 0

        if args.command == "noisecheck":
            level = args.level if args.level is not None else args.eps
            report = dp_ratio_satisfied(discrete_laplace(args.eps), level)
            print(json.dumps({**asdict(report), "bound": float(np.exp(level))}))
            return 0 if report.satisfied else 2

        if args.command == "dist":
            params = FgwParams(alpha=args.alpha, C=args.cap, metric=args.metric)
            ga = graph_from_json(Path(args.graph_a).read_text())
            gb = graph_from_json(Path(args.graph_b).read_text())
            if ga.n_vertices <= 4 and gb.n_vertices <= 4:
                value, coupling = exact_small_search(ga, gb, params)
                mode = "exact_small"
            else:
                value, coupling = fgw_upper_bound(ga, gb, params, iterations=50)
                mode = "upper_bound"
            _emit(json.dumps({"value": value, "mode": mode, "coupling": coupling.tolist()}) + "\n", args.out)
            return 0

        if args.command == "mc":
            cfg = _config_from_args(args)[0]
            res = cmd_mc(cfg)
            print("mean,stderr,plan_mean,plan_stderr")
            print(",".join(f"{v:.9g}" for v in (res.mean, res.stderr, res.plan_mean, res.plan_stderr)))
            return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
