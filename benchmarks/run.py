"""privgraph benchmark: replicate workloads through the real entry points.

Usage (from the repository root):

    python3 benchmarks/run.py --workload evaluate_dense --seed 1 --seconds 40 --trace 0
    python3 benchmarks/selftest.py      # fast check of the benchmark itself

Each invocation of a workload runs in a fresh Python process
(``benchmarks/worker.py``) that imports ``privgraph`` from ``src/`` and calls
``experiments.cmd_evaluate`` or ``privgraph mc``. Invocations repeat one after
another, never in parallel, until ``--seconds`` is used up (at least
``MIN_INVOCATIONS``), and the run reports medians over them.

``--trace 0`` reports the end-to-end metrics; only the replicate boundary is
timed. ``--trace 1`` runs each seed twice, once with layer spans
(``tracing.py``) and once without, and reports the per-layer metrics of the
traced invocations plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give sample counts, the failure fraction, the inputs and the environment.

Inputs are made from ``--seed`` into a temporary directory under the
repository root and removed afterwards. Each invocation gets its own
experiment seed, drawn from ``--seed``: how fast a replicate runs depends on
the draws (through the graph sizes and the allocator's reuse of large
arrays), so a run's medians span several seeds rather than one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from worker import SUMMARY_CHECKS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s; stop starting invocations well before

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "evaluate_dense": {
        "kind": "evaluate",
        "config": {"recipe": "uniform", "d": 1, "eps": 1.0, "n": 1000},
        "replicates": 20,
        "ipm_samples": 2,
        "expected": ["measures", "generator", "fgw.matched_plan_cost", "fgw.plan_cost_exact",
                     "fgw.graph_to_measure", "fgw.ipm", "runner", "setup"],
    },
    "evaluate_refine": {
        "kind": "evaluate",
        "config": {"recipe": "uniform", "d": 2, "eps": 0.1, "n": 2000},
        "replicates": 150,
        "ipm_samples": 20,
        "expected": ["measures", "generator", "fgw.matched_plan_cost", "fgw.refine",
                     "fgw.graph_to_measure", "fgw.ipm", "runner", "setup"],
    },
    "mc_bigdata": {
        "kind": "mc",
        "argv": ["--d", "2", "--eps", "1", "--m", "auto", "--a", "100", "--b", "100"],
        "replicates": 40,
        "points": 300_000,
        "expected": ["measures", "generator", "fgw.matched_plan_cost", "fgw.plan_cost_exact", "setup"],
    },
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "replicates_per_s": "1/s",
    "replicate_p50_ms": "ms",
    "replicate_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "measures.calls": "count",
    "measures.self_s": "s",
    "measures.ms_p50": "ms",
    "measures.errors": "count",
    "generator.calls": "count",
    "generator.self_s": "s",
    "generator.ms_p50": "ms",
    "generator.vertex_pairs": "count",
    "generator.vertex_pairs_per_s": "1/s",
    "generator.dense_bytes": "bytes_computed",
    "generator.errors": "count",
    "fgw.matched_plan_cost.calls": "count",
    "fgw.matched_plan_cost.self_s": "s",
    "fgw.matched_plan_cost.errors": "count",
    "fgw.plan_cost_exact.calls": "count",
    "fgw.plan_cost_exact.self_s": "s",
    "fgw.plan_cost_exact.errors": "count",
    "fgw.refine.calls": "count",
    "fgw.refine.self_s": "s",
    "fgw.refine.errors": "count",
    "fgw.graph_to_measure.calls": "count",
    "fgw.graph_to_measure.self_s": "s",
    "fgw.graph_to_measure.errors": "count",
    "fgw.ipm.calls": "count",
    "fgw.ipm.self_s": "s",
    "fgw.ipm.single_ref_s": "s",
    "fgw.ipm.multi_ref_s": "s",
    "fgw.ipm.errors": "count",
    "runner.wall_s": "s",
    "runner.workers": "count",
    "runner.busy_frac": "frac",
    "runner.errors": "count",
    "setup.import_s": "s",
    "setup.load_s": "s",
    "setup.resolve_s": "s",
    "setup.errors": "count",
    "trace_overhead_frac": "frac",
}


def make_inputs(workload: dict, seed: int, tmp: Path) -> tuple[dict, dict]:
    """The invocation spec shared by every invocation, and a record of the inputs."""
    spec = {"kind": workload["kind"], "replicates": workload["replicates"], "src": str(ROOT / "src")}
    if workload["kind"] == "evaluate":
        spec["config"] = {**workload["config"], "replicates": workload["replicates"]}
        spec["ipm_samples"] = workload["ipm_samples"]
        return spec, {"config": spec["config"], "ipm_samples": workload["ipm_samples"]}
    path = tmp / "points.csv"
    rng = random.Random(f"points-{seed}")
    with open(path, "w") as fh:
        for _ in range(workload["points"]):
            fh.write(f"{rng.random():.9f},{rng.random():.9f}\n")
    spec["argv"] = ["mc", "--data", str(path), *workload["argv"], "--reps", str(workload["replicates"])]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return spec, {"csv_rows": workload["points"], "csv_sha256": digest, "argv": spec["argv"][3:]}


def invoke(spec: dict, tmp: Path, index: int, seed: int, traced: bool, time_left: float) -> dict:
    """Run one invocation in a fresh process and return its result record."""
    work = tmp / f"inv{index}"
    work.mkdir()
    spec = {**spec, "trace": traced, "result": str(work / "result.json")}
    if spec["kind"] == "evaluate":
        spec["config"] = {**spec["config"], "seed": seed, "out_dir": str(work / "out")}
    else:
        spec["argv"] = [*spec["argv"], "--seed", str(seed)]
    env = dict(os.environ)
    env.pop("PRIVGRAPH_THREADS", None)  # the program's default threading
    spec_path = work / "spec.json"
    spec["spawned_at"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(time_left, 1.0),
        )
    except subprocess.TimeoutExpired:
        return _failed(spec, f"invocation {index} timed out")
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        return _failed(spec, f"worker exited with {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    shutil.rmtree(work)
    return result


def _failed(spec: dict, error: str) -> dict:
    ops = spec["replicates"] + SUMMARY_CHECKS
    return {"error": error, "attempted": ops, "failures": [error] * ops, "traced": spec["trace"]}


def host_env() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in blas_vars},
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Run-level metrics and, for the report, how each was formed.

    Set-up and run times are medians over invocations; replicate times are
    pooled over every replicate of the run; replicates_per_s is all
    replicates over all replicate-phase seconds. Peak RSS is a mean over
    invocations because it is bimodal (the allocator either reuses freed
    N x N arrays or maps fresh ones) and a median would jump between modes.
    """
    reps = [ms for r in results for ms in r["replicate_ms"]]
    setup = [r["setup_s"] for r in results]
    run_s = [r["run_s"] for r in results]
    n = len(results)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run_s),
        "replicates_per_s": len(reps) / sum(r["replicate_phase_s"] for r in results),
        "replicate_p50_ms": statistics.median(reps),
        "replicate_p90_ms": _p90(reps),
        "peak_rss_mb": statistics.mean(r["peak_rss_mb"] for r in results),
    }
    notes = {
        "setup_s": f"median of {n} invocations; p90 {_p90(setup):.4g}" if n > 1 else "1 invocation",
        "run_s": f"median of {n} invocations; p90 {_p90(run_s):.4g}" if n > 1 else "1 invocation",
        "replicates_per_s": f"{len(reps)} replicates",
        "replicate_p50_ms": f"{len(reps)} replicates",
        "replicate_p90_ms": f"{len(reps)} replicates",
        "peak_rss_mb": f"mean of {n} invocations; max {max(r['peak_rss_mb'] for r in results):.4g}",
    }
    return values, notes


def per_layer(name: str, workload: dict, results: list[dict]) -> tuple[dict, dict]:
    """Medians over traced invocations; a layer that cannot have been measured
    gets no value and a reason, so that it never reads as a speed-up.

    ``results`` come in pairs of one untraced and one traced invocation of the
    same seed; the tracing overhead is the median traced/untraced run_s
    ratio, minus 1.
    """
    traced = [r for r in results if r["traced"] and "setup_s" in r]
    pairs = [
        (a, b) if b["traced"] else (b, a)
        for a, b in zip(results[::2], results[1::2])
        if "run_s" in a and "run_s" in b
    ]
    missing = {m for r in traced for m in r["missing"]}
    values, reasons = {}, {}
    for metric in PER_LAYER:
        if metric == "trace_overhead_frac":
            if pairs:
                values[metric] = statistics.median(b["run_s"] / a["run_s"] for a, b in pairs) - 1.0
            else:
                reasons[metric] = "no untraced/traced pair completed"
            continue
        per_invocation = [r["layers"][metric] for r in traced]
        if None in per_invocation:
            reasons[metric] = "a traced call no longer carries the sizes this metric is computed from"
            continue
        values[metric] = statistics.median(per_invocation)
        if metric == "setup.import_s":
            continue
        layer = metric.rsplit(".", 1)[0]
        gone = sorted(m for m in missing if m.rsplit(".", 1)[1] in tracing.LAYERS[layer])
        if gone:
            reasons[metric] = f"{', '.join(gone)} not found"
        elif layer in workload["expected"] and any(r["layer_calls"][layer] == 0 for r in traced):
            reasons[metric] = f"no calls recorded on {name}, where this layer runs"
    return values, reasons


def tally(results: list[dict]) -> tuple[int, int]:
    """Operations attempted and failed: replicates plus output checks."""
    return sum(r["attempted"] for r in results), sum(len(r["failures"]) for r in results)


def run(name: str, seed: int, seconds: float, trace: bool, workloads: dict | None = None) -> dict:
    """Run one workload for about ``seconds`` and return the report."""
    workload = (workloads or WORKLOADS)[name]
    started = time.monotonic()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        spec, inputs = make_inputs(workload, seed, tmp)
        seeds = random.Random(seed)
        inputs["experiment_seeds"] = []
        measure_start = time.monotonic()
        results, durations = [], []
        while True:
            # a traced run gives each seed to an untraced and a traced
            # invocation, in alternating order so that neither always goes first
            if not trace or len(results) % 2 == 0:
                exp_seed = seeds.randrange(2**31)
            traced = trace and len(results) % 4 in (1, 2)
            inputs["experiment_seeds"].append(exp_seed)
            t0 = time.monotonic()
            time_left = RUN_LIMIT_S - (t0 - started)
            results.append(invoke(spec, tmp, len(results), exp_seed, traced, time_left))
            durations.append(time.monotonic() - t0)
            now = time.monotonic()
            enough = len(results) >= (2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS)
            pair_done = not trace or len(results) % 2 == 0
            if enough and pair_done and now - measure_start + statistics.median(durations) > seconds:
                break
            if now - started + max(durations) > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    timed = [r for r in results if "setup_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"]]
    attempted, failed = tally(results)
    report = {
        "workload": name,
        "seed": seed,
        "invocations": len(results),
        "inputs": inputs,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": sorted({r["error"] for r in results if r.get("error")}),
        "failures": sorted({f for r in results for f in r["failures"]})[:10],
        "env": {**host_env(), **(timed[0]["env"] if timed else {})},
    }
    if not plain or (trace and not traced_runs):
        report["metrics"] = None
        return report
    if trace:
        values, reasons = per_layer(name, workload, results)
        units = PER_LAYER
        notes = {m: f"median of {len(traced_runs)} traced invocations" for m in values}
    else:
        values, notes = end_to_end(plain)
        reasons = {}
        units = END_TO_END
    metrics = {}
    for metric, unit in units.items():
        if metric in reasons:
            metrics[metric] = {"value": None, "unit": unit, "unmeasured": reasons[metric]}
        else:
            metrics[metric] = {"value": values[metric], "unit": unit}
    report["metrics"] = metrics
    report["notes"] = notes
    return report


def result_line(report: dict) -> dict:
    """The object printed as the last line of standard output."""
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def print_report(report: dict) -> None:
    print(f"# workload {report['workload']}  seed {report['seed']}  invocations {report['invocations']}")
    print(f"# inputs {json.dumps(report['inputs'], sort_keys=True)}")
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# failed_frac {report['failed_frac']:.6g} ({report['failed']} of {report['attempted']} operations)")
    for text in sorted(set(report["errors"]) | set(report["failures"])):
        print(f"#   failure: {text}")
    for metric, entry in (report["metrics"] or {}).items():
        if entry["value"] is None:
            print(f"# {metric:32s} unmeasured ({entry['unmeasured']})")
        else:
            print(f"# {metric:32s} {entry['value']:.6g} {entry['unit']}  ({report['notes'][metric]})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "privgraph" / "__init__.py").is_file():
        print(f"error: no privgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    if report["metrics"] is None:
        print("error: no invocation reached its first replicate; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
