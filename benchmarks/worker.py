"""One invocation of a benchmark workload, in a fresh process.

Usage: ``python3 benchmarks/worker.py SPEC.json``. ``run.py`` writes the spec
and reads back the result file it names. The spec holds the workload's
command, the package source directory, the output directory, whether to
trace layers, and ``spawned_at``: the parent's ``time.monotonic()`` just
before it started this process, so that set-up time counts interpreter start.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import tracing

DOMINANCE_TOL = 1e-9
SUMMARY_CHECKS = 2  # bound checks made once per invocation, after the replicate rows


def run_invocation(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t_import = time.monotonic()
    import privgraph
    from privgraph import bounds, cli, experiments

    import_s = time.monotonic() - t_import
    if not Path(privgraph.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"privgraph imported from {privgraph.__file__}, not from {src}")

    tracer = tracing.Tracer(layers=spec["trace"])
    tracer.install()
    # perf_counter and monotonic share one clock on Linux; convert the
    # parent's spawn time through the offset between them all the same.
    offset = time.perf_counter() - time.monotonic()
    spawned = spec["spawned_at"] + offset
    error = None
    stdout = io.StringIO()
    try:
        if spec["kind"] == "evaluate":
            cfg = experiments.ExperimentConfig(**spec["config"])
            summary = experiments.cmd_evaluate(cfg, ipm_samples=spec["ipm_samples"])
        else:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(spec["argv"])
            if code != 0:
                error = f"privgraph mc exited with {code}"
    except Exception as exc:  # the invocation failed: every operation counts as failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        tracer.restore()

    reps = tracer.replicates()
    result = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replicate_ms": [1000.0 * s.duration for s in reps],
        "env": runtime_env(),
    }
    if reps:
        first = reps[0].start
        result["setup_s"] = first - spawned
        result["run_s"] = end - first
        result["replicate_phase_s"] = max(s.end for s in reps) - first
    if error is None:
        try:
            if spec["kind"] == "evaluate":
                ops = check_evaluate(Path(spec["config"]["out_dir"]), spec["replicates"], summary)
            else:
                ops = check_mc(stdout.getvalue(), tracer.resolved, bounds)
        except (OSError, ValueError, IndexError, KeyError, AttributeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error is not None:
        ops = [(error, False)] * (spec["replicates"] + SUMMARY_CHECKS)
    result["error"] = error
    result["attempted"] = len(ops)
    result["failures"] = [name for name, ok in ops if not ok]
    if spec["trace"]:
        layers, calls = tracing.layer_summary(tracer.spans)
        layers["setup.import_s"] = import_s
        result["layers"] = layers
        result["layer_calls"] = calls
        result["missing"] = tracer.missing
    return result


def check_evaluate(out_dir: Path, replicates: int, summary: dict) -> list[tuple[str, bool]]:
    """One operation per replicate row plus the two summary bounds.

    A replicate row fails when a value is not finite or when the refined
    distance exceeds the matched-plan charge (the dominance chain).
    """
    with open(out_dir / "evaluate.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["replicate"] != "summary"]
    ops = []
    for r in range(replicates):
        row = rows[r] if r < len(rows) else None
        ok = row is not None
        if ok:
            values = [float(row[k]) for k in ("matched_plan_cost", "refined_fgw", "coupling_bound")]
            if row["grid_coupling_bound"]:
                values.append(float(row["grid_coupling_bound"]))
            ok = all(math.isfinite(v) for v in values)
            ok = ok and float(row["refined_fgw"]) <= float(row["matched_plan_cost"]) + DOMINANCE_TOL
        ops.append((f"replicate {r}", ok))
    ops.append(("coupling_bound_satisfied", summary["coupling_bound_satisfied"] is True))
    ops.append(("sandwich_satisfied", summary["sandwich_satisfied"] is True))
    return ops


def check_mc(stdout: str, resolved, bounds) -> list[tuple[str, bool]]:
    """The replicates ran if the command printed its estimates; then the refined
    mean must not exceed the plan mean, and the plan mean must stay within
    three standard errors of the expected-FGW bound for the resolved inputs."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    header, values = lines[-2].split(","), [float(v) for v in lines[-1].split(",")]
    est = dict(zip(header, values))
    replicates = resolved.config.replicates
    finite = all(math.isfinite(v) for v in values)
    inp = bounds.bound_inputs_from(
        resolved.partition,
        resolved.dataset.n,
        resolved.noise,
        resolved.a,
        resolved.b,
        resolved.params,
        resolved.kernel,
        resolved.config.eps,
    )
    total = bounds.expected_fgw_bound(inp).total
    ops = [(f"replicate {r}", finite) for r in range(replicates)]
    ops.append(("mean <= plan_mean", est["mean"] <= est["plan_mean"] + DOMINANCE_TOL))
    ops.append(("plan_mean <= bound + 3 se", est["plan_mean"] <= total + 3 * est["plan_stderr"]))
    return ops


def runtime_env() -> dict:
    import numpy
    import scipy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "PRIVGRAPH_THREADS": os.environ.get("PRIVGRAPH_THREADS", "unset"),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = run_invocation(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
