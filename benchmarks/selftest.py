"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 benchmarks/selftest.py`` (or
``python3 -m pytest benchmarks/selftest.py``). It checks that

1. every end-to-end and per-layer metric named in BENCHMARK.json is emitted
   with its unit, by both command kinds (evaluate and mc);
2. a traced invocation puts back every function it wrapped;
3. a failing output check raises ``failed_frac`` above 0.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "evaluate_tiny": {
        "kind": "evaluate",
        "config": {"recipe": "uniform", "d": 1, "eps": 1.0, "n": 200, "a": 20.0, "b": 20.0},
        "replicates": 4,
        "ipm_samples": 2,
        "expected": ["measures", "generator", "fgw.matched_plan_cost", "fgw.refine",
                     "fgw.graph_to_measure", "fgw.ipm", "runner", "setup"],
    },
    "mc_tiny": {
        "kind": "mc",
        "argv": ["--d", "2", "--eps", "1", "--m", "16", "--a", "90", "--b", "90"],
        "replicates": 3,
        "points": 2000,
        "expected": ["measures", "generator", "fgw.matched_plan_cost", "fgw.plan_cost_exact", "setup"],
    },
}


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _tmp_dir() -> Path:
    root = run.ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def _cleanup(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    root = tmp.parent
    if root.is_dir() and not any(root.iterdir()):
        root.rmdir()


def _tiny_spec(tmp: Path, trace: bool) -> dict:
    spec, _ = run.make_inputs(TINY["evaluate_tiny"], 5, tmp)
    spec["config"].update(seed=5, out_dir=str(tmp / "out"))
    spec.update(trace=trace, spawned_at=time.monotonic())
    return spec


def test_every_metric_emitted_with_its_unit():
    assert dict(run.END_TO_END) == _units("end_to_end")
    assert dict(run.PER_LAYER) == _units("per_layer")
    saved = run.MIN_INVOCATIONS
    run.MIN_INVOCATIONS = 1
    try:
        for name in TINY:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                report = run.run(name, seed=3, seconds=0, trace=trace, workloads=TINY)
                line = run.result_line(report)
                assert line["correct"] and line["failed"] == 0, (name, report["errors"], report["failures"])
                assert line["attempted"] >= 1
                emitted = {m: entry["unit"] for m, entry in line["metrics"].items()}
                assert emitted == _units(kind), (name, kind)
                for metric, entry in line["metrics"].items():
                    assert isinstance(entry["value"], (int, float)), (name, metric, entry)
                json.dumps(line)
    finally:
        run.MIN_INVOCATIONS = saved


def test_traced_run_restores_every_wrapped_function():
    tmp = _tmp_dir()
    try:
        spec = _tiny_spec(tmp, trace=True)
        sys.path.insert(0, spec["src"])
        import privgraph.cli  # noqa: F401  (loads every privgraph module the workloads use)

        def snapshot():
            return {
                (mod.__name__, attr): value
                for mod in tracing._privgraph_modules()
                for attr, value in vars(mod).items()
                if callable(value)
            }

        before = snapshot()
        tracer = tracing.Tracer(layers=True)
        tracer.install()
        try:
            assert not tracer.missing, tracer.missing
            wrapped = {key for key, value in snapshot().items() if value is not before[key]}
            names = {fn for _, fn in tracing.LAYER_FUNCTIONS} | {"run_replicates", "spawn_streams", "resolve"}
            assert {attr for _, attr in wrapped} == names
            # references held by other modules are wrapped too
            assert ("privgraph.generator", "run_private_measure") in wrapped
            assert ("privgraph.experiments", "generate_coupled_graphs") in wrapped
        finally:
            tracer.restore()
        assert snapshot() == before

        result = worker.run_invocation(spec)
        assert result["error"] is None and not result["failures"], result["failures"]
        assert result["layers"]["generator.calls"] == TINY["evaluate_tiny"]["replicates"]
        assert snapshot() == before
    finally:
        _cleanup(tmp)


def test_failing_check_raises_failed_frac():
    tmp = _tmp_dir()
    real_check = worker.check_evaluate

    def corrupting_check(out_dir, replicates, summary):
        path = Path(out_dir) / "evaluate.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["refined_fgw"] = str(float(rows[0]["matched_plan_cost"]) + 1.0)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return real_check(out_dir, replicates, summary)

    worker.check_evaluate = corrupting_check
    try:
        result = worker.run_invocation(_tiny_spec(tmp, trace=False))
    finally:
        worker.check_evaluate = real_check
        _cleanup(tmp)
    assert result["failures"] == ["replicate 0"]
    attempted, failed = run.tally([result])
    assert failed / attempted > 0


if __name__ == "__main__":
    for test in (
        test_every_metric_emitted_with_its_unit,
        test_traced_run_restores_every_wrapped_function,
        test_failing_check_raises_failed_frac,
    ):
        t0 = time.monotonic()
        test()
        print(f"ok  {test.__name__}  ({time.monotonic() - t0:.1f} s)")
