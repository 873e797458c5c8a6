"""The benchmark's tracer (benchmarks/tracing.py) finds privgraph's functions by
module and name. These checks keep those names where it looks for them: if one
moves, the tracer times no replicate and the end-to-end metrics go missing."""

import importlib.util
import sys
from pathlib import Path

from privgraph.cli import main
from privgraph.experiments import ExperimentConfig, cmd_evaluate

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_its_functions_and_times_each_replicate(tmp_path, capsys, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer(layers=True)
    tracer.install()
    try:
        assert tracer.missing == []
        cfg = ExperimentConfig(
            seed=1, recipe="uniform", n=60, d=1, m=4, a=6.0, b=6.0, replicates=3, out_dir=str(tmp_path)
        )
        cmd_evaluate(cfg, ipm_samples=2)
        assert len(tracer.replicates()) == 3
        _, calls = tracing.layer_summary(tracer.spans)
        assert calls["runner"] == 1 and calls["generator"] == 3 and calls["fgw.matched_plan_cost"] == 3
        # the solver's spans under a reference score count as ipm, not refine:
        # one refinement per replicate, 7 references x (2 + 2) kept graphs
        assert calls["fgw.refine"] == 3 and calls["fgw.ipm"] == 28

        tracer.spans.clear()
        argv = ["mc", "--recipe", "uniform", "--n", "60", "--m", "4", "--a", "6", "--b", "6", "--seed", "1"]
        assert main([*argv, "--reps", "4"]) == 0
        assert len(tracer.replicates()) == 4
        _, calls = tracing.layer_summary(tracer.spans)
        assert calls["runner"] == 1 and calls["generator"] == 4 and calls["setup"] == 1
        assert tracer.resolved.config.replicates == 4
    finally:
        tracer.restore()


def test_tracer_reads_the_sizes_of_pairs_scored_by_the_exact_evaluator(monkeypatch):
    # a = b = 80 puts N*M above the refine size cap, so no pair is built with
    # its adjacencies; the generator metrics read only each pair's sizes
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer(layers=True)
    tracer.install()
    try:
        argv = ["mc", "--recipe", "uniform", "--n", "500", "--d", "1", "--eps", "1", "--a", "80", "--b", "80"]
        assert main([*argv, "--reps", "3", "--seed", "1"]) == 0
        out, calls = tracing.layer_summary(tracer.spans)
        assert len(tracer.replicates()) == calls["generator"] == calls["fgw.plan_cost_exact"] == 3
        assert isinstance(out["generator.vertex_pairs"], int) and out["generator.vertex_pairs"] > 3 * 2 * 60 * 59 // 2
        assert out["generator.vertex_pairs_per_s"] > 0
    finally:
        tracer.restore()
