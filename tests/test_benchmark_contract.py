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
