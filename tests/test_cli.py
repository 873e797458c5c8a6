import json
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from privgraph.cli import main
from privgraph.experiments import ExperimentConfig, cmd_evaluate, cmd_generate, make_recipe_dataset, resolve
from privgraph.fgw import REFINE_SIZE_CAP, FgwParams, fgw_cost, spawn_streams
from privgraph.generator import DRAW_ORDER
from privgraph.graphs import graph_from_json


def _read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }


def test_generate_writes_pair_and_manifest(tmp_path):
    rc = main(
        [
            "generate",
            "--recipe",
            "uniform",
            "--n",
            "60",
            "--d",
            "1",
            "--eps",
            "1",
            "--a",
            "20",
            "--b",
            "20",
            "--m",
            "4",
            "--seed",
            "7",
            "--emit",
            "dot",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    pair = json.loads((tmp_path / "pair_eps1.json").read_text())
    assert "true_graph" in pair and "synthetic_graph" in pair and "coupling" in pair
    assert (tmp_path / "true.dot").exists()
    assert (tmp_path / "synthetic_eps1.dot").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["resolved_m"] == 4
    assert manifest["command"] == "generate"


def test_generate_deterministic_and_manifest_replay(tmp_path):
    args = dict(recipe="uniform", n=50, d=1, eps=0.5, a=15.0, b=15.0, m=4, seed=3)
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    cmd_generate(ExperimentConfig(out_dir=str(out1), **args))
    cmd_generate(ExperimentConfig(out_dir=str(out2), **args))
    assert _read_outputs(out1) == _read_outputs(out2)
    # a manifest is itself a valid config and replays bit-exactly
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfg = ExperimentConfig.from_dict(manifest)
    with pytest.raises(FrozenInstanceError):
        cfg.out_dir = str(out3)  # a config is changed only through replace, which checks it again
    cmd_generate(replace(cfg, out_dir=str(out3)))
    assert _read_outputs(out1) == _read_outputs(out3)


def test_manifest_from_another_draw_order_is_refused(tmp_path, capsys):
    cfg = ExperimentConfig(recipe="uniform", n=50, d=1, eps=0.5, a=15.0, b=15.0, m=4, seed=3,
                           out_dir=str(tmp_path / "run"))
    cmd_generate(cfg)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["draw_order"] == DRAW_ORDER == 4
    assert set(manifest["environment"]) == {"python", "numpy", "scipy"}
    # each former setting left while the draw order was at most 3, so the
    # manifests of draw orders 2 and 3 are also tried with the keys of their era
    order_3_keys = {"noise_kind": "discrete_laplace", "noise_A": 2, "noise_pmf": None, "csv_sep": ","}
    cases = [(None, {}), (1, {}), (2, {}), (3, {}),
             (2, {"refine_size_cap": REFINE_SIZE_CAP, **order_3_keys}), (3, order_3_keys)]
    for k, (order, era_keys) in enumerate(cases):
        old = {**manifest, "config": {**manifest["config"], **era_keys}}
        if order is None:
            del old["draw_order"]
        else:
            old["draw_order"] = order
        recorded = f"draw order {order or 1}"
        with pytest.raises(ValueError, match=f"{recorded}.*draw order 4"):
            ExperimentConfig.from_dict(old)
        path = tmp_path / f"old_manifest_{k}.json"
        path.write_text(json.dumps(old))
        out = tmp_path / f"replay_{k}"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
        assert recorded in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("d", [1, 3])
def test_recipe_points_share_no_stream_with_a_replicate(d):
    # the "uniform" recipe draws from the root SeedSequence(seed); replicate r
    # (and generate's level r) from its child r, so no replicate's draws repeat
    # the dataset's points
    for seed in (0, 3, 12345):
        points = make_recipe_dataset("uniform", 40, d, seed).points.ravel()
        assert np.array_equal(points, np.random.default_rng(seed).random(40 * d))
        for r, rng in enumerate(spawn_streams(seed, 8)):
            draws = rng.random(points.size)
            assert not np.isin(points[:4], draws).any(), (seed, r)


def test_generate_private_only_and_redaction(tmp_path):
    # --private-only alone writes only what the noisy counts determine
    argv = ["generate", "--recipe", "uniform", "--n", "40", "--d", "1", "--eps", "1", "--a", "10", "--b", "10",
            "--m", "4", "--seed", "5", "--emit", "dot", "--private-only", "--out", str(tmp_path)]
    assert main(argv) == 0
    text = (tmp_path / "pair_eps1.json").read_text()
    for key in ("counts", "noise_draws", "raw_weights", "true_graph", "coupling"):
        assert f'"{key}"' not in text
    pair = json.loads(text)
    assert set(pair) == {"a", "b", "synthetic_graph", "private_measure"}
    assert set(pair["private_measure"]) == {"representatives", "private_weights", "tv_residual"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "pair_eps1.json", "synthetic_eps1.dot"]


def test_generate_multi_eps_recipe(tmp_path):
    cfg = ExperimentConfig(
        recipe="half_zero_one", n=200, d=1, a=30.0, b=30.0, m="auto", seed=9,
        emit_dot=True, out_dir=str(tmp_path),
    )
    outputs = cmd_generate(cfg, eps_list=[1.0, 0.1])
    names = {Path(o).name for o in outputs}
    assert {"pair_eps1.json", "pair_eps0.1.json", "true.dot",
            "synthetic_eps1.dot", "synthetic_eps0.1.dot"} <= names


def test_generate_eps_list_manifest_replays_every_level(tmp_path):
    argv = ["generate", "--recipe", "uniform", "--n", "300", "--d", "1", "--seed", "1",
            "--eps-list", "1,0.1,0.01", "--emit", "dot"]
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(argv + ["--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["eps_list"] == [1.0, 0.1, 0.01]
    assert manifest["replicate_seed_paths"] == [[1, 0], [1, 1], [1, 2]]
    assert main(["generate", "--config", str(first / "manifest.json"), "--out", str(replay)]) == 0
    written = _read_outputs(first)
    assert {"pair_eps1.json", "pair_eps0.1.json", "pair_eps0.01.json"} <= set(written)
    assert _read_outputs(replay) == written


def test_generate_manifest_records_each_levels_sizes(tmp_path):
    # m = auto resolves per level, so the config's resolved_* (the last level's) differ from level 1's
    argv = ["generate", "--recipe", "uniform", "--n", "2000", "--d", "1", "--a", "20", "--b", "20", "--seed", "1"]
    assert main([*argv, "--eps-list", "1,0.1", "--out", str(tmp_path / "two")]) == 0
    manifest = json.loads((tmp_path / "two" / "manifest.json").read_text())
    cfg = ExperimentConfig.from_dict(manifest)
    assert manifest["levels"] == [resolve(replace(cfg, eps=eps)).level for eps in (1.0, 0.1)]
    assert [level["resolved_m"] for level in manifest["levels"]] == [45, 15]
    assert {k: manifest["config"][k] for k in manifest["levels"][1]} == manifest["levels"][1]
    assert main([*argv, "--eps", "1", "--out", str(tmp_path / "one")]) == 0
    single = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert single["levels"] == manifest["levels"][:1]
    assert {k: single["config"][k] for k in single["levels"][0]} == single["levels"][0]


def test_evaluate_summary_and_csv(tmp_path):
    cfg = ExperimentConfig(
        recipe="uniform",
        n=80,
        d=1,
        eps=1.0,
        m=4,
        a=10.0,
        b=10.0,
        replicates=30,
        seed=11,
        out_dir=str(tmp_path),
    )
    summary = cmd_evaluate(cfg, ipm_samples=10)
    assert summary["coupling_bound_satisfied"]
    assert summary["sandwich_satisfied"]
    lines = (tmp_path / "evaluate.csv").read_text().splitlines()
    assert lines[0].startswith("replicate,matched_plan_cost,refined_fgw")
    assert len(lines) == 1 + 30 + 1
    assert lines[-1].startswith("summary")
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("a, evaluator", [(10.0, "refine"), (100.0, "exact")])
def test_evaluate_csv_names_each_replicates_evaluator(tmp_path, a, evaluator):
    # N*M near a*a: 100 is within fgw.REFINE_SIZE_CAP (4096), 10,000 is not
    cfg = ExperimentConfig(
        recipe="uniform", n=80, d=1, eps=1.0, m=4, a=a, b=a, replicates=4, seed=11, out_dir=str(tmp_path)
    )
    cmd_evaluate(cfg, ipm_samples=2)
    lines = (tmp_path / "evaluate.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "evaluator"
    assert [line.split(",")[-1] for line in lines[1:]] == [evaluator] * 5


def test_auto_resolution_matches_optimal_rule():
    cfg = ExperimentConfig(recipe="uniform", n=1000, d=1, eps=1.0, seed=1)
    resolved = resolve(cfg)
    assert resolved.partition.m == 32
    assert resolved.a == pytest.approx(1024.0)


def test_table_command(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["table", "--d", "2", "--eps", "2,1", "--n", "100,1000", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "eps;coupling_n100;distribution_n100;coupling_n1000;distribution_n1000"
    assert len([l for l in lines if not l.startswith("#")]) == 3
    assert "# entries decrease in n at fixed eps: True" in text


def test_project_command(tmp_path, capsys):
    meas = tmp_path / "measure.json"
    meas.write_text(json.dumps({"weights": [1.2, -0.2]}))
    rc = main(["project", str(meas)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weights"] == [1.0, 0.0]
    assert out["distance"] == pytest.approx(0.4)


def test_noisecheck_command(capsys):
    assert main(["noisecheck", "--eps", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] and report["worst_ratio"] == pytest.approx(np.e)
    assert report["pure_dp"]
    assert main(["noisecheck", "--eps", "1", "--level", "0.5"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["satisfied"] and not report["pure_dp"]


@pytest.mark.parametrize("level", ["nan", "inf", "-1", "0"])
def test_noisecheck_refuses_a_level_that_is_not_finite_and_positive(capsys, level):
    assert main(["noisecheck", "--eps", "1", "--level", level]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: privacy level must be finite and > 0, got {float(level)}\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["--level", "1000"], "privacy level 1000.0 is too large: exp(1000.0) overflows a float"),
     (["--eps", "1000"], "privacy level 1000.0 is too large: exp(1000.0) overflows a float"),
     (["--eps", "1000", "--level", "1"], "noise eps 1000.0 is too large: exp(1000.0) overflows a float")],
)
def test_noisecheck_refuses_a_value_whose_exp_overflows(capsys, argv, message):
    assert main(["noisecheck", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--kind", "discrete-laplace"], ["--A", "2"], ["--pmf", "pmf.json"]])
def test_noisecheck_has_no_noise_kind_options(capsys, argv):
    # discrete Laplace is the one noise, so the options that chose another are gone
    with pytest.raises(SystemExit) as exc:
        main(["noisecheck", "--eps", "1", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_bounds_command(tmp_path, capsys):
    inp = tmp_path / "inputs.json"
    inp.write_text(json.dumps({"a": 100, "b": 100, "n": 1000, "m": 100, "eps": 1.0, "d": 2}))
    rc = main(["bounds", "--json", str(inp)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["expected_fgw_grid"]["total"] == pytest.approx(0.3202, abs=1e-4)
    assert "terms" in report["distribution"]


_BOUND_INPUTS = {"a": 100, "b": 100, "n": 1000, "m": 100, "eps": 1.0, "d": 2}
_VERTEX = {"attr": [0.5], "id": 0.25}


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("bounds", {**_BOUND_INPUTS, "epsilon": 1.0}, "unknown keys: epsilon"),
        ("bounds", {k: v for k, v in _BOUND_INPUTS.items() if k != "n"}, "missing key 'n'"),
        ("bounds", [1, 2], "expected a JSON object"),
        ("project", {"support": [[0.0], [1.0]]}, "missing key 'weights'"),
        ("dist", {"vertices": [_VERTEX, {"id": 0.5}], "edges": []}, "vertex 1 has no 'attr'"),
        ("dist", {"vertices": [{"attr": [0.1]}, _VERTEX], "edges": []}, "vertex 0 has no 'id'"),
        ("dist", [_VERTEX], "a graph must be a JSON object"),
        *((command, obj, "input.json: expected a JSON object")
          for command in ("generate", "evaluate", "mc") for obj in ([1, 2], "x")),
        ("project", {"weights": [float("nan"), 0.5]}, "weights must be a nonempty vector of finite numbers"),
        ("project", {"weights": [float("inf"), 0.5]}, "weights must be a nonempty vector of finite numbers"),
        ("project", {"weights": []}, "weights must be a nonempty vector of finite numbers"),
        ("project", {"weights": 0.5}, "input.json: 'weights' must be a list of numbers"),
        ("project", {"weights": [[0.5, 0.5]]}, "input.json: 'weights' must be a list of numbers"),
        ("project", {"weights": [0.5, 0.5], "support": [[0.0]]}, "input.json: unknown keys: support"),
        *(("project", {"weights": w}, "input.json: 'weights' must be a list of numbers")
          for w in ({"0": 0.5}, ["0.5", 0.5], [True, 0.5])),
        *(("project", {"weights": w}, "weights too large to project")
          for w in ([1e17], [1e308, 1e308], [-1e308, -1e308, 0.5])),
        ("project", {"weights": [1], "support": [[float("nan")]]}, "input.json: unknown keys: support"),
        *(("dist", {"vertices": [_VERTEX, {"attr": [x], "id": 0.5}], "edges": []}, "vertex 1 has a non-finite attribute")
          for x in (float("nan"), float("inf"))),
        ("dist", {"vertices": [{"attr": [0.1], "id": float("nan")}], "edges": []}, "vertex 0 has a non-finite identifier"),
        # a retired input: the domain's volume, which is 1 for the unit cube
        ("bounds", {**_BOUND_INPUTS, "leb_omega": 1.0}, "input.json: unknown keys: leb_omega"),
    ],
)
@pytest.mark.filterwarnings("error")  # a refusal is the error line alone, with no warning before it
def test_malformed_json_inputs_are_refused_naming_the_key(tmp_path, capsys, command, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"vertices": [_VERTEX], "edges": []}))
    out = tmp_path / "out"
    args = {"bounds": ["--json", str(path)], "project": [str(path)], "dist": [str(good), str(path)]}.get(
        command, ["--config", str(path), "--seed", "1", "--out", str(out)])
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == "" and not out.exists()


def test_dist_command(tmp_path, capsys):
    ga = {"vertices": [{"attr": [0.0], "id": 0.5}], "edges": []}
    gb = {"vertices": [{"attr": [1.0], "id": 0.5}], "edges": []}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(ga))
    pb.write_text(json.dumps(gb))
    rc = main(["dist", str(pa), str(pb), "--alpha", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.5)
    assert out["mode"] == "exact_small"


def _write_graph(path, attrs, edges):
    vertices = [{"attr": [float(v) for v in x], "id": (i + 1) / 10} for i, x in enumerate(attrs)]
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    return str(path)


def test_dist_coupling_achieves_the_reported_value(tmp_path, capsys):
    """In exact_small mode the printed coupling is the one the exact search
    found, so its cost is the printed value."""
    rng = np.random.default_rng(11)
    for trial in range(25):
        paths = []
        for side in "ab":
            n = int(rng.integers(1, 5))
            edges = [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            paths.append(_write_graph(tmp_path / f"{side}{trial}.json", rng.random((n, 1)), edges))
        alpha = float(rng.random())
        assert main(["dist", *paths, "--alpha", repr(alpha)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "exact_small"
        params = FgwParams(alpha=alpha)
        ga, gb = (graph_from_json(Path(p).read_text()) for p in paths)
        assert abs(fgw_cost(np.array(out["coupling"]), ga, gb, params) - out["value"]) <= 1e-9


@pytest.mark.parametrize("vertices_b", [1, 6])  # exact_small and upper_bound mode
def test_dist_rejects_attribute_dimensions_that_differ(tmp_path, capsys, vertices_b):
    one = _write_graph(tmp_path / "one.json", [[0.2], [0.6]], [[0, 1]])
    two = _write_graph(tmp_path / "two.json", np.full((vertices_b, 2), 0.5), [])
    for args in ((one, two), (two, one)):
        assert main(["dist", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"error: attribute dimensions differ: (1 and 2|2 and 1)$", captured.err.strip())


def test_mc_command(tmp_path, capsys):
    rc = main(
        [
            "mc",
            "--recipe",
            "uniform",
            "--n",
            "60",
            "--d",
            "1",
            "--eps",
            "1",
            "--m",
            "4",
            "--a",
            "8",
            "--b",
            "8",
            "--seed",
            "2",
            "--reps",
            "10",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["mean", "stderr"]
    vals = [float(v) for v in lines[1].split(",")]
    assert len(vals) == 4 and all(np.isfinite(vals))


@pytest.mark.parametrize(
    "levels, message",
    [(["--eps", "-1"], "eps > 0"), (["--eps-list", "1,-1"], "eps > 0"), (["--eps-list", "1,nan"], "eps > 0"),
     (["--eps-list", "1,1.0000001"], "levels 1.0 and 1.0000001 would both be written to pair_eps1.json"),
     (["--eps-list", "0.5,1,0.5", "--emit", "dot"], "levels 0.5 and 0.5 would both be written to pair_eps0.5.json")],
)
def test_generate_checks_every_level_before_writing(tmp_path, capsys, levels, message):
    # a bad later level, or two levels whose file names collide, write nothing
    out = tmp_path / "out"
    argv = ["generate", "--recipe", "uniform", "--n", "40", "--d", "1", "--seed", "1", "--out", str(out)]
    assert main([*argv, *levels]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_error_paths(tmp_path, capsys):
    # malformed flag: argparse exits with usage
    with pytest.raises(SystemExit) as exc:
        main(["table", "--nope"])
    assert exc.value.code != 0
    # invalid config rejected before sampling
    rc = main(["generate", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig.from_dict({"seed": 1, "epsilon": 0.1})
    with pytest.raises(ValueError, match="resolved_m"):
        ExperimentConfig.from_dict({"seed": 1, "resolved_m": 4})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "recipe": "uniform", "epsilon": 0.1}))
    rc = main(["mc", "--config", str(cfg_path), "--reps", "2"])
    assert rc == 1
    assert "unknown config keys: epsilon" in capsys.readouterr().err


def test_data_together_with_a_recipe_is_refused(tmp_path, capsys):
    # a CSV and a recipe are two datasets; neither may be dropped silently
    csv = tmp_path / "pts.csv"
    np.savetxt(csv, np.random.default_rng(0).random((50, 1)), delimiter=",")
    base = {"data": str(csv), "recipe": "uniform", "n": 500, "d": 1, "m": 4, "a": 8, "b": 8, "seed": 3}
    flags = [arg for k, v in base.items() for arg in (f"--{k}", str(v))]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    for source in (flags, ["--config", str(path)]):
        for command in ("generate", "evaluate", "mc"):
            out = tmp_path / command
            assert main([command, *source, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.match(r"error: data .* and recipe .* are both set", captured.err)
            assert not out.exists()
    with pytest.raises(ValueError, match="either a data path or a recipe"):
        resolve(ExperimentConfig(seed=3))


def test_config_without_seed_fails_cleanly(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed is mandatory"):
        ExperimentConfig.from_dict({"recipe": "uniform", "n": 50})
    cfg_path = tmp_path / "noseed.json"
    cfg_path.write_text(json.dumps({"recipe": "uniform", "n": 50}))
    rc = main(["mc", "--config", str(cfg_path), "--reps", "2"])
    assert rc == 1
    assert "seed is mandatory" in capsys.readouterr().err


def test_seed_flag_completes_a_seedless_config(tmp_path, capsys):
    cfg_path = tmp_path / "noseed.json"
    cfg_path.write_text(json.dumps({"recipe": "uniform", "n": 60, "m": 4, "a": 8, "b": 8}))
    assert main(["mc", "--config", str(cfg_path), "--seed", "3", "--reps", "4"]) == 0
    from_config = capsys.readouterr().out
    argv = ["mc", "--recipe", "uniform", "--n", "60", "--m", "4", "--a", "8", "--b", "8", "--seed", "3", "--reps", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == from_config
    # a flag is set over the file's value before the one check, so it corrects a bad one
    cfg_path.write_text(json.dumps({"recipe": "uniform", "n": 60, "m": 4, "a": 8, "b": 8, "d": 0}))
    assert main(["mc", "--config", str(cfg_path), "--seed", "3", "--d", "1", "--reps", "4"]) == 0
    assert capsys.readouterr().out == from_config
    cfg_path.write_text(json.dumps({"recipe": "uniform", "n": 60, "m": 4, "a": 8, "b": 8, "seed": 1}))
    assert ExperimentConfig.from_dict(json.loads(cfg_path.read_text()), seed=3).seed == 3


def test_mc_runs_through_the_replicate_runner(monkeypatch, capsys):
    import privgraph.fgw as fgw_mod

    calls = []
    runner = fgw_mod.run_replicates
    monkeypatch.setattr(fgw_mod, "run_replicates", lambda fn, n, seed: calls.append(n) or runner(fn, n, seed))
    argv = ["mc", "--recipe", "uniform", "--n", "60", "--m", "4", "--a", "8", "--b", "8", "--seed", "3", "--reps", "12"]
    assert main(argv) == 0
    assert calls == [12]


_SMALL_EVALUATE = ["--recipe", "uniform", "--n", "80", "--d", "1", "--m", "4", "--a", "10", "--b", "10"]


def test_evaluate_manifest_replays_its_ipm_samples(tmp_path, capsys):
    run, replay = tmp_path / "run", tmp_path / "replay"
    argv = ["evaluate", *_SMALL_EVALUATE, "--replicates", "12", "--ipm-samples", "3", "--seed", "3"]
    assert main([*argv, "--out", str(run)]) == 0
    assert json.loads((run / "manifest.json").read_text())["config"]["ipm_samples"] == 3
    assert main(["evaluate", "--config", str(run / "manifest.json"), "--out", str(replay)]) == 0
    assert _read_outputs(replay) == _read_outputs(run)


def test_too_few_replicates_or_ipm_samples_are_refused(tmp_path, capsys):
    argv = [*_SMALL_EVALUATE, "--seed", "1"]
    assert main(["evaluate", *argv, "--replicates", "1", "--out", str(tmp_path / "one")]) == 1
    assert "need at least 2 replicates" in capsys.readouterr().err
    assert not (tmp_path / "one" / "summary.json").exists()
    assert main(["mc", *argv, "--reps", "1"]) == 1
    assert "need at least 2 replicates" in capsys.readouterr().err
    assert main(["evaluate", *argv, "--ipm-samples", "0", "--out", str(tmp_path / "zero")]) == 1
    assert "ipm_samples must be an integer >= 1, got 0" in capsys.readouterr().err
    with pytest.raises(ValueError, match="ipm_samples"):
        cmd_evaluate(ExperimentConfig(seed=1, recipe="uniform", out_dir=str(tmp_path)), ipm_samples=-1)


_MC_ARGV = ["mc", "--recipe", "uniform", "--n", "200", "--d", "1", "--seed", "5", "--reps", "3"]


@pytest.mark.parametrize("eps", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("m", [[], ["--m", "4"]])  # auto sizes read eps first; a fixed m goes to the noise
def test_mc_refuses_a_non_finite_eps(capsys, eps, m):
    assert main([*_MC_ARGV, f"--eps={eps}", *m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"error: .*finite( and positive| eps > 0)", captured.err)


@pytest.mark.parametrize("command", ["bounds", "table", "evaluate", "mc"])
def test_an_eps_whose_exp_rounds_to_one_is_refused(tmp_path, capsys, command):
    # exp(-eps) == 1.0 in floats: the noise factor would divide by zero and
    # the sampler's success probability 1 - exp(-eps) would be 0
    eps = "1e-17"
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({**_BOUND_INPUTS, "eps": float(eps)}))
    out = tmp_path / "out"
    args = {
        "bounds": ["--json", str(path)],
        "table": ["--eps", eps],
        "evaluate": [*_SMALL_EVALUATE, "--eps", eps, "--seed", "1", "--out", str(out)],
        "mc": [*_MC_ARGV[1:], "--eps", eps],
    }[command]
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: .*\beps\b.*\n", captured.err), captured.err
    assert captured.out == "" and not (out / "summary.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_mc_refuses_a_non_finite_kernel_scale(capsys, value):
    assert main([*_MC_ARGV, "--eps", "1", "--kernel", "inverse-distance", "--kernel-param", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: inverse_distance kernel needs finite scale > 0" in captured.err


@pytest.mark.parametrize(
    "edge, message",
    [
        ([0, 5], "not a pair of integer vertex indices in [0, 2)"),
        ([-1, 0], "not a pair of integer vertex indices in [0, 2)"),
        ([0, 1.0], "not a pair of integer vertex indices"),
        ([0, True], "not a pair of integer vertex indices"),
        ([0, 1, 1], "not a pair of integer vertex indices"),
        ([1, 1], "is a self-loop"),
    ],
)
def test_dist_refuses_edges_that_are_not_vertex_pairs(tmp_path, capsys, edge, message):
    good = _write_graph(tmp_path / "good.json", [[0.2], [0.6]], [[0, 1]])
    bad = _write_graph(tmp_path / "bad.json", [[0.2], [0.6]], [[0, 1], edge])
    for args in ((good, bad), (bad, good)):
        assert main(["dist", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: edge {edge!r} ")
        assert message in captured.err


@pytest.mark.parametrize("alpha", ["0.5", "0"])
@pytest.mark.parametrize("cap", ["inf", "nan", "0"])
def test_mc_refuses_a_cap_that_is_not_finite_and_positive(capsys, alpha, cap):
    # at alpha = 0 the cap carries no weight, but 0 * inf would still make every cost NaN
    assert main([*_MC_ARGV, "--eps", "1", "--alpha", alpha, "--C", cap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: C must be finite and positive" in captured.err


@pytest.mark.parametrize("eps", ["Infinity", "NaN", "0", "-1"])
def test_bounds_refuses_an_eps_that_is_not_finite_and_positive(tmp_path, capsys, eps):
    inp = tmp_path / "inputs.json"
    inp.write_text(f'{{"a": 16, "b": 16, "n": 100, "m": 4, "eps": {eps}, "d": 1}}')
    assert main(["bounds", "--json", str(inp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite eps > 0" in captured.err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("a", "x", "bound input a must be a real number, got 'x'"),
        ("eps", [1], "bound input eps must be a real number, got [1]"),
        ("alpha", None, "bound input alpha must be a real number, got None"),
        ("max_cell_diam", "0.5", "bound input max_cell_diam must be a real number, got '0.5'"),
        ("n", 100.5, "bound input n must be an integer, got 100.5"),
        ("m", True, "bound input m must be an integer, got True"),
        ("d", "1", "bound input d must be an integer, got '1'"),
        # geometry and noise inputs that would print a NaN, infinite or negative bound
        ("a", float("inf"), "bound input a must be finite, got inf"),
        ("b", -float("inf"), "bound input b must be finite, got -inf"),
        ("C", float("inf"), "bound input C must be finite, got inf"),
        ("L_kappa", float("inf"), "bound input L_kappa must be finite, got inf"),
        ("diam_omega", float("nan"), "bound input diam_omega must be finite, got nan"),
        ("diam_omega", -1, "bound input diam_omega must be > 0, got -1"),
        ("diam_omega", 0.0, "bound input diam_omega must be > 0, got 0.0"),
        ("max_cell_diam", float("inf"), "bound input max_cell_diam must be finite, got inf"),
        ("max_cell_diam", 0, "bound input max_cell_diam must be > 0, got 0"),
        ("expected_abs_noise", float("nan"), "bound input expected_abs_noise must be finite, got nan"),
        ("expected_abs_noise", -2, "bound input expected_abs_noise must be >= 0, got -2"),
        # integers past float range, which every formula converts
        *((key, 10**400, f"bound input {key} is too large for a float") for key in ("n", "m", "d")),
    ],
)
def test_bounds_refuses_a_value_of_the_wrong_type_naming_the_field(tmp_path, capsys, key, value, message):
    inp = tmp_path / "inputs.json"
    inp.write_text(json.dumps({"a": 16, "b": 16, "n": 100, "m": 4, "eps": 1.0, "d": 1, key: value}))
    assert main(["bounds", "--json", str(inp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "extra, term",
    [({"a": 1e200, "b": 1e200}, "distribution.edge_probability is inf"),
     ({"C": 1e308, "L_kappa": 1e308}, "expected_fgw.matched_cell is inf"),
     # eps * n overflows, so the stein rate reads inf / inf
     ({"n": 10**308, "eps": 700.0}, "rates.stein is nan")],
)
def test_bounds_refuses_inputs_whose_terms_overflow_naming_the_term(tmp_path, capsys, extra, term):
    inp = tmp_path / "inputs.json"
    inp.write_text(json.dumps({**_BOUND_INPUTS, **extra}))
    assert main(["bounds", "--json", str(inp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bound term {term}: the bound inputs are too large for a float\n"


_NOISE_CONFIG = {"recipe": "uniform", "n": 80, "d": 1, "m": 4, "a": 10, "b": 10, "replicates": 4, "ipm_samples": 2}


@pytest.mark.parametrize(
    "key, value",
    [("noise_kind", "bounded_power"), ("noise_kind", "custom"), ("noise_A", 3),
     ("noise_pmf", {"-1": 0.25, "0": 0.5, "1": 0.25}), ("noise_kind", "discrete_laplace"), ("noise_A", 2),
     ("noise_pmf", None), ("refine_size_cap", REFINE_SIZE_CAP), ("refine_size_cap", 100), ("csv_sep", ","),
     ("csv_sep", ";"), ("redact_counts", True), ("redact_counts", False)],
)
def test_former_noise_settings_are_refused(tmp_path, capsys, key, value):
    # a retired setting is refused like a misspelt key, even at the one value it
    # held: the noise is discrete Laplace, the refine size cap a constant, the
    # output comma-separated and private_only the one output switch, so a config
    # or manifest that records one writes nothing
    cfg = {**_NOISE_CONFIG, "seed": 3, key: value}
    for name, obj in (("config", cfg), ("manifest", {"draw_order": DRAW_ORDER, "config": cfg})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        for command in ("generate", "evaluate", "mc"):
            out = tmp_path / f"{name}_{command}"
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: unknown config keys: {key}\n"
            assert not out.exists()
    with pytest.raises(ValueError, match=f"^unknown config keys: {key}$"):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize(
    "key, text",
    [("m", "2.5"), ("refine_iters", "-1"), ("n", "-5"), ("seed", "-1"), ("a", "abc"), ("d", "-1"), ("d", "0"),
     ("replicates", "0")],
)
def test_bad_config_values_are_refused_as_flags_and_in_a_config(tmp_path, capsys, key, text):
    base = {"recipe": "uniform", "n": 60, "m": 4, "a": 8, "b": 8, "seed": 3}
    flags = [arg for k, v in {**base, key: text}.items() for arg in (f"--{k.replace('_', '-')}", str(v))]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, key: text if key == "a" else json.loads(text)}))
    for source in (flags, ["--config", str(path)]):
        for command in ("generate", "evaluate", "mc"):
            out = tmp_path / command
            assert main([command, *source, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {key} must be ")
            assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("d", 1.5), ("replicates", "3"), ("eps", "abc"), ("alpha", "0.5"), ("C", None), ("kernel_param", True)]
)
def test_config_values_of_the_wrong_type_are_refused(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recipe": "uniform", "n": 60, "m": 4, "a": 8, "b": 8, "seed": 3, key: value}))
    for command in ("generate", "evaluate", "mc"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be ")
        assert not out.exists()


def test_m_as_a_numeral_or_auto_still_runs(tmp_path, capsys):
    argv = ["mc", "--recipe", "uniform", "--n", "60", "--a", "8", "--b", "8", "--seed", "3", "--reps", "4"]
    for m, same in (("12", ["12", 12]), ("auto", ["auto"])):
        assert main([*argv, "--m", m]) == 0
        by_flag = capsys.readouterr().out
        for value in same:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"recipe": "uniform", "n": 60, "a": 8, "b": 8, "m": value}))
            assert main(["mc", "--config", str(path), "--seed", "3", "--reps", "4"]) == 0
            assert capsys.readouterr().out == by_flag
    cfg = ExperimentConfig(seed=1, m="12", a="2.5", b=3)
    assert (cfg.m, cfg.a, cfg.b) == (12, 2.5, 3.0)
    with pytest.raises(ValueError, match="refine_iters must be an integer >= 0, got -1"):
        replace(cfg, refine_iters=-1)  # a replaced field passes the same check
