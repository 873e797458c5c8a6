"""Start-up cost: the solver modules load only where refinement can run.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy.optimize through other tests and the oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_transport_lp
from privgraph.fgw import REFINE_SIZE_CAP

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy.optimize", "scipy.sparse", "numpy.ma")


def _run_fresh(code: str):
    """Run code in a new interpreter that imports privgraph from src/; return
    the JSON object it prints last."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_solver_module():
    loaded = _run_fresh(f"import json, sys\nimport privgraph\nprint(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    assert loaded == []


@pytest.mark.parametrize("a, b", [(10.0, 10.0), (10.0, 12.0), (100.0, 100.0)])
def test_kernel_loads_the_solvers_before_its_replicates_only_when_refinement_can_run(a, b):
    code = f"""
import json, sys
import numpy as np
from privgraph import fgw
from privgraph.graphs import chung_lu
from privgraph.noise import discrete_laplace
from privgraph.space import AttributeDataset, SpaceConfig, build_grid_partition

at_start, imported = [], []
run = fgw.run_replicates

def recording(fn, n, seed):
    at_start.append(["scipy.optimize" in sys.modules, fgw._assignment_solver.cache_info().currsize])

    def replicate(r, rng):
        before = set(sys.modules)
        out = fn(r, rng)
        imported.extend(sorted(set(sys.modules) - before))
        return out

    return run(replicate, n, seed)

fgw.run_replicates = recording
data = AttributeDataset(points=np.random.default_rng(0).random((200, 1)))
part = build_grid_partition(SpaceConfig(d=1), 8)
res = fgw.mc_expected_fgw(data, part, discrete_laplace(1.0), {a}, {b}, chung_lu(1), fgw.FgwParams(),
                          replicates=2, seed=3)
print(json.dumps([at_start, "scipy.optimize" in sys.modules, list(res.evaluators), imported]))
"""
    at_start, loaded_after, evaluators, imported = _run_fresh(code)
    assert imported == []  # no replicate imports a module (numpy.ma from np.unique, say)
    if a * b > REFINE_SIZE_CAP:
        assert at_start == [[False, 0]] and not loaded_after
        assert evaluators == ["exact", "exact"]
        return
    assert "refine" in evaluators
    if a == b:  # every step is a square uniform assignment: only its solver loads
        assert at_start == [[False, 1]] and not loaded_after
    else:  # HiGHS can run
        assert at_start[0][0] and loaded_after


def test_small_square_evaluate_never_imports_scipy_optimize(tmp_path):
    code = f"""
import json, sys
from privgraph.experiments import ExperimentConfig, cmd_evaluate
cfg = ExperimentConfig(seed=2, recipe="uniform", d=2, eps=0.1, n=300, replicates=4, ipm_samples=2,
                       out_dir={str(tmp_path)!r})
cmd_evaluate(cfg)
print(json.dumps("scipy.optimize" in sys.modules))
"""
    assert _run_fresh(code) is False
    manifest = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert manifest["resolved_a"] == manifest["resolved_b"]
    assert manifest["resolved_a"] ** 2 <= REFINE_SIZE_CAP
    assert "refine" in (tmp_path / "evaluate.csv").read_text().splitlines()[-1]


def test_transport_vertex_solvers_load_on_first_use():
    # an assignment shape (equal sizes and weights) and a HiGHS shape
    rng = np.random.default_rng(4)
    square, wide = rng.random((4, 4)), rng.random((3, 5))
    wa, wb = np.array([0.5, 0.3, 0.2]), np.full(5, 0.2)
    code = f"""
import json, sys
import numpy as np
from privgraph.fgw import transport_vertex
square, wide = np.array({square.tolist()!r}), np.array({wide.tolist()!r})
before = "scipy.optimize" in sys.modules
pis = [transport_vertex(square, np.full(4, 0.25), np.full(4, 0.25)),
       transport_vertex(wide, np.array({wa.tolist()!r}), np.array({wb.tolist()!r}))]
print(json.dumps([before, [pi.tolist() for pi in pis]]))
"""
    before, pis = _run_fresh(code)
    assert not before
    for cost, (ra, rb), pi in zip((square, wide), ((np.full(4, 0.25), np.full(4, 0.25)), (wa, wb)), pis):
        pi = np.array(pi)
        np.testing.assert_allclose(pi.sum(axis=1), ra, atol=1e-12)
        np.testing.assert_allclose(pi.sum(axis=0), rb, atol=1e-12)
        assert float((cost * pi).sum()) == pytest.approx(dense_transport_lp(cost, ra, rb).fun, abs=1e-12)
