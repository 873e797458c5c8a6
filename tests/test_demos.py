"""The demo scripts still run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GENERATION_DEMO = "03_coupled_generation.py"  # writes DOT files to the directory given


def _run_demo(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name != GENERATION_DEMO))
def test_demo_runs(name):
    assert _run_demo(name).stdout


def test_coupled_generation_demo(tmp_path):
    proc = _run_demo(GENERATION_DEMO, str(tmp_path))
    pattern = re.compile(
        r"eps=\s*(\S+) \(m=\d+\): true graph (\d+) vertices / (\d+) edges, "
        r"synthetic (\d+) vertices / (\d+) edges, (\d+) of (\d+) shared slots matched"
    )
    rows = [m.groups() for m in map(pattern.match, proc.stdout.splitlines()) if m]
    assert [r[0] for r in rows] == ["1", "0.1", "0.01"]
    for row in rows:
        n_true, e_true, n_syn, e_syn, matched, shared = map(int, row[1:])
        assert 0 < e_true <= n_true * (n_true - 1) // 2
        assert 0 < e_syn <= n_syn * (n_syn - 1) // 2
        assert matched <= shared <= min(n_true, n_syn)
    written = ["synthetic_eps0.01.dot", "synthetic_eps0.1.dot", "synthetic_eps1.dot", "true.dot"]
    assert sorted(p.name for p in tmp_path.iterdir()) == written
