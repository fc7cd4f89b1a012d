"""The example scripts: a model breakdown is one error line and exit code 2."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_scaling_study.py", ["--n-min", "1", "--n-max", "400"]),
        ("run_noise_budget.py", ["--n-max", "200"]),
    ],
)
def test_model_breakdown_exits_cleanly(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 2
    assert out.stderr.strip() == "error: ModelBreakdownError: lambda2 = 1 >= 1 at N = 133"
