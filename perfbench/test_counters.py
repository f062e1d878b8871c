"""Deterministic per-layer counters repeat exactly across traced runs.

    python3 -m pytest -q perfbench/test_counters.py

Each workload is run twice with ``--trace 1`` at one seed, each time in a
fresh process; the work counters must be identical, or a later comparison
of two commits by counts would be meaningless.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
COUNTERS = (
    "kernels.points",
    "densities.samples",
    "ratefn.psi_calls",
    "estimator.mean_calls",
    "cgf.finite_n_calls",
    "deviations.steps",
)
# the counters each workload must actually move
EXERCISED = {
    "mc_tail": ("kernels.points", "densities.samples", "estimator.mean_calls",
                "cgf.finite_n_calls", "deviations.steps"),
    "rate_ldp": ("ratefn.psi_calls",),
    "theory_sums": ("estimator.mean_calls", "cgf.finite_n_calls", "ratefn.psi_calls"),
    "stream": ("kernels.points",),
}


def traced_counters(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counters_repeat_exactly(workload):
    first = traced_counters(workload, seed=7)
    second = traced_counters(workload, seed=7)
    assert first == second
    for name in EXERCISED[workload]:
        assert first[name] > 0, name
