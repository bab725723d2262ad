"""Smoke test of the benchmark contract: one zero-second run of a workload.

The benchmark calls the package's public names directly; a change that
removes or renames one of them fails here rather than in a later benchmark
run. ``study-scale`` also checks the parse of a 100k-row CSV against the
benchmark's own recounts, which do not import the package. ``engine-deep`` is
the one workload that hands ``TransactionDatabase.build`` and
``build_vertical_index`` a list of ``Transaction`` rows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="the benchmark pins itself to one CPU"
)
@pytest.mark.parametrize("workload", ["study-pipeline", "study-scale", "engine-deep"])
def test_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
