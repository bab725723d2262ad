"""Smoke test of the benchmark contract: one zero-second study-pipeline run.

The benchmark calls the package's public names directly; a change that
removes or renames one of them fails here rather than in a later benchmark
run.
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
def test_study_pipeline_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "study-pipeline",
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
