"""The benchmark runs end to end on every workload: a short untraced
``perfbench/run.py`` exits 0 and reports every exactness check correct, so an
engine API change that breaks the benchmark fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["score_batch", "split_wide", "train_locked"])
def test_short_untraced_run_is_correct(workload):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                           "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
