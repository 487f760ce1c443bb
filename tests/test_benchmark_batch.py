import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["word-problem", "hurwitz-orbits", "monodromy"])
def test_a_benchmark_batch_meets_its_known_answers(workload):
    # one batch of each benchmark workload at seed 1, in a fresh
    # interpreter as perfbench/run.py starts it; every item's verdict is
    # checked against answers computed without braidwork
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "batch.py"), "--workload", workload,
         "--seed", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    batch = json.loads(proc.stdout.strip().splitlines()[-1])
    assert batch["failures"]
    assert [f for f in batch["failures"] if f] == []
