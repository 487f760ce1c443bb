import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from braidwork.cli import SCOPES
from test_cli import VERIFY_SHA256

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_orbit_census_table(capsys):
    load_script("orbit_census").run()
    lines = capsys.readouterr().out.splitlines()
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[1:]]
    assert [row[0] for row in rows] == ["2", "3", "4", "5", "6"]
    assert [row[1] for row in rows] == ["3", "8", "27", "80", "240"]
    assert [row[2].split()[0] for row in rows] == ["3", "8", "27", ">5000", ">5000"]


def test_run_verification_writes_one_pinned_certificate_per_scope(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert load_script("run_verification").run() == 0
    written = sorted(path.name for path in (tmp_path / "certificates").iterdir())
    assert written == sorted(f"verify-{scope}.json" for scope in SCOPES)
    for scope in SCOPES:
        cert = json.loads((tmp_path / "certificates" / f"verify-{scope}.json").read_text())
        assert cert["body_sha256"] == VERIFY_SHA256[scope]


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
