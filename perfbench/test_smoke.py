"""Smoke test of the benchmark itself.

    python -m pytest perfbench

Runs every workload once at its smallest size and checks that the only
failed operations are the known faults.  Also checks that the benchmark
refuses to run without the program beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result = lines[-1]
    infos = [line for line in lines if "workload" in line]
    assert [i["workload"] for i in infos] == ["dataset-static", "large-tu", "dataset-compile", "corpus"]
    assert result["correct"]
    known = {i["workload"]: i["known_fault_failures"] for i in infos}
    assert known["dataset-static"] > 0 and known["dataset-compile"] > 0
    assert result["failed"] == sum(known.values())
    assert "compiler_version" in lines[0]["environment"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
