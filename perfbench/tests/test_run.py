import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "phi-curve",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_traced_run_prints_one_result_line():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "diamond-distance", "--seed", "3", "--seconds", "0",
                          "--trace", "1"],
                         cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] == 27 and res["failed"] == 0
    assert res["metrics"]["sdp.solves"]["value"] == 27
