"""Smoke test of the benchmark on a tiny corpus: every workload, untraced and
traced, ends correct and reports exactly the metrics BENCHMARK.json names.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    result, stdout = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_fingerprints_repeat_for_a_seed():
    first, _ = run_bench("default", 0, seed=5)
    second, _ = run_bench("default", 0, seed=5)
    for name in ("train_attn.loss", "train_gcn.loss", "train_siamese.loss",
                 "eval_attention.map", "eval_graph.map", "eval_graph.top1"):
        assert repr(first["metrics"][name]["value"]) == repr(second["metrics"][name]["value"]), name


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
