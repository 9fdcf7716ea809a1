"""Self-test of the benchmark: every workload at a tiny size emits every
metric BENCHMARK.json names, and the benchmark refuses to run without
orbitlab's sources.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=root, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if workload != "roundtrip":  # roundtrip holds the one known defect
        assert result["failed"] == 0


def test_untraced_passes_run_unwrapped():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import orbitlab
    import orbitlab.cli  # noqa: F401
    from tracer import Tracer

    original = orbitlab.vmodel.exp_mul
    mul = orbitlab.cyclotomic.CycNumber.__mul__
    bch = orbitlab.freelie.bch
    tracer = Tracer(orbitlab)
    tracer.install()
    try:
        assert orbitlab.vmodel.exp_mul is not original
        assert orbitlab.lazard.exp_mul.__wrapped__ is original
        assert orbitlab.freelie._SERIES["bch"].__wrapped__ is bch
    finally:
        tracer.uninstall()
    assert orbitlab.vmodel.exp_mul is original
    assert orbitlab.lazard.exp_mul is original
    assert orbitlab.cyclotomic.CycNumber.__mul__ is mul
    assert orbitlab.freelie._SERIES["bch"] is bch


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "census", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
