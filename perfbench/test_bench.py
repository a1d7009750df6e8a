"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_bench.py                  # ~4 min
    python3 -m pytest -q perfbench/test_bench.py -k grid          # ~8 min

The grid test runs every parameter set a seed can reach and checks every
job's output, which is how the expected outputs were confirmed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DETERMINISTIC_COUNTS = ("algebras.mul_calls", "identcheck.assignments",
                        "identcheck.idspace_rows", "exactnum.rref_cells",
                        "idealtool.subspace_builds", "idealtool.kernel_points")


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
    for name in DETERMINISTIC_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def _failures(jobs) -> int:
    bench = run.Run(run.RUN_CAP_S)
    bench.check_all(bench.run_pass(jobs)[1])
    assert bench.attempted == len(jobs)
    return bench.failed


def test_corrupted_golden_is_a_failure(tmp_path, monkeypatch):
    for f in workloads.GOLDEN_DIR.iterdir():
        shutil.copy(f, tmp_path / f.name)
    monkeypatch.setattr(workloads, "GOLDEN_DIR", tmp_path)
    assert _failures([workloads._reproduce("det54")]) == 0
    path = tmp_path / "det54.txt"
    path.write_text(path.read_text().replace("54", "55"))
    assert _failures([workloads._reproduce("det54")]) == 1


def test_corrupted_nullity_is_a_failure(monkeypatch):
    jobs = [j for j in workloads._idspace_fixed(())
            if j.name == "identity_space deg4 integration"]
    assert _failures(jobs) == 0
    monkeypatch.setattr(workloads, "INTEGRATION_NULLITY", 2)
    jobs = [j for j in workloads._idspace_fixed(())
            if j.name == "identity_space deg4 integration"]
    assert _failures(jobs) == 1


def test_wrong_verdict_is_a_failure():
    A = workloads.algebras.plus(workloads.algebras.osborn(1, 1, 7, 1))
    holds = workloads._poly("tortken")
    job = workloads._check_job("tortken expected to fail", A, holds,
                               workloads._fails_with_witness(A), True)
    assert _failures([job]) == 1


def test_job_past_the_cap_fails_and_ends_the_run(monkeypatch):
    def spin():
        while True:
            pass

    monkeypatch.setattr(run, "JOB_CAP_S", 1)
    ran = []
    jobs = [workloads.Job("spin", False, spin, lambda out: None),
            workloads.Job("after", True, lambda: ran.append(1), lambda out: None)]
    bench = run.Run(run.RUN_CAP_S)
    bench.check_all(bench.run_pass(jobs)[1])
    assert bench.stopped and (bench.attempted, bench.failed) == (1, 1)
    assert not ran


@pytest.mark.parametrize("workload,family", [
    (w, f.name) for w in workloads.WORKLOADS for f in workloads.FAMILIES[w]])
def test_every_grid_point_is_correct(workload, family):
    fam = next(f for f in workloads.FAMILIES[workload] if f.name == family)
    for params in fam.grid:
        jobs = fam.make(params)
        assert _failures(jobs) == 0, (family, params)
