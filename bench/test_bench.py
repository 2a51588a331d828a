"""Tests of the benchmark itself.

    python3 -m pytest bench

They run small slices of each workload in-process and two short runs of
bench/run.py as a child process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_qmol()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = (
    "sweep.cells",
    "dynamics.time_points",
    "serialize.bytes_out",
)
EXACT_CALLS = (
    "linalg.hermitian_eigensolve.real",
    "linalg.hermitian_eigensolve.complex",
)


def _slice(workload, seed: int) -> list:
    """The three cheapest requests of the seed's pass, the regenerated one first."""
    requests = workload.requests(seed)
    cheap = sorted(requests, key=lambda r: (not r.regenerate, r.items))
    return cheap[:3]


def _traced_run(name: str, seed: int, workdir: Path) -> run.Runner:
    runner = run.Runner(WORKLOADS[name], seed, workdir, tracing.Tracer())
    runner.run_pass(_slice(runner.workload, seed))
    return runner


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_give_the_same_outputs(name, tmp_path):
    traced = _traced_run(name, 11, tmp_path)
    plain = run.Runner(WORKLOADS[name], 11, tmp_path)
    plain.run_pass(_slice(plain.workload, 11))
    assert traced.failures == [] and plain.failures == []
    assert traced.digests == plain.digests
    assert len(traced.digests) == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_for_the_same_seed(name, tmp_path):
    first = _traced_run(name, 12, tmp_path).tracer.take()
    second = _traced_run(name, 12, tmp_path).tracer.take()
    assert first["counts"] == second["counts"]
    for span in EXACT_CALLS:
        assert first["stats"][span][0] == second["stats"][span][0]
    assert sum(first["counts"].values()) > 0


def test_tracing_restores_qmol():
    import qmol.cli
    import qmol.sweep

    before = (qmol.cli.main, qmol.sweep.hermitian_eigensolve)
    tracer = tracing.Tracer()
    tracer.install()
    assert qmol.sweep.hermitian_eigensolve is qmol.linalg.hermitian_eigensolve
    assert qmol.sweep.hermitian_eigensolve is not before[1]
    tracer.uninstall()
    assert (qmol.cli.main, qmol.sweep.hermitian_eigensolve) == before


def _result(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "crosschecks",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_qmol_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eigen_maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
