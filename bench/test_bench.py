"""Tests of the benchmark itself: metric coverage, the correctness gate, failure without sources.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from shearbasins import cli, dynamics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_lists_the_runner_workloads():
    assert [{"name": w.name, "why": w.why} for w in WORKLOADS.values()] == SPEC["workloads"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, section):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            emitted = result["metrics"].pop(f"{workload}.{metric['name']}")
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    assert result["metrics"] == {}


def test_single_workload_result_line_has_exactly_the_contract_keys():
    proc = _bench("--workload", "basin_quad_w2", "--seed", "5", "--seconds", "1", "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_counts_a_corrupted_raster_byte_as_a_failure(tmp_path, monkeypatch):
    raster = WORKLOADS["basin_quad_w2"].smoke_raster
    seed = 11
    monkeypatch.chdir(tmp_path)
    assert cli.main(raster.argv(seed)) == 0
    evaluator, spec, cfg = gate.raster_inputs(raster, seed)
    iterations = dynamics.sample_slice(evaluator, spec, cfg).iterations
    assert all(ok for _, ok, _ in gate.raster_checks(raster, seed, tmp_path, iterations, sample=True))
    before = run._digests(tmp_path)

    pgm = tmp_path / "basin.pgm"
    data = bytearray(pgm.read_bytes())
    data[-1] = 255 if data[-1] != 255 else 0  # one pixel changes status
    pgm.write_bytes(bytes(data))

    failed = [name for name, ok, _ in gate.raster_checks(raster, seed, tmp_path, iterations, sample=True) if not ok]
    assert "basin.sidecar_counts" in failed
    assert [name for name, ok, _ in run._compare("corrupt", before, run._digests(tmp_path)) if not ok] == [
        "identical.corrupt.basin.pgm"
    ]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = _bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_samples_during_the_region_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with child.HostSpeed(during=True) as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    inside = host.sampled_s(start, end)
    assert len(host.samples) > 2 * child.EDGE_SAMPLES
    assert 0 < inside < end - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a region twice as long reads twice as long at the same host speed
    assert host.normalise(2.0) == 2 * host.normalise(1.0)
