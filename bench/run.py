"""Benchmark for shearbasins: four workloads, end-to-end metrics and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Every measurement runs in a fresh child process (``bench/child.py``) that
imports the program from ``src``; one process at a time, so the load is one
workload process and the pool workers it starts.  A run times set-up alone
twice, then repeats the workload until ``--seconds`` are used up.

``--trace 0`` reports the end-to-end metrics: the median set-up time, the
median wall time of the workload's commands and the median peak memory.
Both times are normalised to a reference host speed (see ``child.py``); the
raw medians are printed beside them.  Repeat 0 runs the run's own seed and is
checked but left out of the medians; the repeats after it run the workload's
timing seed.

``--trace 1`` alternates untraced and traced repeats of the run's own seed
and reports the per-layer metrics of the traced ones.  Their output files
must be byte-identical to each other and, for rasters, to a run at the
other worker count.

Both modes check each repeat's outputs (exit codes, report contents, the
raster's sidecar and symmetry) and re-run a seeded sample of repeat 0's
raster pixels through the scalar orbit engine.  The last line of stdout is
the result: ``correct``, checks ``attempted`` and ``failed``, and the
metrics with their units.  ``--workload all`` runs every workload, prints a
table and writes it to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# a run must end within this many seconds, children included
RUN_LIMIT_S = 170.0
SETUP_PROBES = 2
# untraced repeats at least: the run's seed and one timed repeat untraced,
# one traced pair
MIN_REPEATS = {False: 2, True: 1}

# metric names and units come from the benchmark definition at the repository root
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child processes for one benchmark run and keeps their results."""

    def __init__(self, workload: str, smoke: bool, deadline: float, work_dir: Path):
        self.workload = workload
        self.smoke = smoke
        self.deadline = deadline
        self.work_dir = work_dir
        self.count = 0

    def child(self, seed: int, *flags: str) -> tuple[dict, Path]:
        self.count += 1
        out_dir = self.work_dir / f"run{self.count:03d}"
        out_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        args = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload, "--seed", str(seed),
                *flags, *(["--smoke"] if self.smoke else [])]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before a child could start")
        try:
            proc = subprocess.run([*args, "--spawned-at", repr(time.monotonic())], cwd=out_dir, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out: {' '.join(args)}") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"child exited with code {proc.returncode}: {' '.join(args)}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1]), out_dir


def _digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _compare(label: str, reference: dict[str, str], other: dict[str, str]) -> list:
    """One check per output file: present in both runs with identical bytes."""
    return [[f"identical.{label}.{name}", reference.get(name) == other.get(name), ""]
            for name in sorted(set(reference) | set(other))]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, numpy_version: str, commands: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "commands": commands,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns the result record (metrics, checks, provenance)."""
    workload = WORKLOADS[name]
    raster = workload.get_raster(smoke)
    started = time.monotonic()
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=_work_root()))
    runner = Runner(name, smoke, started + RUN_LIMIT_S, work_dir)
    checks: list = []
    commands: dict[str, list[str]] = {}
    try:
        runner.child(seed, "--setup-only")  # warms the file cache and compiles bytecode; not counted
        setup = [runner.child(seed, "--setup-only")[0] for _ in range(SETUP_PROBES)]

        def keep(label: str, result: dict) -> None:
            checks.extend(result["checks"])
            commands[label] = result["commands"]

        untraced, traced = [], []
        reference = alt = None
        loop_start = time.monotonic()
        while True:
            repeat = len(untraced)
            rep_seed = seed if trace or repeat == 0 else workload.timing_seed(seed)
            result, out_dir = runner.child(rep_seed, *(["--sample"] if repeat == 0 else []))
            untraced.append(result)
            setup.append(result)
            keep(f"repeat{repeat}", result)
            if trace:
                digests = _digests(out_dir)
                reference = reference or digests
                checks.extend(_compare(f"repeat{repeat}", reference, digests))
                result, out_dir = runner.child(seed, "--trace", *(["--workers", "1"] if raster else []))
                traced.append(result)
                keep(f"traced{repeat}", result)
                checks.extend(_compare(f"traced{repeat}", reference, _digests(out_dir)))
            now = time.monotonic()
            per_repeat = (now - loop_start) / len(untraced)
            if len(untraced) >= MIN_REPEATS[trace] and now - started + per_repeat > seconds:
                break

        if trace and raster is not None:
            alt, out_dir = runner.child(seed, "--workers", str(raster.alt_workers))
            keep(f"workers{raster.alt_workers}", alt)
            checks.extend(_compare(f"workers{raster.alt_workers}", reference, _digests(out_dir)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for _, ok, _ in checks if not ok)
    record = {
        "workload": name,
        "why": workload.why,
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "failed_frac": failed / len(checks),
        "failed_checks": [c for c in checks if not c[1]],
        "repeats": len(untraced),
        "setup_samples": len(setup),
        "wall_s_samples": [r["wall_s"] for r in untraced],
        "wall_raw_s_samples": [r["wall_raw_s"] for r in untraced],
        "kernel_median_s": [r["kernel_median_s"] for r in untraced],
        "provenance": provenance(seed, untraced[0]["numpy"], commands),
        "elapsed_s": time.monotonic() - started,
    }
    undecided = [r["undecided_frac"] for r in untraced if r["undecided_frac"] is not None]
    if undecided:
        record["undecided_frac"] = statistics.median(undecided)
    walls = [r["wall_s"] for r in untraced]
    if not trace:
        timed = untraced[1:]
        record["raw"] = {
            "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setup),
            "wall_raw_s": statistics.median(r["wall_raw_s"] for r in timed),
        }
        record["metrics"] = {
            "setup_s": statistics.median(r["setup_s"] for r in setup),
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        return record

    layers = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    layers["maps.runtime_warnings"] = statistics.median(r["runtime_warnings"] for r in traced)
    layers["undecided_frac"] = record.get("undecided_frac", 0.0)
    if raster is None:
        layers["dynamics.sample_slice.parallel_eff"] = 0.0
        untraced_wall = statistics.median(walls)
    else:
        main_wall = statistics.median(walls)
        t1, t2 = (main_wall, alt["wall_s"]) if raster.workers == 1 else (alt["wall_s"], main_wall)
        layers["dynamics.sample_slice.parallel_eff"] = t1 / (2 * t2)
        # traced runs use 1 worker, so their overhead is taken against the untraced 1-worker time
        untraced_wall = t1
    layers["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1
    record["metrics"] = layers
    record["spans"] = traced[-1]["spans"]
    return record


def _work_root() -> Path:
    root = BENCH / "out" / "work"
    root.mkdir(parents=True, exist_ok=True)
    return root


def _print_record(record: dict, units: dict[str, str]) -> None:
    print(f"== {record['workload']}: {record['why']}")
    print(f"   {record['repeats']} repeats, {record['setup_samples']} set-up samples, "
          f"{record['elapsed_s']:.1f} s; wall_s per repeat: "
          + " ".join(f"{w:.3f}" for w in record["wall_s_samples"]))
    for key, value in record["metrics"].items():
        print(f"   {key:48s} {value:14.6g} {units[key]}")
    for key, value in record.get("raw", {}).items():
        print(f"   {key:48s} {value:14.6g} s (not normalised)")
    print(f"   {'failed_frac':48s} {record['failed_frac']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} checks failed)")
    if "undecided_frac" in record and "undecided_frac" not in record["metrics"]:
        print(f"   {'undecided_frac':48s} {record['undecided_frac']:14.6g} ratio")
    for name, _, detail in record["failed_checks"]:
        print(f"   FAILED {name} {detail}")
    print("   provenance: " + json.dumps(record["provenance"], sort_keys=True))


def _result_line(records: list[dict], units: dict[str, str]) -> str:
    """The result object; with several workloads each metric name gets its workload as a prefix."""
    prefix = len(records) > 1
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": units[k]}
                    for r in records for k, v in r["metrics"].items()},
    })


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run giving per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    if not (ROOT / "src" / "shearbasins").is_dir():
        print(f"error: no shearbasins sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = PER_LAYER if ns.trace else END_TO_END
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    try:
        records = [run_workload(n, ns.seed, ns.seconds, bool(ns.trace), ns.smoke) for n in names]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_record(record, units)
        if record.get("spans") is not None:
            path = BENCH / "out" / f"spans_{record['workload']}_seed{ns.seed}.json"
            path.write_text(json.dumps(record.pop("spans"), indent=1, sort_keys=True) + "\n")
            print(f"   spans written to {path.relative_to(ROOT)}")
    if ns.workload == "all":
        path = BENCH / "out" / f"all_trace{ns.trace}_seed{ns.seed}.json"
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"results written to {path.relative_to(ROOT)}")
    print(_result_line(records, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
