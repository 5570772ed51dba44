"""One run of one workload in a fresh process; prints its measurements as JSON.

Run by ``run.py``, in the directory that receives the workload's output
files, with ``src`` on ``PYTHONPATH``.  Timeline:

1. set-up: interpreter start (measured from the parent's ``--spawned-at``
   clock reading), imports, argument parsing of every command line and, for
   rasters, construction of the map, slice and orbit settings;
2. host-speed kernel samples (below);
3. the timed region: every command through ``shearbasins.cli.main``, with
   stdout captured to ``<label>.out`` and numpy ``RuntimeWarning``s counted
   instead of printed;
4. more host-speed kernel samples, then correctness checks on the outputs.

Host-speed normalisation.  The host is a virtual machine whose cores are
shared with other tenants; its speed swings by up to a factor of two over
spans of seconds to minutes, and a run of the whole benchmark is too short
to average that out.  So every time reported here is also given normalised
to a reference host speed: the raw time times ``REFERENCE_KERNEL_S`` over
the median time of a short fixed kernel (an interpreter loop and numpy
arithmetic on a small complex array, no program code) sampled next to it.
The set-up time is normalised by samples taken just after it.  The timed
region is normalised by samples taken just before and after it and, when
the workload runs in this one process, every ``SAMPLE_PERIOD_S`` during it
from a ``SIGALRM`` handler; the time those samples take is subtracted from
the wall time.  With pool workers busy on both cores a sample would measure
the scheduler, and in a traced run it would inflate the span it interrupts,
so none are taken during such regions.  The kernel does not
change with the program, so a faster program still reads faster.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from shearbasins import cli, dynamics

import gate
from workloads import WORKLOADS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process was started")
    parser.add_argument("--workers", type=int, default=None, help="override the raster's worker count")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--sample", action="store_true", help="re-run sampled raster pixels through iterate")
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are built")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its waited-for children (pool workers)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# kernel time on the reference host; normalised times are seconds on a host
# whose kernel time is this (about the kernel's median on the 2-vCPU
# development VM)
REFERENCE_KERNEL_S = 0.006
SAMPLE_PERIOD_S = 0.1
# kernel samples taken before and after each timed region
EDGE_SAMPLES = 5
_KERNEL_ARRAY = np.linspace(0.0, 1.0, 8192) + 0.5j


def kernel_s() -> float:
    """Time of one run of the fixed host-speed kernel, 5 to 7 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    x = _KERNEL_ARRAY.copy()
    for _ in range(100):
        x = x * x * 0.5 + 0.1
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples around (and, with ``during``, inside) one timed region."""

    def __init__(self, during: bool):
        self.during = during
        self.samples: list[float] = []
        self._inside: list[tuple[float, float]] = []  # (start, duration) of samples in the region

    def edge(self) -> None:
        self.samples.extend(kernel_s() for _ in range(EDGE_SAMPLES))

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        sample = kernel_s()
        self.samples.append(sample)
        self._inside.append((start, sample))

    def sampled_s(self, start: float, end: float) -> float:
        """Time the samples taken between two ``perf_counter`` readings took."""
        return sum(d for t, d in self._inside if start <= t < end)

    def __enter__(self) -> HostSpeed:
        self.edge()
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.edge()

    def normalise(self, raw_s: float) -> float:
        return raw_s * REFERENCE_KERNEL_S / statistics.median(self.samples)


def main() -> None:
    ns = parse_args()
    workload = WORKLOADS[ns.workload]
    commands = workload.commands(ns.seed, smoke=ns.smoke, workers=ns.workers)
    parser = cli.build_parser()
    for _, argv in commands:
        parser.parse_args(argv)
    raster = workload.get_raster(ns.smoke)
    if raster is not None:
        gate.raster_inputs(raster, ns.seed)
    setup_raw_s = time.monotonic() - ns.spawned_at
    kernel_s()  # the first run pays for numpy's first allocations; not counted
    after_setup = HostSpeed(during=False)
    after_setup.edge()
    setup_s = after_setup.normalise(setup_raw_s)
    if ns.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return

    tracer = None
    if ns.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # keep the raster sample_slice returns, for the scalar re-run check
    rasters = []
    sample_slice = dynamics.sample_slice

    def keep_raster(*args, **kwargs):
        rasters.append(sample_slice(*args, **kwargs))
        return rasters[-1]

    dynamics.sample_slice = keep_raster

    exit_codes, stdout = {}, {}
    workers = ns.workers or (raster.workers if raster is not None else 1)
    # samples inside a traced region would land inside the spans they interrupt
    sample_during = workers == 1 and tracer is None
    with warnings.catch_warnings(record=True) as caught, HostSpeed(during=sample_during) as host:
        warnings.simplefilter("always")  # count every event, not once per source line
        start = time.perf_counter()
        for label, argv in commands:
            stdout[label] = io.StringIO()
            with contextlib.redirect_stdout(stdout[label]):
                exit_codes[label] = cli.main(argv)
        end = time.perf_counter()
        wall_raw_s = end - start - host.sampled_s(start, end)
    wall_s = host.normalise(wall_raw_s)
    rss = peak_rss_mb()
    dynamics.sample_slice = sample_slice
    if tracer is not None:
        tracer.close()
    runtime_warnings = 0
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            runtime_warnings += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    out_dir = Path.cwd()
    for label, buffer in stdout.items():
        (out_dir / f"{label}.out").write_text(buffer.getvalue())
    checks = gate.workload_checks(ns.workload, out_dir, exit_codes)
    undecided_frac = None
    if raster is not None:
        checks += gate.raster_checks(raster, ns.seed, out_dir, rasters[-1].iterations, sample=ns.sample)
        counts = rasters[-1].counts()
        undecided_frac = counts["undecided"] / sum(counts.values())

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "kernel_samples": len(host.samples),
        "kernel_median_s": statistics.median(host.samples),
        "peak_rss_mb": rss,
        "undecided_frac": undecided_frac,
        "runtime_warnings": runtime_warnings,
        "checks": checks,
        "commands": [" ".join(["shearbasins", *argv]) for _, argv in commands],
        "numpy": np.__version__,
        "layers": tracer.layer_metrics() if tracer is not None else None,
        "spans": tracer.stats if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
