"""The benchmark's workloads: the command lines each one runs and why it exists.

A workload is a list of ``shearbasins`` command lines built from one input
seed.  Commands write their files into the current directory, so the same
command line can run in any scratch directory.  Raster workloads also carry
the slice and orbit settings the correctness checks need to rebuild their
inputs through the public API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Raster:
    """One ``shearbasins basin`` run: map, slice, budget and worker count."""

    map_name: str
    lift: str
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    res: tuple[int, int]
    max_iter: int
    eps: float
    workers: int
    # the other worker count, run once per benchmark run as the reference
    # whose bytes must match and, when traced, as the parallel-efficiency probe
    alt_workers: int
    # conjugation symmetry: a real map on a v-symmetric slice gives a raster
    # equal to its vertical mirror
    mirror: bool

    def shifted_u_range(self, seed: int) -> tuple[float, float]:
        """The u-range moved by a seeded fraction of one pixel."""
        pixel = (self.u_range[1] - self.u_range[0]) / (self.res[0] - 1)
        shift = random.Random(seed).random() * pixel
        return (self.u_range[0] + shift, self.u_range[1] + shift)

    def argv(self, seed: int, workers: int | None = None) -> list[str]:
        umin, umax = self.shifted_u_range(seed)
        argv = ["basin", "--map", self.map_name]
        if self.lift != "none":
            argv += ["--lift", self.lift]
        argv += ["--slice", repr(umin), repr(umax), repr(self.v_range[0]), repr(self.v_range[1]),
                 "--res", str(self.res[0]), str(self.res[1]),
                 "--max-iter", str(self.max_iter), "--eps", repr(self.eps),
                 "--workers", str(self.workers if workers is None else workers),
                 "--out", "basin.pgm"]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    raster: Raster | None = None
    smoke_raster: Raster | None = None
    # input seed of the timed repeats when it must not be the run's seed
    fixed_timing_seed: int | None = None

    def timing_seed(self, seed: int) -> int:
        return seed if self.fixed_timing_seed is None else self.fixed_timing_seed

    def commands(self, seed: int, smoke: bool = False, workers: int | None = None) -> list[tuple[str, list[str]]]:
        """(label, argv) pairs; the label names the command's stdout file."""
        raster = self.get_raster(smoke)
        if raster is not None:
            return [("basin", raster.argv(seed, workers))]
        if self.name == "verify":
            return [("verify", ["verify", "--a", "1", "--b", "1", "--c", "3",
                                "--seed", str(seed), "--json-out", "verify.json"])]
        family_order, fk_order = ("6", "8") if smoke else ("10", "12")
        return [
            ("family", ["family", "--k", "4", "--a", "1", "--b", "5", "--order", family_order,
                        "--seed", str(seed), "--json-out", "family.json"]),
            ("directions_g", ["directions", "--map", "G", "--order", "8",
                              "--json-out", "directions_g.json"]),
            ("directions_fk", ["directions", "--map", "FAMILY_K", "--k", "3", "--a", "1", "--b", "4",
                               "--order", fk_order, "--json-out", "directions_fk.json"]),
        ]

    def get_raster(self, smoke: bool) -> Raster | None:
        return self.smoke_raster if smoke else self.raster


_F3_LIFT = Raster(map_name="F3", lift="pos", u_range=(-1.5, 0.5), v_range=(-1.0, 1.0),
                  res=(150, 150), max_iter=2000, eps=0.02, workers=1, alt_workers=2, mirror=False)
_QUAD_W2 = Raster(map_name="PROTO_1D", lift="none", u_range=(-1.5, 0.5), v_range=(-1.0, 1.0),
                  res=(400, 400), max_iter=1000, eps=1e-3, workers=2, alt_workers=1, mirror=True)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "scalar MapWord steps inside the dynamics.check_* orbit checks; almost no batch work",
            # the checks sample random orbits that either decide early or run to
            # their 20 000-step budget, so one seed's run costs anywhere from 2.5
            # to 5.0 s (20 seeds measured); timed repeats all run the command's
            # default seed, so that runs on different seeds time the same work
            fixed_timing_seed=0,
        ),
        Workload(
            "basin_f3_lift",
            "batch orbit engine on the paper's lifted F3 with 1 worker; budget-bound pixels dominate",
            raster=_F3_LIFT,
            smoke_raster=replace(_F3_LIFT, res=(12, 12), max_iter=200),
        ),
        Workload(
            "basin_quad_w2",
            "cheap non-MapWord map with 2 workers: classify_batch overhead and the pool; control for map changes",
            raster=_QUAD_W2,
            smoke_raster=replace(_QUAD_W2, res=(24, 24), max_iter=200),
        ),
        Workload(
            "jets_family",
            "dense Jet multiplication and compose in family and directions; no orbit work",
        ),
    )
}
