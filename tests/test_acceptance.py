"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the runtime limits are
asserted with the wall clock.
"""

import math
import random
import time

import numpy as np
import pytest

from shearbasins import cli
from shearbasins.directions import (
    NON_DEGENERATE_ATTRACTING,
    NON_DEGENERATE_OTHER,
    characteristic_directions,
    classify,
    leading_term,
)
from shearbasins.dynamics import (
    CODE_CONVERGED,
    OrbitConfig,
    SliceSpec,
    check_product_recursion,
    check_projection_statuses,
    iterate,
    petal_rate,
    sample_slice,
    write_pgm,
)
from shearbasins.jets import Jet, JetMap
from shearbasins.maps import (
    Params,
    build_F,
    build_family,
    push_forward,
    verify_normal_form,
)
from tests.test_maps import ball_point

P113 = Params(1.0, 1.0, 3.0)


class Criterion:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit = limit_s
        self.t0 = time.perf_counter()

    def finish(self, ok: bool, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if ok and elapsed < self.limit else "FAIL"
        line = f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} ({elapsed:.2f}s / {self.limit:g}s)"
        if detail:
            line += f"  {detail}"
        print(line, flush=True)
        assert ok, f"criterion {self.number} condition failed: {detail}"
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_01_normal_form():
    crit = Criterion(1, "normal form", 1.0)
    jet3 = build_F(P113).jet(3)
    expected = JetMap(
        [
            Jet(3, 3, {(1, 0, 0): 1.0, (2, 1, 0): -1.0}),
            Jet(3, 3, {(0, 1, 0): 1.0, (1, 2, 0): -1.0}),
            Jet(3, 3, {(0, 0, 1): 1.0, (1, 1, 1): -3.0}),
        ]
    )
    exact = jet3 == expected
    report = verify_normal_form(build_F(P113).jet(8), (P113.a, P113.b), P113.c)
    crit.finish(exact and report.passed and len(report.checks) == 5,
                "degree-3 jet exact, five form checks pass")


def test_criterion_02_automorphism():
    crit = Criterion(2, "automorphism inverse", 1.0)
    word = build_F(P113)
    round_trip = word.inverse().then(word)
    jet_defect = round_trip.jet(6).minus_identity().max_abs_diff(JetMap([Jet(3, 6, {})] * 3))
    rng = random.Random(0)
    num_defect = 0.0
    for _ in range(100):
        p = ball_point(rng, 3, 0.5)
        q = word.inverse()(word(p))
        num_defect = max(num_defect, max(abs(a - b) for a, b in zip(p, q)))
    crit.finish(jet_defect < 1e-12 and num_defect < 1e-12,
                f"jet defect {jet_defect:.2e}, numeric defect {num_defect:.2e}")


def test_criterion_03_semiconjugacy():
    crit = Criterion(3, "semi-conjugacy", 2.0)
    word = build_F(P113)
    from shearbasins.maps import eval_pushforward, project_pi

    rng = random.Random(0)
    pointwise = 0.0
    for _ in range(100):
        p = ball_point(rng, 3, 0.5)
        lhs = project_pi(word(p))
        rhs = eval_pushforward(word, project_pi(p))
        pointwise = max(pointwise, max(abs(a - b) for a, b in zip(lhs, rhs)))

    p = (0.1 + 0j, 0.1 + 0j, 0.05 + 0j)
    q = project_pi(p)
    orbit_defect = 0.0
    for _ in range(1000):
        p = word(p)
        q = eval_pushforward(word, q)
        orbit_defect = max(orbit_defect, max(abs(a - b) for a, b in zip(project_pi(p), q)))

    g = push_forward(word.jet(8))  # raises if any monomial breaks the product structure
    g1, g2 = g.components
    coeffs_ok = (
        abs(g1.coefficient((2, 0)) + 2.0) <= 1e-12
        and abs(g2.coefficient((1, 1)) + 3.0) <= 1e-12
        and abs(g1.coefficient((1, 0)) - 1.0) <= 1e-12
        and abs(g2.coefficient((0, 1)) - 1.0) <= 1e-12
    )
    crit.finish(pointwise < 1e-12 and orbit_defect < 1e-9 and coeffs_ok,
                f"pointwise {pointwise:.2e}, orbit {orbit_defect:.2e}, planar coefficients -2a and -c")


def test_criterion_04_director_values():
    crit = Criterion(4, "director values", 1.0)
    results = []
    for a, c, expected in ((1.0, 3.0, 0.5), (2.0, 5.0, 0.25), (0.5, 2.0, 1.0)):
        g = push_forward(build_F(Params(a, a, c)).jet(6))
        lt = leading_term(g)
        found = characteristic_directions(lt, names=("zeta", "w"))
        d = next(x for x in found if not x.degenerate and x.family_dim == 0)
        value_ok = abs(d.directors[0] - expected) <= 1e-10
        attracting = classify(d) == NON_DEGENERATE_ATTRACTING
        results.append(value_ok and attracting)

    g = push_forward(build_F(Params(1.0, 1.0, 2.0)).jet(6))
    lt = leading_term(g)
    d = next(x for x in characteristic_directions(lt) if not x.degenerate and x.family_dim == 0)
    boundary_ok = classify(d) == NON_DEGENERATE_OTHER
    crit.finish(all(results) and boundary_ok,
                "directors 0.5, 0.25, 1.0 attracting; c = 2a boundary not attracting")


def test_criterion_05_equivariance_and_fibers():
    crit = Criterion(5, "equivariance and fiber statuses", 10.0)
    word = build_F(P113)
    rng = random.Random(0)
    import cmath

    defect = 0.0
    for _ in range(50):
        p = ball_point(rng, 3, 0.25)
        lam = cmath.exp(2j * math.pi * rng.random()) * (0.5 + 1.5 * rng.random())
        gauged = word((lam * p[0], p[1] / lam, p[2]))
        base = word(p)
        defect = max(
            defect,
            abs(gauged[0] - lam * base[0]),
            abs(gauged[1] - base[1] / lam),
            abs(gauged[2] - base[2]),
        )

    cfg = OrbitConfig(max_iter=20_000, eps_converged=0.02, record_stride=10_000)
    agree = 0
    for _ in range(20):
        p = ball_point(rng, 3, 0.3)
        gauged = (2 * p[0], p[1] / 2, p[2])
        if iterate(word, p, cfg).status.kind == iterate(word, gauged, cfg).status.kind:
            agree += 1
    crit.finish(defect < 1e-12 and agree == 20,
                f"equivariance defect {defect:.2e}, fiber statuses {agree}/20")


def test_criterion_06_projection_statuses():
    crit = Criterion(6, "projected basin sampling", 30.0)
    report = check_projection_statuses(build_F(P113), samples=50, rng=random.Random(0))
    agreement = report["status_agreement"]
    ok = (
        report.passed
        and agreement.defect == 0.0
        and report["fixed_line"].status == "pass"
        and report["both_classes_observed"].status == "pass"
    )
    crit.finish(ok, agreement.note)


def test_criterion_07_parabolic_rate():
    crit = Criterion(7, "parabolic decay rate", 5.0)
    rate = petal_rate(build_F(P113), zeta0=0.01, n_steps=10_000)  # start (0.1, 0.1, 0)
    ok = (
        0.425 <= rate["n_zeta"] <= 0.575
        and rate["strictly_decreasing"]
        and rate["real"]
        and rate["positive"]
    )
    crit.finish(ok, f"n*zeta_n = {rate['n_zeta']:.4f} at n = 10^4, trace real and strictly decreasing")


def test_criterion_08_product_recursion():
    crit = Criterion(8, "product recursion", 1.0)
    report = check_product_recursion(samples=100, rng=random.Random(0), steps=100, tol=1e-13)
    crit.finish(report.passed, f"max relative defect {report['recursion'].defect:.2e}")


def test_criterion_09_basin_raster(tmp_path):
    """Raster of the quadratic basin.

    The non-basin set near the origin is a thin cusp along the positive
    real axis, so the iteration budget is set at the resolution scale
    (1000 steps): the parabolic slowdown then marks the boundary with
    undecided pixels, and every 10x10 pixel window whose extent covers the
    origin point contains both converged and non-converged codes.
    """
    crit = Criterion(9, "basin raster", 60.0)
    spec = SliceSpec(
        base=(0j,), dir1=(1 + 0j,), dir2=(1j,),
        u_range=(-1.5, 0.5), v_range=(-1.0, 1.0), width=200, height=200,
    )
    cfg = OrbitConfig(max_iter=1000, record_stride=9999)
    from shearbasins.maps import Prototype

    proto = Prototype("quadratic_1d", 1.0)
    r1 = sample_slice(proto, spec, cfg, workers=1)
    r2 = sample_slice(proto, spec, cfg, workers=1)
    r3 = sample_slice(proto, spec, cfg, workers=3)
    paths = [tmp_path / f"r{i}.pgm" for i in range(3)]
    for raster, path in zip((r1, r2, r3), paths):
        write_pgm(raster, path)
    bytes_equal = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )

    symmetric = bool(np.array_equal(r1.codes, r1.codes[::-1, :]))

    us, vs = spec.axis_u(), spec.axis_v()
    boundary_ok = True
    n_windows = 0
    for ci in range(0, spec.width - 9):
        if not us[ci] <= 0.0 <= us[ci + 9]:
            continue
        for cj in range(0, spec.height - 9):
            if not vs[cj] <= 0.0 <= vs[cj + 9]:
                continue
            n_windows += 1
            window = r1.codes[cj : cj + 10, ci : ci + 10]
            has_converged = bool(np.any(window == CODE_CONVERGED))
            has_other = bool(np.any(window != CODE_CONVERGED))
            boundary_ok = boundary_ok and has_converged and has_other
    crit.finish(
        bytes_equal and symmetric and boundary_ok and n_windows == 81,
        "byte-identical across runs and workers, conjugation symmetric, "
        f"origin on the basin boundary in all {n_windows} covering windows",
    )


def test_criterion_10_direction_solver(capsys):
    crit = Criterion(10, "direction solver", 5.0)
    lt = leading_term(build_F(P113).jet(6))
    found = characteristic_directions(lt, names=("z", "t", "w"))
    tags = {d.family_tag for d in found}
    families_ok = "hyperplane z=0" in tags and "hyperplane t=0" in tags
    extras = [d for d in found if not d.degenerate]
    extras_ok = bool(extras) and all(d.residual < 1e-8 for d in extras)

    code = cli.main(["directions", "--map", "F3", "--a", "1", "--b", "1", "--c", "3"])
    out = capsys.readouterr().out
    flagged = "WARN" in out and "beyond the degenerate coordinate hyperplanes" in out
    with capsys.disabled():
        crit.finish(
            families_ok and extras_ok and flagged and code == 0,
            f"{len(found)} directions, extras flagged in a discrepancy note",
        )


def test_criterion_11_family():
    crit = Criterion(11, "higher-dimensional family", 5.0)
    weights = (1.0, 1.0, 1.0)
    word = build_family(3, weights, 4.0)
    report = verify_normal_form(word.jet(8), weights, 4.0, note_literal_remainder=True)
    k2_match = build_family(2, (1.0, 1.0), 3.0).jet(6).allclose(build_F(P113).jet(6), tol=1e-12)
    crit.finish(report.passed and k2_match,
                "normal form certified at order 8, k=2 specialization matches the 3D word")
