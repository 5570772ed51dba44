"""Orbit, convergence and raster tests.

Oracles are direct iteration of the exact closed forms.  Parabolic decay
makes the origin unreachable at machine precision, so the convergence
checks below always pick configurations whose eps threshold the orbit can
actually cross within the iteration budget.
"""

import cmath
import functools
import math
import operator
import os
import random
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearbasins import dynamics
from shearbasins.dynamics import (
    CODE_CONVERGED,
    CODE_ESCAPED,
    CODE_UNDECIDED,
    CONVERGED,
    ESCAPED,
    UNDECIDED,
    BasinRaster,
    InsufficientDataError,
    OrbitConfig,
    SliceSpec,
    check_equivariance,
    check_fiber_invariance,
    check_product_recursion,
    check_projection_statuses,
    check_semiconjugacy,
    check_trace_consistency,
    classify_batch,
    estimate_tangent,
    iterate,
    petal_rate,
    raster_sidecar,
    sample_slice,
    write_orbit_csv,
    write_pgm,
)
from shearbasins.maps import ElementaryKind, ElementaryMap, MapWord, Params, Prototype, PushforwardMap, build_F

P113 = Params(1.0, 1.0, 3.0)
QUAD = Prototype("quadratic_1d", 1.0)


# ----------------------------------------------------------------------
# iterate


# what math.sqrt(sum(<squares>)) computes before Python 3.12, whose sum
# compensates rounding: the squares added left to right, starting from 0
_plain_sum = sum if sys.version_info < (3, 12) else lambda xs: functools.reduce(operator.add, xs, 0)

SPECIAL_PARTS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.0, -3.0,
                 1e154, -9.99e153, 1.34e154, 1.8e154, math.inf, -math.inf, math.nan]


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.lists(st.builds(complex, *[st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats())] * 2),
                min_size=1, max_size=4))
def test_norm_is_bitwise_the_generator_form(p):
    want = math.sqrt(_plain_sum(x.real * x.real + x.imag * x.imag for x in p))
    assert struct.pack("<d", dynamics._norm(p)) == struct.pack("<d", want)


def test_1d_negative_start_converges():
    orbit = iterate(QUAD, (-0.1,), OrbitConfig(max_iter=5000, record_stride=50))
    assert orbit.status.kind == CONVERGED


def test_1d_positive_start_escapes():
    orbit = iterate(QUAD, (0.5,), OrbitConfig(max_iter=5000, record_stride=50))
    assert orbit.status.kind == ESCAPED


def test_slow_parabolic_orbit_stays_undecided_with_defaults():
    word = build_F(P113)
    cfg = OrbitConfig(max_iter=20_000, record_stride=100)
    orbit = iterate(word, (0.1, 0.1, 0.05), cfg)
    assert orbit.status.kind == UNDECIDED
    zs = orbit.zeta_trace
    assert all(b.real < a.real for a, b in zip(zs, zs[1:]))
    assert abs(orbit.final_point[2]) < 1e-3  # w collapses much faster than z, t


def test_stationary_point_detected():
    word = build_F(P113)
    orbit = iterate(word, (0, 0.3, 0.2), OrbitConfig(max_iter=1000))
    assert orbit.status.kind == UNDECIDED
    assert "stationary" in orbit.status.note
    assert orbit.status.index == 1


def test_non_finite_counts_as_escape():
    orbit = iterate(QUAD, (1e200,), OrbitConfig(max_iter=100))
    assert orbit.status.kind == ESCAPED


def test_escape_radius_triggers():
    word = build_F(P113)
    orbit = iterate(word, (3, 3, 3), OrbitConfig(max_iter=1000))
    assert orbit.status.kind == ESCAPED
    assert orbit.final_norm > 10


def test_record_stride_thins_points_but_not_status():
    dense = iterate(QUAD, (-0.1,), OrbitConfig(max_iter=5000))
    sparse = iterate(QUAD, (-0.1,), OrbitConfig(max_iter=5000, record_stride=500))
    assert dense.status == sparse.status
    assert len(sparse.points) < len(dense.points)


# ----------------------------------------------------------------------
# tangent estimation


def test_tangent_trivial_in_one_variable():
    orbit = iterate(QUAD, (-0.1,), OrbitConfig(max_iter=5000, eps_converged=1e-6))
    tangent, stable = estimate_tangent(orbit)
    assert tangent == ((1 + 0j),)
    assert stable


def test_tangent_of_planar_orbit_approaches_first_axis():
    # the direction ratio decays like n^(-1/2), so the estimate closes in
    # on [1:0] slowly; assert stability and monotone approach
    planar = PushforwardMap(build_F(P113))
    orbit = iterate(planar, (0.01, 0.01), OrbitConfig(max_iter=5000, eps_converged=1e-9))
    tangent, stable = estimate_tangent(orbit)
    assert stable
    assert abs(tangent[0]) > 0.99
    assert abs(tangent[1]) < 0.15
    early = orbit.points[500]
    late = orbit.points[-1]
    assert abs(late[1] / late[0]) < abs(early[1] / early[0])


def test_tangent_of_3d_orbit_lies_in_the_torus_family():
    word = build_F(P113)
    orbit = iterate(word, (0.1, 0.1, 0.05), OrbitConfig(max_iter=10_000, eps_converged=1e-9))
    tangent, stable = estimate_tangent(orbit)
    assert stable
    # the diagonal direction [1:1:0], inside {w=0} and outside both
    # hyperplanes; the w component still carries the residual n^(-1) tail
    assert tangent[0] == tangent[1]  # z = t exactly along the symmetric orbit
    assert abs(tangent[0] - 1 / math.sqrt(2)) < 1e-4
    assert abs(tangent[2]) < 5e-3


def test_tangent_needs_enough_points():
    orbit = iterate(QUAD, (-0.1,), OrbitConfig(max_iter=50))
    with pytest.raises(InsufficientDataError):
        estimate_tangent(orbit)


# ----------------------------------------------------------------------
# verification checks


def test_semiconjugacy_check_passes():
    report = check_semiconjugacy(build_F(P113), samples=100, radius=0.5, rng=random.Random(0))
    assert report.passed
    assert report["pointwise"].defect <= 1e-12
    assert report["orbit_level"].defect <= 1e-9


def test_equivariance_check_passes():
    report = check_equivariance(build_F(P113), samples=50, rng=random.Random(0), status_samples=20)
    assert report.passed
    assert report["algebraic"].defect <= 1e-12
    assert "20/20" in report["status_invariance"].note


def test_equivariance_lambda_one_is_exact():
    word = build_F(P113)
    p = (0.1 + 0.02j, -0.05 + 0.01j, 0.03 - 0.04j)
    base = word(p)
    gauged = word((1.0 * p[0], p[1] / 1.0, p[2]))
    assert max(abs(a - b) for a, b in zip(base, gauged)) == 0.0


def test_fiber_invariance_check_passes():
    report = check_fiber_invariance(build_F(P113), samples=20, rng=random.Random(0))
    assert report.passed
    assert report["zeta_trace"].defect <= 1e-10
    assert "20/20" in report["status"].note


def test_projection_statuses_check_passes():
    report = check_projection_statuses(build_F(P113), samples=50, rng=random.Random(0))
    assert report.passed
    agreement = report["status_agreement"]
    assert "0 undecided" in agreement.note or "excluded" in agreement.note
    assert report["fixed_line"].status == "pass"
    assert report["repelling_side"].status == "pass"
    assert report["both_classes_observed"].status == "pass"
    assert report["lift_trace"].defect <= 1e-10


def test_product_recursion_check():
    report = check_product_recursion(samples=100, rng=random.Random(0))
    assert report.passed
    assert report["recursion"].defect <= 1e-13


def test_petal_rate_of_the_word():
    rate = petal_rate(build_F(P113), zeta0=0.01, n_steps=10_000)
    assert rate["real"] and rate["positive"] and rate["strictly_decreasing"]
    assert 0.425 <= rate["n_zeta"] <= 0.575


def test_petal_rate_across_small_starts():
    word = build_F(P113)
    for zeta0 in (0.02, 0.05, 0.09):
        rate = petal_rate(word, zeta0=zeta0, n_steps=10_000)
        assert rate["strictly_decreasing"] and rate["real"]
        assert 0.425 <= rate["n_zeta"] <= 0.575


def test_trace_consistency_true_projection_tight_frozen_model_loose():
    word = build_F(P113)
    report = check_trace_consistency(word, zeta0=0.01, steps=1500)
    assert report["projected_orbit"].defect <= 1e-10
    frozen = report["frozen_w_model"]
    assert frozen.status == "warn"
    # the {w=0} plane is genuinely not invariant downstairs: the planar
    # image of (z, t, 0) carries (A c - A^2/2) zeta^3 = 4 zeta^3, so the
    # frozen model drifts far beyond trace tolerance
    assert frozen.defect > 1e-10
    jet = word.jet(6)
    assert abs(jet.components[2].coefficient((3, 3, 0)) - 4.0) <= 1e-12


# ----------------------------------------------------------------------
# rasters


def quad_raster(width=200, height=200, max_iter=2500, workers=1):
    spec = SliceSpec(
        base=(0j,), dir1=(1 + 0j,), dir2=(1j,),
        u_range=(-1.5, 0.5), v_range=(-1.0, 1.0), width=width, height=height,
    )
    cfg = OrbitConfig(max_iter=max_iter, record_stride=max_iter + 1)
    return sample_slice(QUAD, spec, cfg, workers=workers), spec, cfg


def test_raster_known_pixels():
    raster, spec, _ = quad_raster(width=64, height=64, max_iter=2000)
    us = spec.axis_u()
    vs = spec.axis_v()
    i = min(range(len(us)), key=lambda i: abs(us[i] + 0.5))
    j = min(range(len(vs)), key=lambda j: abs(vs[j]))
    assert raster.codes[j, i] == CODE_CONVERGED
    i = min(range(len(us)), key=lambda i: abs(us[i] - 0.5))
    assert raster.codes[j, i] == CODE_ESCAPED


def test_raster_conjugation_symmetry():
    raster, _, _ = quad_raster(width=100, height=100, max_iter=2000)
    assert np.array_equal(raster.codes, raster.codes[::-1, :])


def test_raster_deterministic_across_workers():
    r1, _, _ = quad_raster(width=48, height=48, max_iter=1500, workers=1)
    r2, _, _ = quad_raster(width=48, height=48, max_iter=1500, workers=2)
    assert np.array_equal(r1.codes, r2.codes)
    assert np.array_equal(r1.iterations, r2.iterations)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: starts no process, and records the
    max_workers of each pool and the row ranges of the bands it receives."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers, self.bands = max_workers, []
            pools.append(self)

        def map(self, fn, items):
            items = list(items)
            self.bands = [(lo, hi) for *_, lo, hi in items]
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pools


def test_sample_slice_starts_at_most_one_worker_per_usable_cpu(monkeypatch, serial_pool):
    serial, _, _ = quad_raster(width=24, height=24, max_iter=300, workers=1)
    capped, _, _ = quad_raster(width=24, height=24, max_iter=300, workers=64)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    quad_raster(width=24, height=24, max_iter=300, workers=64)
    assert [pool.max_workers for pool in serial_pool] == [2, 3]
    assert np.array_equal(serial.codes, capped.codes)
    assert np.array_equal(serial.iterations, capped.iterations)


def test_bands_are_sized_by_pixel_count(monkeypatch, serial_pool):
    serial_bands = []
    classify_band = dynamics._classify_band
    monkeypatch.setattr(dynamics, "_classify_band",
                        lambda args: serial_bands.append(args[3:]) or classify_band(args))
    # 32x32 is verify's determinism raster: two processes must still share
    # at least two bands; 400x400 is the benchmark's two-worker raster
    for side, parallel_bands in ((32, 2), (400, 8)):
        serial_bands.clear()
        serial, _, _ = quad_raster(width=side, height=side, max_iter=60, workers=1)
        assert serial_bands == [(0, side)]
        pooled, _, _ = quad_raster(width=side, height=side, max_iter=60, workers=2)
        pool = serial_pool[-1]
        assert pool.max_workers == 2
        assert len(pool.bands) == parallel_bands
        assert [lo for lo, _ in pool.bands] == [0] + [hi for _, hi in pool.bands[:-1]]
        assert pool.bands[-1][1] == side
        assert np.array_equal(serial.codes, pooled.codes)
        assert np.array_equal(serial.iterations, pooled.iterations)


def test_raster_codes_form_a_trichotomy():
    raster, _, _ = quad_raster(width=48, height=48, max_iter=800)
    assert set(np.unique(raster.codes)) <= {0, 1, 2}


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(2 + 0j,),
                  u_range=(0, 1), v_range=(0, 1), width=4, height=4)
    with pytest.raises(ValueError):
        SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(1j,),
                  u_range=(0, 1), v_range=(0, 1), width=0, height=4)


def test_symmetric_axis_sampling_is_exactly_mirrored():
    spec = SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(1j,),
                     u_range=(-1.0, 1.0), v_range=(-0.5, 0.5), width=17, height=16)
    us = spec.axis_u()
    assert us[8] == 0.0
    assert all(us[16 - i] == -us[i] for i in range(8))


def test_lifted_raster_branch_independent():
    word = build_F(P113)
    cfg = OrbitConfig(max_iter=800, eps_converged=0.05, record_stride=1000)
    kwargs = dict(base=(0j, 0j, 0j), dir1=(0j, 0j, 0j), dir2=(0j, 0j, 0j),
                  u_range=(-0.2, 0.4), v_range=(-0.3, 0.3), width=24, height=24,
                  w_fix=0.05 + 0j)
    plus = sample_slice(word, SliceSpec(lift="pos", **kwargs), cfg)
    minus = sample_slice(word, SliceSpec(lift="neg", **kwargs), cfg)
    assert np.array_equal(plus.codes, minus.codes)
    assert np.array_equal(plus.iterations, minus.iterations)
    assert {CODE_CONVERGED, CODE_ESCAPED} <= set(np.unique(plus.codes))


def _agree_with_iterate(map_obj, starts, cfg):
    """classify_batch gives every start iterate's status code and decision
    index, without a RuntimeWarning; returns iterate's statuses."""
    code_of = {ESCAPED: CODE_ESCAPED, CONVERGED: CODE_CONVERGED, UNDECIDED: CODE_UNDECIDED}
    coords = [np.array([p[i] for p in starts], dtype=complex) for i in range(len(starts[0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes, iters = classify_batch(map_obj, coords, cfg)
    statuses = [iterate(map_obj, p, cfg).status for p in starts]
    assert codes.tolist() == [code_of[s.kind] for s in statuses]
    assert iters.tolist() == [s.index for s in statuses]
    return statuses


def test_classify_batch_matches_iterate_pixel_by_pixel():
    """Both orbit engines give every start the same status and decision index."""
    word = build_F(P113)
    cfg = OrbitConfig(max_iter=400, eps_converged=0.05, record_stride=1000)
    kwargs = dict(u_range=(-0.5, 0.4), v_range=(-0.3, 0.3), width=12, height=12)
    slices = {
        "lifted F3": (word, SliceSpec(base=(0j,) * 3, dir1=(0j,) * 3, dir2=(0j,) * 3,
                                      lift="pos", w_fix=0.05 + 0j, **kwargs)),
        "G": (PushforwardMap(word), SliceSpec(base=(0j, 0.05 + 0j), dir1=(1 + 0j, 0j),
                                              dir2=(1j, 0j), **kwargs)),
    }
    for name, (map_obj, spec) in slices.items():
        starts = [spec.start_point(u, v) for v in spec.axis_v() for u in spec.axis_u()]
        statuses = _agree_with_iterate(map_obj, starts, cfg)
        assert {s.kind for s in statuses} == {ESCAPED, CONVERGED, UNDECIDED}, name


def test_classify_batch_decides_edge_starts_like_iterate():
    """Non-finite starts, a norm that overflows from finite coordinates and
    stationary points get the same code and decision index in both engines."""
    cfg = OrbitConfig(max_iter=300, eps_converged=1e-3, record_stride=1000)
    nan, inf = complex(math.nan, 0.0), complex(math.inf, 0.0)
    starts = [
        (nan, 0.1 + 0j, 0j),
        (0.1 + 0j, inf, 0.05j),
        (1e200 + 0j, 0j, 0j),  # a fixed point whose norm overflows
        (0.25 + 0j, 0j, 0j),  # fixed, off the origin
        (1e-4 + 0j, 0j, 0j),  # fixed, inside the eps ball
        (0.1 + 0.05j, 0.1 - 0.02j, 0.05j),
        (1.5 + 0j, 1.5 + 0j, 0j),
    ]
    statuses = _agree_with_iterate(build_F(P113), starts, cfg)
    assert [(s.kind, s.index, s.note) for s in statuses[:5]] == [
        (ESCAPED, 1, "non-finite arithmetic"),
        (ESCAPED, 1, "non-finite arithmetic"),
        (ESCAPED, 1, ""),
        (UNDECIDED, 1, "stationary orbit (fixed point off the origin)"),
        (CONVERGED, 1, "stationary inside the eps ball"),
    ]
    planar = [(nan, 0.05 + 0j), (1e200 + 0j, 0j), (0j, 0.05 + 0j), (0j, 1e-4 + 0j), (0.02 + 0j, 0.01 + 0j)]
    _agree_with_iterate(PushforwardMap(build_F(P113)), planar, cfg)


def test_classify_batch_of_a_word_that_returns_its_inputs():
    """A one-factor shear returns the caller's z arrays unchanged."""
    shear = MapWord((ElementaryMap(ElementaryKind.SHEAR, (1.0, 1.0), 3.0),))
    cfg = OrbitConfig(max_iter=300, eps_converged=1e-3, record_stride=1000)
    starts = [(1 + 0j, 1 + 0j, 0j), (0.3 + 0j, 0j, 0.2 + 0j), (1e-4 + 0j, 0j, 0j), (0.5 + 0j, 0.5j, 0.1j)]
    statuses = _agree_with_iterate(shear, starts, cfg)
    assert [s.kind for s in statuses] == [ESCAPED, UNDECIDED, CONVERGED, ESCAPED]


def test_start_inside_the_eps_ball_decides_at_the_second_window():
    """The first window never passes, so a moving orbit that starts inside
    the eps ball is decided when the second window closes."""
    cfg = OrbitConfig(max_iter=1000, record_stride=1000)
    statuses = _agree_with_iterate(QUAD, [(-1e-4 + 0j,), (-5e-4 + 1e-4j,)], cfg)
    assert [(s.kind, s.index) for s in statuses] == [(CONVERGED, 200)] * 2


def test_classify_batch_matches_iterate_on_the_benchmark_slice():
    """Every pixel of a 24x24 grid of the benchmark's lifted F3 slice gets the
    same code and decision index in both engines."""
    spec = SliceSpec(base=(0j,) * 3, dir1=(0j,) * 3, dir2=(0j,) * 3, u_range=(-1.5, 0.5),
                     v_range=(-1.0, 1.0), width=24, height=24, lift="pos")
    cfg = OrbitConfig(max_iter=1000, eps_converged=0.02, record_stride=1000)
    starts = [spec.start_point(u, v) for v in spec.axis_v() for u in spec.axis_u()]
    statuses = _agree_with_iterate(build_F(P113), starts, cfg)
    assert {s.kind for s in statuses} == {ESCAPED, UNDECIDED}


def test_rasters_of_the_word_raise_no_runtime_warnings():
    """Overflow in the batch steps is counted as escape, not leaked as warnings."""
    word = build_F(P113)
    cfg = OrbitConfig(max_iter=500)
    kwargs = dict(u_range=(-1.5, 0.5), v_range=(-1.0, 1.0), width=80, height=80)
    lifted = SliceSpec(base=(0j,) * 3, dir1=(0j,) * 3, dir2=(0j,) * 3, lift="pos", **kwargs)
    planar = SliceSpec(base=(0j, 0j), dir1=(1 + 0j, 0j), dir2=(1j, 0j), **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f3 = sample_slice(word, lifted, cfg)
        g = sample_slice(PushforwardMap(word), planar, cfg)
    assert f3.counts()["escaped"] > 0 and g.counts()["escaped"] > 0


def test_product_prototype_zeta_raster_matches_1d_model():
    """Rendering the 2D product map through the lift agrees pixelwise with
    the 1D dynamics of u -> u (1 + u/2)^2 once the thresholds are matched:
    the 2D orbit norm is about sqrt(2 |u|), so its eps is sqrt(2 eps_1d)."""
    eps_1d = 1e-3
    cfg_2d = OrbitConfig(max_iter=4000, eps_converged=math.sqrt(2 * eps_1d), record_stride=9999)
    cfg_1d = OrbitConfig(max_iter=4000, eps_converged=eps_1d, record_stride=9999)

    class OneDProductModel:
        def eval_batch(self, coords):
            u = coords[0]
            square = (1 + 0.5 * u) ** 2
            return [u * square]

    proto = Prototype("product_2d")
    kwargs = dict(u_range=(-1.2, 0.4), v_range=(-0.8, 0.8), width=40, height=40)
    spec_2d = SliceSpec(base=(0j, 0j), dir1=(0j, 0j), dir2=(0j, 0j), lift="pos", **kwargs)
    spec_1d = SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(1j,), **kwargs)
    r2d = sample_slice(proto, spec_2d, cfg_2d)
    r1d = sample_slice(OneDProductModel(), spec_1d, cfg_1d)
    agree = np.count_nonzero(r2d.codes == r1d.codes) / r2d.codes.size
    assert agree >= 0.99


# ----------------------------------------------------------------------
# file formats


def test_orbit_csv_format(tmp_path):
    orbit = iterate(QUAD, (-0.1,), OrbitConfig(max_iter=2000, record_stride=100))
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,re_1,im_1,norm"
    assert lines[-1].startswith("# status=CONVERGED(")
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == -0.1


def test_pgm_format_and_determinism(tmp_path):
    raster, spec, cfg = quad_raster(width=32, height=24, max_iter=800)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(raster, p1)
    write_pgm(raster, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert data.startswith(b"P5\n32 24\n255\n")
    body = data.split(b"\n", 3)[3]
    assert len(body) == 32 * 24
    assert set(body) <= {0, 128, 255}
    sidecar = raster_sidecar(raster, spec, cfg)
    assert sidecar["counts"]["converged"] + sidecar["counts"]["escaped"] + sidecar["counts"][
        "undecided"
    ] == 32 * 24
