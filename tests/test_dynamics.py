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
import signal
import struct
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearbasins import cli, dynamics, maps
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
from shearbasins.jets import DimensionError
from shearbasins.maps import (
    ElementaryKind, ElementaryMap, MapWord, Params, Prototype, build_F, build_family, planar_word,
)

P113 = Params(1.0, 1.0, 3.0)
QUAD = Prototype("quadratic_1d", 1.0)


# ----------------------------------------------------------------------
# iterate


# what math.sqrt(sum(<squares>)) computes before Python 3.12, whose sum
# compensates rounding: the squares added left to right, starting from 0
_plain_sum = sum if sys.version_info < (3, 12) else lambda xs: functools.reduce(operator.add, xs, 0)

SPECIAL_PARTS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.0, -3.0,
                 1e154, -9.99e153, 1.34e154, 1.8e154, math.inf, -math.inf, math.nan]


SPECIAL_COMPLEX = st.builds(complex, *[st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats())] * 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.lists(SPECIAL_COMPLEX, min_size=1, max_size=4))
def test_norm_is_bitwise_the_generator_form(p):
    want = math.sqrt(_plain_sum(x.real * x.real + x.imag * x.imag for x in p))
    assert struct.pack("<d", dynamics._norm(p)) == struct.pack("<d", want)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.tuples(*[SPECIAL_COMPLEX] * k), min_size=1, max_size=8)))
def test_batch_norm_is_bitwise_the_scalar_norm(points):
    """The square root of the batch engine's squared norm of every element is
    ``_norm`` of it, bit for bit."""
    coords = [np.array([p[i] for p in points], dtype=complex) for i in range(len(points[0]))]
    with np.errstate(over="ignore"):  # classify_batch's own errstate
        squared = dynamics._batch_norm(coords)
    for p, got in zip(points, np.sqrt(squared)):
        want = dynamics._norm(p)
        assert math.isnan(got) and math.isnan(want) or struct.pack("<d", got) == struct.pack("<d", want), p


def _assert_exact_bounds(eps, radius):
    """lo and hi decide eps <= sqrt(s) <= radius at themselves and one ulp either side."""
    lo, hi = dynamics._squared_bounds(eps, radius)
    for s in (lo, hi, *(math.nextafter(x, toward) for x in (lo, hi) for toward in (0.0, math.inf))):
        assert (s >= lo) == (math.sqrt(s) >= eps), (eps, s)
        assert (s <= hi) == (math.sqrt(s) <= radius), (radius, s)


@pytest.mark.parametrize("eps, radius", [
    (0.02, 10.0),
    (1e-3, 10.0),
    (1e-310, 10.0),  # subnormal
    (5e-324, 1.0),  # the least subnormal
    (1e-170, 10.0),  # eps * eps underflows to 0
    (1e-160, 10.0),  # eps * eps is subnormal
    (1e-3, 1.5e154),  # radius * radius overflows
    (1e-3, 1.7976931348623157e308),
    (1e-3, math.inf),
])
def test_squared_bounds_are_exact(eps, radius):
    _assert_exact_bounds(eps, radius)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(POSITIVE, POSITIVE)
def test_squared_bounds_are_exact_for_any_eps_below_radius(x, y):
    if x != y:
        _assert_exact_bounds(min(x, y), max(x, y))


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
    zs = [p[0] * p[1] for p in orbit.points]
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


ADVANCE_WORDS = {
    "F3": build_F(P113),
    "G": planar_word(build_F(P113)),
    "FAMILY_K": build_family(3, (1.0, 1.0, 1.0), 4.0),
    "F3(0.1,0.7,3.3)": build_F(Params(0.1, 0.7, 3.3)),
    "FAMILY_K(0.1,0.7,3.3)": build_family(3, (0.1, 0.7, 3.3), 4.0),
}


@pytest.mark.parametrize("stride", [1, 7, 100, 10_000])
@pytest.mark.parametrize("name", ADVANCE_WORDS)
def test_compiled_step_loop_gives_the_per_step_orbit(name, stride, monkeypatch):
    """iterate on a word, which runs its compiled ``advance`` loop at strides
    above 1, records the points, indices and status of the per-step path,
    which calls the word once per step.  The starts converge, stay undecided, escape, sit on
    the fixed plane z = 0, have a nan norm, or, under an escape radius of
    1e300, overflow cmath.exp so that the step falls back to _cexp."""
    word = ADVANCE_WORDS[name]
    rng = random.Random(word.dim)
    starts = [dynamics.sample_ball_point(rng, word.dim, 0.4) for _ in range(4)]
    starts += [dynamics.sample_ball_point(rng, word.dim, 4.0), (0j, *starts[0][1:]),
               (complex(math.nan, 0.0), *starts[0][1:]), (3 + 0j,) * word.dim]
    cexp, fallbacks = maps._cexp, []
    monkeypatch.setattr(maps, "_cexp", lambda x: fallbacks.append(x) or cexp(x))
    for radius in (10.0, 1e300):
        cfg = OrbitConfig(max_iter=1000, eps_converged=0.05, escape_radius=radius, record_stride=stride)
        for p in starts:
            compiled, per_step = iterate(word, p, cfg), iterate(lambda q: word(q), p, cfg)
            assert repr(compiled.points) == repr(per_step.points), (radius, p)
            assert (compiled.indices, compiled.status) == (per_step.indices, per_step.status), (radius, p)
    assert fallbacks


def test_iterate_rejects_points_of_the_wrong_dimension():
    for word in ADVANCE_WORDS.values():
        for dim in (word.dim - 1, word.dim + 1):
            with pytest.raises(DimensionError):
                iterate(word, (0.1j,) * dim)


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
    planar = planar_word(build_F(P113))
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
    report = check_semiconjugacy(build_F(P113), rng=random.Random(0))
    assert report.passed
    assert report["pointwise"].defect <= 1e-12
    assert report["jet"].defect <= 1e-12


def test_semiconjugacy_check_fails_for_a_mutated_weight(monkeypatch):
    """G compiled with weight a + b + 1e-9 fails the pointwise and the jet comparison."""
    word = build_F(P113)
    mutated = MapWord(tuple(ElementaryMap(f.kind, (f.weights[0] + 1e-9,), f.w_coeff)
                            for f in planar_word(word).factors))
    assert mutated.factors[0].weights == (2 + 1e-9,)
    monkeypatch.setattr(dynamics, "planar_word", lambda w: mutated)
    report = check_semiconjugacy(word)
    assert not report["pointwise"].ok and not report["jet"].ok


def test_equivariance_check_passes():
    report = check_equivariance(build_F(P113), rng=random.Random(0))
    assert report.passed
    assert report["algebraic"].defect <= 1e-12


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
    report = check_trace_consistency(word)
    assert report["projected_orbit"].defect <= 1e-10
    assert [c.name for c in report.checks] == ["projected_orbit"]
    assert any("{w=0} is not invariant" in n for n in report.notes)
    # the {w=0} plane is genuinely not invariant downstairs: the planar
    # image of (z, t, 0) carries (A c - A^2/2) zeta^3 = 4 zeta^3, so a
    # model that freezes w = 0 drifts from the trace
    jet = word.jet(6)
    assert abs(jet.components[2].coefficient((3, 3, 0)) - 4.0) <= 1e-12


def test_trace_consistency_fails_for_a_mutated_weight(monkeypatch):
    """The one orbit-level semi-conjugacy check fails against a G compiled with weight a + b + 1e-6."""
    word = build_F(P113)
    mutated = MapWord(tuple(ElementaryMap(f.kind, (f.weights[0] + 1e-6,), f.w_coeff)
                            for f in planar_word(word).factors))
    assert mutated.factors[0].weights == (2 + 1e-6,)
    monkeypatch.setattr(dynamics, "planar_word", lambda w: mutated)
    proj = check_trace_consistency(word)["projected_orbit"]
    assert not proj.ok and proj.defect > proj.tolerance


def recorded_products(word, n_steps, side=1.0):
    """The index list and the products z*t of the stride-1 orbit from
    (s, s, 0), s = sqrt(side * 0.01), that petal_rate (on the ray of
    sign(a + b)) and check_trace_consistency (side 1) step through."""
    s = cmath.sqrt(side * 0.01)
    cfg = OrbitConfig(max_iter=n_steps, eps_converged=1e-15, escape_radius=10.0, record_stride=1)
    orbit = iterate(word, (s, s, 0.0), cfg)
    return orbit.indices, [p[0] * p[1] for p in orbit.points]


@pytest.mark.parametrize("params, n_last", [((1.0, 1.0, 3.0), 10_000), ((1.0, 2.0, 4.0), 10_000),
                                            ((-1.0, -1.0, 3.0), 10_000)])
def test_observed_steps_equal_the_recorded_orbit(params, n_last):
    """petal_rate and the projected_orbit defect, which observe each step of
    their orbit, equal bit for bit the same readings of the recorded stride-1
    orbit; at (-1, -1, 3) the petal orbit starts on the negative ray (from
    the positive one it escapes at n = 48)."""
    word = build_F(Params(*params))
    side = math.copysign(1.0, params[0] + params[1])
    indices, zs = recorded_products(word, 10_000, side)
    assert indices[-1] == n_last
    want = {
        "n": indices[-1],
        "n_zeta": indices[-1] * zs[-1].real,
        "real": all(z.imag == 0.0 for z in zs),
        "positive": all(side * z.real > 0.0 for z in zs),
        "strictly_decreasing": all(side * b.real < side * a.real for a, b in zip(zs, zs[1:])),
    }
    assert repr(petal_rate(word, zeta0=0.01, n_steps=10_000)) == repr(want)

    planar = planar_word(word)
    q, worst = (0.01 + 0j, 0j), 0.0
    for z in recorded_products(word, 1500)[1][1:]:
        q = planar(q)
        worst = max(worst, abs(z - q[0]))
    assert struct.pack("<d", check_trace_consistency(word)["projected_orbit"].defect) == struct.pack("<d", worst)


@pytest.mark.parametrize("seed", range(10))
def test_fiber_trace_by_position_is_the_maximum_over_shared_indices(monkeypatch, seed):
    """check_fiber_invariance compares the two orbits of a pair by position;
    that equals the maximum over the indices that both record, in ascending order.
    With one usable CPU every pair runs in this process, where the spy sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    orbits = []
    monkeypatch.setattr(dynamics, "iterate", lambda *args: orbits.append(iterate(*args)) or orbits[-1])
    report = check_fiber_invariance(build_F(P113), samples=10, rng=random.Random(seed))
    worst = 0.0
    for o1, o2 in zip(orbits[::2], orbits[1::2]):
        trace1 = {n: p[0] * p[1] for n, p in zip(o1.indices, o1.points)}
        trace2 = {n: p[0] * p[1] for n, p in zip(o2.indices, o2.points)}
        worst = max(worst, max(abs(trace1[n] - trace2[n]) for n in sorted(set(trace1) & set(trace2))))
    assert len(orbits) == 20
    assert struct.pack("<d", report["zeta_trace"].defect) == struct.pack("<d", worst)


@pytest.mark.parametrize("seed, defect", [(0, 6.99e-10), (1, 8.05e-10)])
def test_fiber_trace_fails_for_a_word_that_breaks_the_gauge(monkeypatch, seed, defect):
    """The zeta_trace row can fail on a broken word, not only through overflow
    or underflow: a 1e-9 z term in the overshear's exponent breaks the gauge
    (z, t) -> (lam z, t / lam), and the products z*t of a gauged pair part.
    The patch is held for the whole check, as the word compiles its advance
    loop on first use."""
    monkeypatch.setitem(maps._FORMULAS, ElementaryKind.OVERSHEAR, ("{a} * w + 1e-9 * z0", ["{z} * e"]))
    report = check_fiber_invariance(build_F(P113), samples=10, rng=random.Random(seed))
    assert report["zeta_trace"].status == "fail"
    assert report["zeta_trace"].defect == pytest.approx(defect, rel=1e-3)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_map_pairs_deals_the_items_round_robin_and_keeps_their_order(monkeypatch, cpus, n):
    """``_fork_map`` deals items to w = min(limit, usable CPUs, items) workers,
    worker k taking items k, k + w, ...; the results come back in item order,
    and one item runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    items = [f"pair {i}" for i in range(n)]
    results = dynamics._fork_map(lambda chunk: [(item, os.getpid()) for item in chunk], items, n)
    assert [item for item, _ in results] == items
    pids = [pid for _, pid in results]
    workers = min(cpus, n)
    assert len(set(pids)) == workers
    assert [pids[i % workers] for i in range(n)] == pids
    assert (os.getpid() in pids) == (workers == 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, n, fork", [(1, 5, True), (3, 1, True), (3, 5, False)])
def test_one_item_one_cpu_or_no_fork_runs_the_pairs_here(monkeypatch, cpus, n, fork):
    """One worker, given every item in one call, runs in this process: no fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if fork:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was started"))
    else:
        monkeypatch.delattr(os, "fork")
    chunks = []
    results = dynamics._fork_map(lambda chunk: chunks.append(chunk) or [(i, os.getpid()) for i in chunk],
                                 list(range(n)), n)
    assert chunks == [list(range(n))]
    assert results == [(i, os.getpid()) for i in range(n)]


@pytest.mark.parametrize("pair", [0, 1])
@pytest.mark.parametrize("failure, error, match", [("raise", ValueError, "pair fails in a worker"),
                                                   ("sigkill", RuntimeError, "exit code -9")])
def test_a_failing_pair_fails_the_fiber_check_and_leaves_no_process(monkeypatch, pair, failure, error, match):
    """An orbit pair that raises in its forked worker raises the same type
    here; a worker killed by a signal raises RuntimeError.  Pair 0 runs in
    worker 0, pair 1 in worker 1.  No child is left either way."""
    word = build_F(P113)
    starts = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(dynamics, "iterate", lambda evaluator, p0, cfg: starts.append(p0) or iterate(evaluator, p0, cfg))
    check_fiber_invariance(word, samples=4, rng=random.Random(0))
    parent = os.getpid()

    def failing(evaluator, p0, cfg):
        if p0 == starts[2 * pair]:
            if failure == "raise" or os.getpid() == parent:
                raise ValueError("pair fails" + (" in a worker" if os.getpid() != parent else ""))
            os.kill(os.getpid(), signal.SIGKILL)
        return iterate(evaluator, p0, cfg)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(dynamics, "iterate", failing)
    with pytest.raises(error, match=match):
        check_fiber_invariance(word, samples=4, rng=random.Random(0))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_deals_every_orbit_job_in_one_call(monkeypatch):
    """``run_verify_suite`` on F3 (1, 1, 3) deals its 36 orbit jobs (10 fibre
    pairs, petal_rate, the trace orbit, 20 projection pairs, 3 probes and
    product recursion) in one ``_fork_map`` call: one fork per usable CPU,
    none at one CPU, and the same report either way."""
    calls, forks = [], []
    fork_map, fork = dynamics._fork_map, os.fork
    monkeypatch.setattr(dynamics, "_fork_map",
                        lambda fn, items, limit: calls.append(len(items)) or fork_map(fn, items, limit))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two = cli.run_verify_suite(build_F(P113), seed=0)
    assert (calls, len(forks)) == ([36], 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was started"))
    one = cli.run_verify_suite(build_F(P113), seed=0)
    assert calls == [36, 36]
    assert one.to_dict() == two.to_dict()


def _with_job(monkeypatch, jobs_of: str, index: int, job) -> None:
    """Replaces job ``index`` of the check that ``dynamics.<jobs_of>`` builds."""
    real = getattr(dynamics, jobs_of)

    def patched(*args, **kwargs):
        jobs, finish = real(*args, **kwargs)
        return dynamics.OrbitJobs(jobs[:index] + [job] + jobs[index + 1:], finish)

    monkeypatch.setattr(dynamics, jobs_of, patched)


@pytest.mark.parametrize("job", [0, 1])
@pytest.mark.parametrize("failure, error, match", [("raise", ValueError, "job fails in a worker"),
                                                   ("sigkill", RuntimeError, "exit code -9")])
def test_a_failing_orbit_job_fails_verify_and_leaves_no_process(monkeypatch, job, failure, error, match):
    """A job of verify that raises in its forked worker raises the same type
    through ``run_verify_suite``; a worker killed by a signal raises
    RuntimeError.  Fibre pair 0 runs in worker 0, pair 1 in worker 1.  No
    child is left either way."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent = os.getpid()

    def fails():
        if failure == "raise" or os.getpid() == parent:
            raise ValueError("job fails" + (" in a worker" if os.getpid() != parent else ""))
        os.kill(os.getpid(), signal.SIGKILL)

    _with_job(monkeypatch, "fiber_invariance_jobs", job, fails)
    with pytest.raises(error, match=match):
        cli.run_verify_suite(build_F(P113), seed=0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_projection_job_keeps_the_rows_before_it(monkeypatch, cpus):
    """One projection pair that raises SemiConjugacyError fails the
    projection and product recursion rows, which are not yet added when
    their turn comes, with the error as the note; every row before them
    reads as without the error."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    whole = cli.run_verify_suite(build_F(P113), seed=0)

    def fails():
        raise maps.SemiConjugacyError("pair 3 does not descend")

    _with_job(monkeypatch, "projection_status_jobs", 3, fails)
    partial = cli.run_verify_suite(build_F(P113), seed=0)
    lost = [c.name for c in partial.checks if c.name.startswith(("dynamics.projection_statuses.",
                                                                 "dynamics.product_recursion."))]
    assert len(lost) == 7
    for before, after in zip(whole.checks, partial.checks):
        if after.name in lost:
            assert (after.status, after.note) == ("fail", "not computed: SemiConjugacyError: pair 3 does not descend")
        else:
            assert after.line() == before.line()


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_observed_orbits_keep_constant_memory():
    """petal_rate's 10 000 steps and check_trace_consistency's 1 500 keep no
    point per step; the recorded stride-1 orbits took 2.4 MB and 0.28 MB."""
    word = build_F(P113)
    word((0.1, 0.1, 0.0))  # compiles the step outside the trace
    assert traced_peak(lambda: petal_rate(word, zeta0=0.01, n_steps=10_000)) < 100_000
    assert traced_peak(lambda: check_trace_consistency(word)) < 200_000


@pytest.mark.parametrize("params, skipped", [
    ((-1.0, -1.0, -3.0), []),
    ((1.0, -2.0, 3.0), ["status_agreement", "attracting_side", "both_classes_observed"]),
    ((-1.0, -1.0, 3.0), ["attracting_side", "both_classes_observed"]),
    ((1.0, -1.0, 3.0), ["attracting_side", "repelling_side", "both_classes_observed"]),
])
def test_projection_status_probes_follow_the_petal(params, skipped):
    """The side probes stand on the real ray of sign(a + b); a row whose
    premise fails (a + b = 0; c/(a + b) <= 0 for the attracting side; a/(a + b)
    or b/(a + b) <= 0 for it and status_agreement) is skipped with the
    premise as its note."""
    report = check_projection_statuses(build_F(Params(*params)), samples=20, rng=random.Random(0))
    assert report.passed
    assert [c.name for c in report.checks if c.status == "skip"] == skipped
    assert all(("a + b = 0" if params[0] + params[1] == 0 else "<= 0") in report[name].note for name in skipped)
    if not skipped:
        assert report["attracting_side"].note.startswith("x=-0.02: planar CONVERGED")


# ----------------------------------------------------------------------
# rasters


def quad_raster(width=200, height=200, max_iter=2500, workers=1, v_range=(-1.0, 1.0)):
    spec = SliceSpec(
        base=(0j,), dir1=(1 + 0j,), dir2=(1j,),
        u_range=(-1.5, 0.5), v_range=v_range, width=width, height=height,
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


def full_height(map_obj, spec, cfg):
    """classify_batch on the start points of every row of the slice, mirror or not."""
    return classify_batch(map_obj, spec.start_point(*np.meshgrid(spec.axis_u(), spec.axis_v())), cfg)


def test_raster_conjugation_symmetry():
    """The mirrored raster is the full-height computation, and that one is symmetric."""
    for height in (100, 99):
        raster, spec, cfg = quad_raster(width=100, height=height, max_iter=2000)
        codes, iters = full_height(QUAD, spec, cfg)
        assert np.array_equal(raster.codes, codes)
        assert np.array_equal(raster.iterations, iters)
        assert np.array_equal(codes, codes[::-1, :])
        assert np.array_equal(iters, iters[::-1, :])


def test_raster_deterministic_across_workers(monkeypatch):
    r1, _, _ = quad_raster(width=48, height=48, max_iter=1500, workers=1)
    r2, _, _ = quad_raster(width=48, height=48, max_iter=1500, workers=2)
    assert np.array_equal(r1.codes, r2.codes)
    assert np.array_equal(r1.iterations, r2.iterations)
    # the lifted F3 word: each forked worker runs the MapWord it inherits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    spec = SliceSpec(base=(0j,) * 3, dir1=(0j,) * 3, dir2=(0j,) * 3, u_range=(-0.2, 0.4), v_range=(-0.3, 0.3),
                     width=24, height=24, lift="pos", w_fix=0.05 + 0j)
    cfg = OrbitConfig(max_iter=300, eps_converged=0.05, record_stride=301)
    f3 = [sample_slice(_F3, spec, cfg, workers=w) for w in (1, 2, 3)]
    assert {CODE_ESCAPED, CODE_UNDECIDED} <= set(np.unique(f3[0].codes))
    for raster in f3[1:]:
        assert np.array_equal(raster.codes, f3[0].codes)
        assert np.array_equal(raster.iterations, f3[0].iterations)


@pytest.fixture
def dealt(monkeypatch):
    """Wraps the real ``_fork_map`` and records, for each call, the items that
    each worker was given (``bands``, in worker order) and the processes that
    ran them: every result carries its worker's items and pid back."""
    calls = []
    fork_map = dynamics._fork_map

    def spy(fn, items, limit):
        def tagged(chunk):
            tag = (list(chunk), os.getpid())
            return [(result, tag) for result in fn(chunk)]

        results = fork_map(tagged, items, limit)
        tags = {id(tag): tag for _, tag in results}.values()
        calls.append(SimpleNamespace(bands=sorted(band for band, _ in tags), pids={pid for _, pid in tags}))
        return [result for result, _ in results]

    monkeypatch.setattr(dynamics, "_fork_map", spy)
    return calls


def test_sample_slice_starts_at_most_one_worker_per_usable_cpu(monkeypatch, dealt):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial, _, _ = quad_raster(width=24, height=24, max_iter=300, workers=1)
    capped, _, _ = quad_raster(width=24, height=24, max_iter=300, workers=64)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    quad_raster(width=24, height=24, max_iter=300, workers=64)
    assert [len(call.bands) for call in dealt] == [1, 2, 3]
    assert [len(call.pids) for call in dealt] == [1, 2, 3]
    assert os.getpid() not in dealt[1].pids | dealt[2].pids
    assert np.array_equal(serial.codes, capped.codes)
    assert np.array_equal(serial.iterations, capped.iterations)


@pytest.mark.parametrize("workers", [2, 3])
def test_each_worker_takes_every_w_th_computed_row(monkeypatch, dealt, workers):
    """w workers take one band each, worker k the computed rows k, k + w, ...:
    the top half of a conjugation-symmetric slice, all rows of an asymmetric
    one.  The bands are disjoint, cover the computed rows, and give the
    serial codes and iterations."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    # 32x32 is verify's determinism raster, 400x400 the benchmark's two-worker
    # raster; an asymmetric v_range computes every row
    for side, v_range, rows in ((32, (-1.0, 1.0), 16), (400, (-1.0, 1.0), 200),
                                (32, (-1.0, 0.9), 32), (400, (-1.0, 0.9), 400)):
        serial, _, _ = quad_raster(width=side, height=side, max_iter=60, workers=1, v_range=v_range)
        assert dealt[-1].bands == [list(range(rows))]
        pooled, _, _ = quad_raster(width=side, height=side, max_iter=60, workers=workers, v_range=v_range)
        assert dealt[-1].bands == [list(range(k, rows, workers)) for k in range(workers)]
        assert len(dealt[-1].pids) == workers
        assert sorted(row for band in dealt[-1].bands for row in band) == list(range(rows))
        assert np.array_equal(serial.codes, pooled.codes)
        assert np.array_equal(serial.iterations, pooled.iterations)


def test_no_more_workers_than_computed_rows(monkeypatch, dealt):
    """Fewer computed rows than workers start one process per row, each with
    one row; a single computed row is classified in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for height, v_range in ((3, (-1.0, 1.0)), (3, (-1.0, 0.9)), (1, (-1.0, 1.0))):
        serial, _, _ = quad_raster(width=8, height=height, max_iter=60, workers=1, v_range=v_range)
        pooled, _, _ = quad_raster(width=8, height=height, max_iter=60, workers=4, v_range=v_range)
        assert np.array_equal(serial.codes, pooled.codes)
        assert np.array_equal(serial.iterations, pooled.iterations)
    assert [call.bands for call in dealt[1::2]] == [[[0], [1]], [[0], [1], [2]], [[0]]]
    assert [len(call.pids) for call in dealt[1::2]] == [2, 3, 1]
    assert dealt[-1].pids == {os.getpid()}


def _failing_band(band, failure):
    """A ``_fork_map`` whose worker ``band``, the one given rows band, band + w,
    ..., fails by ``failure``; the other workers classify their rows."""
    fork_map = dynamics._fork_map

    def failing_map(fn, items, limit):
        def deal(chunk):
            if chunk[0] == band:
                if failure == "raise":
                    raise ValueError(f"band {band} fails")
                os.kill(os.getpid(), signal.SIGKILL)
            return fn(chunk)

        return fork_map(deal, items, limit)

    return failing_map


@pytest.mark.parametrize("band", [0, 1])
@pytest.mark.parametrize("failure, error, match", [("raise", ValueError, "band . fails"),
                                                   ("sigkill", RuntimeError, "exit code -9")])
def test_a_failing_worker_fails_the_raster_and_leaves_no_process(monkeypatch, band, failure, error, match):
    """A band that raises in its forked worker raises the same type here; a
    worker killed by a signal raises RuntimeError.  Each band's result is
    larger than a pipe's 64 KiB buffer, so a worker that is not read blocks
    on its write: band 0 failing needs band 1 killed, band 1 failing needs
    band 0 read before it is waited for.  No child is left either way."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(dynamics, "_fork_map", _failing_band(band, failure))

    def hung(signum, frame):
        raise TimeoutError("a worker was not read before its wait, or not killed")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(error, match=match):
            quad_raster(width=400, height=400, max_iter=60, workers=2, v_range=(-1.0, 0.9))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_the_raster_runs_in_this_process(monkeypatch, dealt):
    """Where ``os`` has no ``fork``, every row runs here in one band: same codes
    and iterations, no process started."""
    serial, _, _ = quad_raster(width=24, height=24, max_iter=300, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.delattr(os, "fork")
    alone, _, _ = quad_raster(width=24, height=24, max_iter=300, workers=3)
    assert dealt[-1].bands == [list(range(12))]
    assert dealt[-1].pids == {os.getpid()}
    assert np.array_equal(serial.codes, alone.codes)
    assert np.array_equal(serial.iterations, alone.iterations)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


class _Wrapped:
    """A map from outside the package; it delegates to a package map."""

    def __init__(self, inner):
        self.inner = inner

    def eval_batch(self, coords):
        return self.inner.eval_batch(coords)


def _lifted(lift="pos", dim=3, w_fix=0.05 + 0j, v_range=(-0.3, 0.3), height=12):
    zero = (0j,) * dim
    return SliceSpec(base=zero, dir1=zero, dir2=zero, u_range=(-0.5, 0.4), v_range=v_range,
                     width=10, height=height, lift=lift, w_fix=w_fix)


def _affine(base, dir1, dir2, v_range=(-0.3, 0.3), height=12, u_range=(-0.5, 0.4)):
    return SliceSpec(base=base, dir1=dir1, dir2=dir2, u_range=u_range, v_range=v_range,
                     width=10, height=height)


_F3 = build_F(P113)
_G_SLICE = ((0j, 0.05 + 0j), (1 + 0j, 0j), (1j, 0j))
_K3_SLICE = ((0.9 + 0j, 0.9 + 0j, 0.9 + 0j, 0.02 + 0j), (1 + 0j, 0j, 0j, 0j), (1j, 0j, 0j, 0.5j))
# conjugation-symmetric slices of maps with real parameters: the top half is computed
MIRRORED_SLICES = {
    "lifted F3 pos, even height": (_F3, _lifted("pos")),
    "lifted F3 pos, odd height": (_F3, _lifted("pos", height=13)),
    "lifted F3 neg, even height": (_F3, _lifted("neg")),
    "lifted F3 neg, odd height": (_F3, _lifted("neg", height=13)),
    "G affine": (planar_word(_F3), _affine(*_G_SLICE)),
    "G affine, odd height": (planar_word(_F3), _affine(*_G_SLICE, height=11)),
    "FAMILY_K affine": (build_family(3, (1.0, 1.0, 1.0), 4.0), _affine(*_K3_SLICE, u_range=(-1.5, 0.4))),
    "PROTO_1D": (QUAD, _affine((0j,), (1 + 0j,), (1j,), v_range=(-1.0, 1.0), height=15)),
    "PROTO_2D lifted": (Prototype("product_2d"), _lifted("pos", dim=2, w_fix=0j, height=9)),
}
# slices whose rows are all computed
FULL_SLICES = {
    "asymmetric v_range": (_F3, _lifted("pos", v_range=(-0.3, 0.25))),
    "complex w_fix": (_F3, _lifted("pos", w_fix=0.05 + 0.01j)),
    "dir2 with a real part": (planar_word(_F3), _affine((0j, 0.05 + 0j), (1 + 0j, 0j), (0.1 + 1j, 0j))),
    "base with an imaginary part": (planar_word(_F3), _affine((0.01j, 0.05 + 0j), (1 + 0j, 0j), (1j, 0j))),
    "map from outside the package": (_Wrapped(_F3), _lifted("pos")),
    "word with a complex w_coeff": (
        MapWord(tuple(ElementaryMap(f.kind, f.weights, complex(f.w_coeff)) for f in _F3.factors)), _lifted("pos")),
}


@pytest.mark.parametrize("name", [*MIRRORED_SLICES, *FULL_SLICES])
def test_mirrored_raster_is_the_full_computation(monkeypatch, dealt, name):
    """sample_slice classifies only the top half of a conjugation-symmetric
    slice, in one classify_batch call on those rows, and mirrors the rest;
    codes and iterations equal, bit for bit, classify_batch run on the start
    points of every row.  Any other slice, and any map from outside the
    package, takes every row."""
    map_obj, spec = {**MIRRORED_SLICES, **FULL_SLICES}[name]
    cfg = OrbitConfig(max_iter=800, eps_converged=0.05, record_stride=1000)
    shapes = []
    monkeypatch.setattr(dynamics, "classify_batch",
                        lambda m, coords, c: shapes.append(np.shape(coords[0])) or classify_batch(m, coords, c))
    raster = sample_slice(map_obj, spec, cfg)
    codes, iters = full_height(map_obj, spec, cfg)
    rows = (spec.height + 1) // 2 if name in MIRRORED_SLICES else spec.height
    assert [call.bands for call in dealt] == [[list(range(rows))]]
    assert shapes == [(rows, spec.width)]
    assert np.array_equal(raster.codes, codes)
    assert np.array_equal(raster.iterations, iters)


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


def test_start_point_on_arrays_is_the_per_pixel_formula():
    """start_point on meshgrid arrays, and on each pixel's floats, gives bit
    for bit the per-pixel formulas: cmath.sqrt(complex(u, v)) for a lift,
    b + u*d1 + v*d2 for an affine slice."""
    kwargs = dict(u_range=(-1.5, 0.5), v_range=(-1.0, 1.0), width=31, height=25)
    zero3, zero2 = (0j,) * 3, (0j,) * 2
    slices = [
        SliceSpec(base=zero3, dir1=zero3, dir2=zero3, lift="pos", w_fix=0.05 + 0j, **kwargs),
        SliceSpec(base=zero3, dir1=zero3, dir2=zero3, lift="neg", w_fix=0.05 + 0j, **kwargs),
        SliceSpec(base=zero2, dir1=zero2, dir2=zero2, lift="pos", **kwargs),
        SliceSpec(base=(0j, 0.05 + 0j), dir1=(1 + 0j, 0j), dir2=(1j, 0j), **kwargs),
        SliceSpec(base=(0.1 + 0j, 0.2j, 0.05 + 0j), dir1=(1 + 0j, 0.5 - 0.25j, 0j),
                  dir2=(1j, -0.5j, 0.1 + 0.3j), **kwargs),
    ]

    def reference(spec, u, v):
        if spec.lift == "none":
            return tuple(b + u * d1 + v * d2 for b, d1, d2 in zip(spec.base, spec.dir1, spec.dir2))
        s = cmath.sqrt(complex(u, v))
        if spec.lift == "neg":
            s = -s
        return (s, s, spec.w_fix) if len(spec.base) == 3 else (s, s)

    def bits(points, i):
        return np.array([[p[i] for p in row] for row in points], dtype=complex).view(np.uint64)

    for spec in slices:
        us, vs = spec.axis_u(), spec.axis_v()
        on_arrays = spec.start_point(*np.meshgrid(us, vs))
        on_floats = [[spec.start_point(u, v) for u in us] for v in vs]
        want = [[reference(spec, u, v) for u in us] for v in vs]
        assert len(on_arrays) == len(spec.base)
        for i, coord in enumerate(on_arrays):
            assert np.array_equal(coord.view(np.uint64), bits(want, i)), (spec, i)
            assert np.array_equal(bits(on_floats, i), bits(want, i)), (spec, i)
        assert all(isinstance(x, complex) for row in on_floats for p in row for x in p)

    # a -0.0 axis value: complex(u, -0.0) would put the start on the other
    # side of the branch cut, but floats and arrays share u + 1j*v
    spec = SliceSpec(base=zero3, dir1=zero3, dir2=zero3, u_range=(-1.0, 0.5), v_range=(-1.0, -0.0),
                     width=4, height=3, lift="pos")
    us, vs = spec.axis_u(), spec.axis_v()
    on_arrays = spec.start_point(*np.meshgrid(us, vs))
    on_floats = [[spec.start_point(u, v) for u in us] for v in vs]
    assert math.copysign(1.0, vs[-1]) == -1.0 and on_floats[-1][0][0] == 1j
    assert all(np.array_equal(coord.view(np.uint64), bits(on_floats, i)) for i, coord in enumerate(on_arrays))


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
        "G": (planar_word(word), SliceSpec(base=(0j, 0.05 + 0j), dir1=(1 + 0j, 0j),
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
    _agree_with_iterate(planar_word(build_F(P113)), planar, cfg)


def test_classify_batch_of_a_word_that_returns_its_inputs():
    """A one-factor shear returns the caller's z arrays unchanged."""
    shear = MapWord((ElementaryMap(ElementaryKind.SHEAR, (1.0, 1.0), 3.0),))
    cfg = OrbitConfig(max_iter=300, eps_converged=1e-3, record_stride=1000)
    starts = [(1 + 0j, 1 + 0j, 0j), (0.3 + 0j, 0j, 0.2 + 0j), (1e-4 + 0j, 0j, 0j), (0.5 + 0j, 0.5j, 0.1j)]
    statuses = _agree_with_iterate(shear, starts, cfg)
    assert [s.kind for s in statuses] == [ESCAPED, UNDECIDED, CONVERGED, ESCAPED]


@pytest.mark.parametrize("ndim", [2, 1])
def test_classify_batch_leaves_its_start_arrays_alone(ndim):
    """A lift's start (s, s, w) holds one array object twice.  classify_batch
    reads it in place: every input keeps its bits, and the codes and decision
    indices equal those of a run on independent copies."""
    spec = SliceSpec(base=(0j,) * 3, dir1=(0j,) * 3, dir2=(0j,) * 3, u_range=(-0.5, 0.4),
                     v_range=(-0.3, 0.3), width=12, height=12, lift="pos", w_fix=0.05 + 0j)
    cfg = OrbitConfig(max_iter=400, eps_converged=0.05, record_stride=1000)
    u, v = np.meshgrid(spec.axis_u(), spec.axis_v())
    start = spec.start_point(u, v) if ndim == 2 else spec.start_point(u.ravel(), v.ravel())
    assert start[0] is start[1] and start[0].ndim == ndim
    before = [c.tobytes() for c in start]
    codes, iters = classify_batch(build_F(P113), start, cfg)
    assert [c.tobytes() for c in start] == before
    apart_codes, apart_iters = classify_batch(build_F(P113), [c.copy() for c in start], cfg)
    assert codes.shape == start[0].shape
    assert np.array_equal(codes, apart_codes) and np.array_equal(iters, apart_iters)
    assert set(np.unique(codes)) == {CODE_ESCAPED, CODE_CONVERGED, CODE_UNDECIDED}


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


def test_classify_batch_matches_iterate_on_the_quadratic_benchmark_slice():
    """A 16x16 grid of the benchmark's PROTO_1D slice, decided by the same
    rule in both engines."""
    spec = SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(1j,), u_range=(-1.5, 0.5),
                     v_range=(-1.0, 1.0), width=16, height=16)
    cfg = OrbitConfig(max_iter=1000, eps_converged=1e-3, record_stride=1000)
    starts = [spec.start_point(u, v) for v in spec.axis_v() for u in spec.axis_u()]
    statuses = _agree_with_iterate(QUAD, starts, cfg)
    assert {s.kind for s in statuses} == {ESCAPED, CONVERGED, UNDECIDED}


class _Constant:
    """Sends every point to one vector, in both engines."""

    def __init__(self, target):
        self.target = target

    def __call__(self, p):
        return self.target

    def eval_batch(self, coords):
        return [np.full(coords[0].shape, x) for x in self.target]


def test_classify_batch_decides_norms_at_the_thresholds_like_iterate():
    """Orbits whose norm is eps or radius, or one ulp from them, get the same
    code and decision index in both engines, whether or not a step leaves
    the first coordinate unchanged."""
    eps, radius = 1e-3, 10.0
    cfg = OrbitConfig(max_iter=300, eps_converged=eps, escape_radius=radius, record_stride=1000)
    norms = (math.nextafter(eps, 0.0), eps, math.nextafter(eps, math.inf), radius,
             math.nextafter(radius, math.inf))
    kinds = []
    for norm in norms:
        target = (0j, complex(norm))
        assert dynamics._norm(target) == norm
        starts = [target, (0j, 0.5 + 0j), (0.3 + 0j, 0.1j), (1e-4 + 0j, 0j)]
        kinds.append([(s.kind, s.index) for s in _agree_with_iterate(_Constant(target), starts, cfg)])
    assert kinds == [
        [(CONVERGED, 1)] + [(CONVERGED, 2)] * 3,
        [(UNDECIDED, 1)] + [(UNDECIDED, 2)] * 3,
        [(UNDECIDED, 1)] + [(UNDECIDED, 2)] * 3,
        [(UNDECIDED, 1)] + [(UNDECIDED, 2)] * 3,
        [(ESCAPED, 1)] * 4,
    ]


class _Rotation:
    """z -> i z in every coordinate: every point moves, and its squared norm
    repeats bit for bit."""

    def __call__(self, p):
        return tuple(1j * x for x in p)

    def eval_batch(self, coords):
        return [1j * c for c in coords]


def test_the_repeated_squared_norm_gate_decides_only_stationary_points():
    """The batch engine gates an element whose squared norm repeats, and the
    rule's exact q == p test decides it: a rotation, which moves every point
    and repeats every squared norm, runs to the budget; a fixed point is
    decided at index 1, UNDECIDED off the origin and CONVERGED inside the
    eps ball, also when its zeros change sign."""
    cfg = OrbitConfig(max_iter=300, eps_converged=1e-3, record_stride=1000)
    starts = [(0.5 + 0j, 0j), (0.3 + 0.4j, -0.1j), (-2 + 7j, 1e-3 + 0j), (1e-3 + 0j, 0j)]
    coords = [np.array([p[i] for p in starts]) for i in range(2)]
    assert np.array_equal(dynamics._batch_norm(_Rotation().eval_batch(coords)), dynamics._batch_norm(coords))
    statuses = _agree_with_iterate(_Rotation(), starts, cfg)
    assert [(s.kind, s.index, s.note) for s in statuses] == [(UNDECIDED, 300, "")] * 4

    for target, status in (((0.25 + 0.1j, 0.5j), (UNDECIDED, 1, "stationary orbit (fixed point off the origin)")),
                           ((1e-4 + 0j, complex(-0.0, 2e-4)), (CONVERGED, 1, "stationary inside the eps ball"))):
        # the target with the sign of each zero part flipped
        flipped = tuple(complex(x.real or -x.real, x.imag or -x.imag) for x in target)
        statuses = _agree_with_iterate(_Constant(target), [target, flipped], cfg)
        assert [(s.kind, s.index, s.note) for s in statuses] == [status] * 2


class _Switch:
    """(t, z) -> (t + 1e-200, A before t passes 1.5e-198, else B): z jumps
    from A to B near step 150, and t, whose square underflows to 0, adds
    nothing to the norm."""

    A, B = 1e-4 + 0j, complex(1e-4, 1e-12)

    def __call__(self, p):
        return (p[0] + 1e-200, self.A if p[0].real < 1.5e-198 else self.B)

    def eval_batch(self, coords):
        return [coords[0] + 1e-200, np.where(coords[0].real < 1.5e-198, self.A, self.B)]


def test_block_maxima_are_compared_as_norms():
    """B's squared norm exceeds A's but both norms are the same double, so
    the second window's max norm has not increased and the orbit, inside
    the eps ball all along, converges when that window closes."""
    start = (0j, _Switch.A)
    squared = dynamics._batch_norm([np.array([0j, 0j]), np.array([_Switch.A, _Switch.B])])
    assert squared[1] > squared[0]
    assert dynamics._norm((0j, _Switch.B)) == dynamics._norm(start)
    statuses = _agree_with_iterate(_Switch(), [start], OrbitConfig(max_iter=1000, record_stride=1000))
    assert [(s.kind, s.index) for s in statuses] == [(CONVERGED, 200)]


def test_classify_batch_evaluates_only_undecided_elements():
    """A decided element leaves the arrays at the step that decides it, so
    the map evaluates exactly one element per pixel-iteration."""

    class Counting:
        def __init__(self, map_obj):
            self.map_obj, self.evaluated = map_obj, 0

        def eval_batch(self, coords):
            self.evaluated += coords[0].size
            return self.map_obj.eval_batch(coords)

    kwargs = dict(u_range=(-1.5, 0.5), v_range=(-1.0, 1.0))
    rasters = (
        (QUAD, SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(1j,), width=40, height=40, **kwargs),
         OrbitConfig(max_iter=1000)),
        (build_F(P113), SliceSpec(base=(0j,) * 3, dir1=(0j,) * 3, dir2=(0j,) * 3, width=24, height=24,
                                  lift="pos", **kwargs), OrbitConfig(max_iter=1000, eps_converged=0.02)),
    )
    for map_obj, spec, cfg in rasters:
        counting = Counting(map_obj)
        raster = sample_slice(counting, spec, cfg)
        assert 0 < counting.evaluated == raster.iterations.sum()
        assert raster.iterations.min() < cfg.max_iter


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
        g = sample_slice(planar_word(word), planar, cfg)
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
