"""Orbit iteration, convergence classification and basin-slice rasters.

Convergence to the origin near a parabolic fixed point is polynomially
slow, so CONVERGED is a numerical proxy: the current norm is below
``eps_converged`` and the max norm over the trailing 100 iterates has not
increased block over block.  UNDECIDED is a first-class outcome and is
never merged into either decided class.  Orbits that leave
``escape_radius`` or hit non-finite arithmetic are ESCAPED.  Exactly
stationary points are recognized early: they count as converged only when
already inside the eps ball, otherwise they stay undecided with a note.

That rule is written once, in ``_rule``; the scalar engine ``iterate`` and
the batch engine ``classify_batch`` both decide every step through it.
Both start the previous block max at nan, so the first window never
passes.  Both run the rule only on a step whose norm lies outside [eps,
radius] (nan included) or that may be stationary: ``iterate`` tests q == p,
the batch engine a squared norm equal to the last one, and squared norms
against exact squared bounds, rooting them there and for block maxima when
a window closes.  Its arrays hold only undecided elements, one map
evaluation per pixel-iteration.  Both take start points from
``SliceSpec.start_point`` and norms from ``_norm``'s formula; only numpy's
complex product separates them.
``iterate`` takes a MapWord's steps from its compiled ``advance`` loop,
which hands back each step that the gate, a window close or a record index
concerns; any other evaluator it calls once per step.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import os
import pickle
import random
import signal
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .directions import DEGENERATE_TOL
from .jets import DimensionError, DomainError
from .maps import MapWord, Prototype, planar_word, project_pi, push_forward
from .report import SKIP, Report

CONVERGED = "converged"
ESCAPED = "escaped"
UNDECIDED = "undecided"

CODE_ESCAPED = 0
CODE_CONVERGED = 1
CODE_UNDECIDED = 2

# the kind of each code, indexed by code
_KINDS = (ESCAPED, CONVERGED, UNDECIDED)

_WINDOW = 100


class InsufficientDataError(ValueError):
    """Too few recorded iterates for the requested estimate."""


@dataclass(frozen=True)
class OrbitConfig:
    max_iter: int = 100_000
    eps_converged: float = 1e-3
    escape_radius: float = 10.0
    record_stride: int = 1

    def __post_init__(self):
        if self.max_iter <= 0 or self.record_stride <= 0:
            raise ValueError("max_iter and record_stride must be positive")
        if not 0 < self.eps_converged < self.escape_radius:
            raise ValueError("need 0 < eps_converged < escape_radius")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Status:
    kind: str
    index: int | None = None
    note: str = ""

    def __str__(self) -> str:
        label = self.kind.upper()
        return f"{label}({self.index})" if self.index is not None else label


@dataclass
class Orbit:
    points: list[tuple[complex, ...]]
    indices: list[int]
    status: Status

    @property
    def final_point(self) -> tuple[complex, ...]:
        return self.points[-1]

    @property
    def final_norm(self) -> float:
        return _norm(self.points[-1])


def _norm(p: Sequence[complex]) -> float:
    """The squares added left to right, as ``sum`` adds them before Python 3.12.

    ``MapWord.advance`` writes this formula inline; ``_batch_norm`` is its square on arrays."""
    total = 0.0
    for x in p:
        total += x.real * x.real + x.imag * x.imag
    return math.sqrt(total)


def _finite(p: Sequence[complex]) -> bool:
    return all(math.isfinite(x.real) and math.isfinite(x.imag) for x in p)


def _rule(nrm, nonfinite, stationary, window_ok, eps, radius) -> tuple:
    """The status rule of both orbit engines: the ordered (code, note, hit)
    tests of one step, of which the first that hits decides the step.

    Only ``<``, ``>`` and ``&`` touch the operands, so they may be Python
    scalars or numpy arrays.  When no test hits, the orbit goes on.
    """
    inside = nrm < eps
    return (
        (CODE_ESCAPED, "non-finite arithmetic", nonfinite),
        (CODE_ESCAPED, "", nrm > radius),
        (CODE_CONVERGED, "stationary inside the eps ball", stationary & inside),
        (CODE_UNDECIDED, "stationary orbit (fixed point off the origin)", stationary),
        (CODE_CONVERGED, "", inside & window_ok),
    )


def iterate(evaluator: Callable, p0: Sequence[complex], cfg: OrbitConfig | None = None) -> Orbit:
    """Iterate the exact map until ``_rule`` decides a step or max_iter runs out.

    Every iterate participates in the status decision; only every
    record_stride-th point (plus the final one) is stored.  At a stride
    above 1, an evaluator with an ``advance`` loop (a MapWord) runs there
    every step that neither the gate of ``_rule`` nor a window close nor a
    record index concerns; the step that does comes back here, and a step
    whose exponential raises is taken by ``evaluator(p)``, the one call per
    step of any other evaluator and the reference the tests compare
    ``advance`` against.
    """
    cfg = cfg or OrbitConfig()
    p = tuple(complex(x) for x in p0)
    points = [p]
    indices = [0]

    def record(q: tuple[complex, ...], n: int) -> None:
        points.append(q)
        indices.append(n)

    prev_block_max = math.nan
    cur_block_max = _norm(p)
    window_ok = False
    status: Status | None = None
    eps, radius, stride, max_iter, isfinite, norm = (
        cfg.eps_converged, cfg.escape_radius, cfg.record_stride, cfg.max_iter, math.isfinite, _norm)
    # at stride 1 every step is recorded, so advance would hand each one back
    advance = getattr(evaluator, "advance", None) if stride > 1 else None

    n = 0
    while n < max_iter:
        q = None
        if advance is not None:
            # the next window close, record index or max_iter
            stop = min(n - n % _WINDOW + _WINDOW, n - n % stride + stride, max_iter)
            p, q, n, cur_block_max, nrm = advance(p, n, stop, eps, radius, cur_block_max)
        if q is None:
            n += 1
            q = evaluator(p)
            nrm = norm(q)
        if nrm > cur_block_max:
            cur_block_max = nrm
        if n % _WINDOW == 0:
            window_ok = cur_block_max <= prev_block_max
            prev_block_max = cur_block_max
            cur_block_max = 0.0
        if not eps <= nrm <= radius or q == p:
            # a non-finite coordinate gives a non-finite norm; a norm that
            # overflows from finite coordinates is a plain escape
            nonfinite = not isfinite(nrm) and not _finite(q)
            hit = next((t for t in _rule(nrm, nonfinite, q == p, window_ok, eps, radius) if t[2]), None)
            if hit:
                status = Status(_KINDS[hit[0]], n, hit[1])
                record(q, n)
                break

        if n % stride == 0:
            record(q, n)
        p = q

    if status is None:
        status = Status(UNDECIDED, max_iter)
        if indices[-1] != max_iter:
            record(p, max_iter)

    return Orbit(points=points, indices=indices, status=status)


def estimate_tangent(orbit: Orbit) -> tuple[tuple[complex, ...], bool]:
    """Projective limit direction from the tail of the orbit.

    Uses the recorded iterates over the last index decade, phase-aligned in
    the chart of the largest final coordinate.  The stability flag requires
    successive normalized representatives to move by less than 1e-3.
    """
    usable = [
        (i, p) for i, p in zip(orbit.indices, orbit.points) if _norm(p) > 0 and _finite(p)
    ]
    if len(usable) < 100:
        raise InsufficientDataError("need at least 100 recorded iterates with positive norm")
    n_last = usable[-1][0]
    tail = [p for i, p in usable if i >= n_last // 10]
    tail = tail[-20_000:]  # bound the cost on very long densely recorded orbits

    dim = len(tail[0])
    if dim == 1:
        return ((1.0 + 0j,), True)

    pivot = max(range(dim), key=lambda j: abs(tail[-1][j]))
    reps = []
    for p in tail:
        nrm = _norm(p)
        v = tuple(x / nrm for x in p)
        phase = v[pivot] / abs(v[pivot]) if abs(v[pivot]) > 0 else 1.0
        reps.append(tuple(x / phase for x in v))
    worst = max(
        math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(u, w)))
        for u, w in zip(reps, reps[1:])
    )
    return reps[-1], worst < 1e-3


# ----------------------------------------------------------------------
# sampling helpers


def sample_disk(rng, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = 2 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def sample_ball_point(rng, dim: int, radius: float) -> tuple[complex, ...]:
    """Each coordinate in a disk of radius radius/sqrt(dim), so the norm stays below radius."""
    per = radius / math.sqrt(dim)
    return tuple(sample_disk(rng, per) for _ in range(dim))


# ----------------------------------------------------------------------
# verification checks


def check_semiconjugacy(word: MapWord, rng=None) -> Report:
    """The projection sends the 3D word to its zeta-word G.

    Compares pi o word with G o pi at 100 points of the ball of radius 0.5,
    and push_forward(word.jet(8)) with G.jet(4) coefficient by coefficient,
    relative to the larger of the two (nan if either is nan).  The orbit
    comparison, the lift's products z*t against G's orbit, is
    ``check_trace_consistency``'s.
    """
    rng = rng or random.Random(0)
    planar = planar_word(word)
    report = Report(title="semi-conjugacy")

    worst = 0.0
    for _ in range(100):
        p = sample_ball_point(rng, 3, 0.5)
        lhs = project_pi(word(p))
        rhs = planar(project_pi(p))
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    report.add("pointwise", worst <= 1e-12, defect=worst, tolerance=1e-12)

    pushed, own = push_forward(word.jet(8)), planar.jet(4)
    pairs = [(f.coefficient(e), g.coefficient(e)) for f, g in zip(pushed.components, own.components)
             for e in f.terms.keys() | g.terms.keys()]
    jet_defect = float(np.max([abs(x - y) / max(abs(x), abs(y)) for x, y in pairs], initial=0.0))
    report.add("jet", jet_defect <= 1e-12, defect=jet_defect, tolerance=1e-12,
               note="push_forward of the order-8 jet against the order-4 jet, relative per coefficient")
    return report


def check_equivariance(word: MapWord, rng=None) -> Report:
    """Commutation with (z, t) -> (lambda z, t/lambda) at 50 sampled points."""
    rng = rng or random.Random(0)
    report = Report(title="equivariance")

    worst = 0.0
    for _ in range(50):
        p = sample_ball_point(rng, 3, 0.25)
        lam = cmath.exp(2j * math.pi * rng.random()) * (0.5 + 1.5 * rng.random())
        gauged = (lam * p[0], p[1] / lam, p[2])
        q_g = word(gauged)
        q = word(p)
        worst = max(
            worst,
            abs(q_g[0] - lam * q[0]),
            abs(q_g[1] - q[1] / lam),
            abs(q_g[2] - q[2]),
        )
    report.add("algebraic", worst <= 1e-12, defect=worst, tolerance=1e-12)
    return report


class OrbitJobs(NamedTuple):
    """A check's independent orbit jobs, calls without arguments whose results
    a forked worker pickles back, and ``finish``, which makes the check's
    result from the list of theirs."""

    jobs: list[Callable[[], object]]
    finish: Callable[[list], object]


def _outcome(job: Callable[[], object]) -> object:
    """The job's result, or the exception it raised."""
    try:
        return job()
    except Exception as exc:  # raised again by run_orbit_jobs at the job's own check
        return exc


def run_orbit_jobs(checks: Sequence[OrbitJobs]) -> Iterator:
    """Yields each check's result, in check order, from one ``_fork_map``
    call, made at the first ``next``, that deals the jobs of all the checks
    together in check order.

    A job that raises sends its exception back as its result, and the
    first such exception of a check is raised when that check's turn comes:
    the checks before it still give their results.  A worker that dies
    raises at the first check, from ``_fork_map``.
    """
    jobs = [job for check in checks for job in check.jobs]
    results = _fork_map(lambda chunk: [_outcome(job) for job in chunk], jobs, len(jobs))
    start = 0
    for check in checks:
        mine, start = results[start:start + len(check.jobs)], start + len(check.jobs)
        failed = next((r for r in mine if isinstance(r, Exception)), None)
        if failed is not None:
            raise failed
        yield check.finish(mine)


def _run(check: OrbitJobs):
    return next(run_orbit_jobs([check]))


def check_fiber_invariance(word: MapWord, samples: int = 20, rng=None) -> Report:
    """Status and zeta-trace depend only on (z t, w): the products z*t of two
    gauged orbits agree at every index that both record.  Each pair is a
    job of ``fiber_invariance_jobs`` that sends back its status kinds and
    trace defect; ``verify`` deals these jobs together with those of the
    other orbit checks."""
    return _run(fiber_invariance_jobs(word, samples, rng))


def fiber_invariance_jobs(word: MapWord, samples: int = 20, rng=None) -> OrbitJobs:
    """The jobs of ``check_fiber_invariance``, one per pair of start points drawn here."""
    rng = rng or random.Random(0)
    cfg = OrbitConfig(max_iter=20_000, eps_converged=0.02, record_stride=10)

    starts = []
    for _ in range(samples):
        p = sample_ball_point(rng, 3, 0.3)
        # powers of two keep the product coordinate bitwise identical
        lam = rng.choice((2.0, 0.5))
        starts.append((p, (lam * p[0], p[1] / lam, p[2])))

    def run_pair(start) -> tuple[str, str, float]:
        o1, o2 = (iterate(word, p, cfg) for p in start)
        # both index lists read 0, 10, 20, ... and then one last index, so
        # an index that both orbits record stands at the same position in both
        return o1.status.kind, o2.status.kind, max(
            abs(q1[0] * q1[1] - q2[0] * q2[1])
            for n1, n2, q1, q2 in zip(o1.indices, o2.indices, o1.points, o2.points) if n1 == n2
        )

    def finish(pairs: list) -> Report:
        report = Report(title="fiber invariance")
        worst_trace = 0.0
        status_agree = 0
        borderline = 0
        for kind1, kind2, trace in pairs:
            if kind1 == kind2:
                status_agree += 1
            elif UNDECIDED in (kind1, kind2):
                borderline += 1
            worst_trace = max(worst_trace, trace)
        report.add("zeta_trace", worst_trace <= 1e-10, defect=worst_trace, tolerance=1e-10)
        report.add(
            "status",
            status_agree + borderline == samples,
            defect=float(samples - status_agree - borderline),
            note=f"{status_agree}/{samples} same classification"
            + (f", {borderline} undecided-borderline excluded" if borderline else ""),
        )
        return report

    return OrbitJobs([functools.partial(run_pair, start) for start in starts], finish)


def petal_premises(word: MapWord) -> tuple[float, str | None, str | None, str | None]:
    """The petal of zeta -> zeta - (a + b) zeta^2 that every petal check reads.

    Returns sign(a + b), the real ray of the petal, and the note of each
    premise that fails, None where it holds or there is no petal to hold on:
    the petal exists (|a + b| > ``DEGENERATE_TOL``, as for the direction
    record of [1:0]); w decays along it (c/(a + b) > 0); z and t decay along
    it (a/(a + b) > 0 and b/(a + b) > 0).  They decay like n to the powers
    -c/(a + b), -a/(a + b), -b/(a + b) (Hakim, Duke Math. J. 92 (1998)).
    """
    (a, b), c = word.factors[0].weights, word.factors[0].w_coeff
    total = a + b
    if abs(total) <= DEGENERATE_TOL:
        return 1.0, "a + b = 0: zeta has no quadratic petal", None, None

    def no_decay(name: str, var: str, x: float) -> str | None:
        return f"{name}/(a + b) = {x / total:g} <= 0: {var} does not decay along the petal" if x / total <= 0 else None

    return -1.0 if total < 0 else 1.0, None, no_decay("c", "w", c), no_decay("a", "z", a) or no_decay("b", "t", b)


def check_projection_statuses(word: MapWord, samples: int = 50, rng=None) -> Report:
    """The orbit status of the zeta-word G matches that of its square-root lift.

    Pairs where either orbit stays undecided within the budget are excluded
    as borderline; the report lists them and any genuine disagreements with
    the sign structure of the starting product coordinate.  Only statuses
    are compared; ``check_trace_consistency`` compares the lift's products
    z*t with G's orbit.  The side probes stand on the ray of
    ``petal_premises``; a row whose premise fails is skipped with its note:
    the petal exists for both probes, w decays along it for the attracting
    one and ``both_classes_observed``, and z and t decay along it for the
    attracting probe and ``status_agreement``.  Each sampled pair and each
    probe that runs is a job of ``projection_status_jobs`` that sends back
    its two ``Status``es; ``verify`` deals these jobs together with those
    of the other orbit checks.
    """
    return _run(projection_status_jobs(word, samples, rng))


def projection_status_jobs(word: MapWord, samples: int = 50, rng=None) -> OrbitJobs:
    """The jobs of ``check_projection_statuses``: the pairs of start points
    drawn here, then the side probes that are not skipped, then the fixed line."""
    rng = rng or random.Random(0)
    cfg = OrbitConfig(max_iter=20_000, eps_converged=0.02, record_stride=10_000)
    radius = 0.08
    planar = planar_word(word)

    def pair_statuses(x: complex, y: complex) -> tuple[Status, Status]:
        s = cmath.sqrt(x)
        return (iterate(planar, (x, y), cfg).status, iterate(word, (s, s, y), cfg).status)

    starts = [(sample_disk(rng, radius), sample_disk(rng, radius)) for _ in range(samples)]
    side, no_petal, no_w_decay, no_lift_decay = petal_premises(word)
    premise = no_petal or no_w_decay
    # deterministic probes on both sides of the petal
    probes = (("attracting_side", side * radius / 4, premise or no_lift_decay),
              ("repelling_side", -side * 0.01, no_petal))
    # the line x = 0 is fixed pointwise and never converges to the origin
    y0 = 0.05 + 0j

    def finish(statuses: list) -> Report:
        report = Report(title="projection statuses")
        agree = 0
        excluded = 0
        decided_kinds: set[str] = set()
        disagreements: list[str] = []
        for (x, _), (down, up) in zip(starts, statuses):
            if UNDECIDED in (down.kind, up.kind):
                excluded += 1
                continue
            decided_kinds.add(down.kind)
            if down.kind == up.kind:
                agree += 1
            else:
                disagreements.append(
                    f"x={x:.4g}: planar {down.kind} vs lift {up.kind} "
                    f"(Re x sign {math.copysign(1, x.real):+.0f})"
                )
        compared = samples - excluded
        if no_lift_decay:
            report.add("status_agreement", True, status=SKIP, note=no_lift_decay)
        else:
            report.add(
                "status_agreement",
                not disagreements and compared > 0,
                defect=float(len(disagreements)),
                note=f"{agree}/{compared} compared agree, {excluded} undecided-borderline excluded"
                + ("; " + "; ".join(disagreements) if disagreements else ""),
            )

        probed = iter(statuses[samples:])
        for name, x, skip in probes:
            if skip:
                report.add(name, True, status=SKIP, note=skip)
                continue
            down, up = next(probed)
            kinds = {down.kind, up.kind}
            report.add(name, kinds == {CONVERGED} if name == "attracting_side" else CONVERGED not in kinds,
                       note=f"x={x:g}: planar {down}, lift {up}")
            decided_kinds.add(down.kind)

        if premise:
            report.add("both_classes_observed", True, status=SKIP, note=premise)
        else:
            report.add("both_classes_observed", decided_kinds >= {CONVERGED, ESCAPED},
                       note=f"decided kinds seen: {sorted(decided_kinds)}")

        down, up = next(probed)
        fixed_ok = down.kind == UNDECIDED and up.kind == UNDECIDED
        report.add("fixed_line", fixed_ok, note=f"(0, {y0.real:g}) stays fixed: planar {down}, lift {up}")
        return report

    runs = starts + [(complex(x), 0.01 + 0j) for _, x, skip in probes if not skip] + [(0j, y0)]
    return OrbitJobs([functools.partial(pair_statuses, *start) for start in runs], finish)


def check_product_recursion(samples: int = 100, rng=None, steps: int = 100, tol: float = 1e-14) -> Report:
    """The 2D product prototype sends u = z w to u (1 + u/2)^2 exactly.

    All its orbits are the one job of ``product_recursion_jobs``, which
    sends back the worst relative defect; ``verify`` deals that job
    together with those of the other orbit checks."""
    return _run(product_recursion_jobs(samples, rng, steps, tol))


def product_recursion_jobs(samples: int = 100, rng=None, steps: int = 100, tol: float = 1e-14) -> OrbitJobs:
    """The one job of ``check_product_recursion``, from start points drawn here."""
    rng = rng or random.Random(0)
    proto = Prototype("product_2d")
    starts = [sample_ball_point(rng, 2, 0.3) for _ in range(samples)]

    def worst_defect() -> float:
        worst = 0.0
        for p in starts:
            for _ in range(steps):
                u = p[0] * p[1]
                q = proto(p)
                if _norm(q) > 1e6 or not _finite(q):
                    break
                predicted = u * (1 + 0.5 * u) ** 2
                actual = q[0] * q[1]
                scale = max(abs(actual), abs(predicted), 1e-300)
                worst = max(worst, abs(actual - predicted) / scale)
                p = q
        return worst

    def finish(results: list) -> Report:
        report = Report(title="product recursion")
        worst = results[0]
        report.add("recursion", worst <= tol, defect=worst, tolerance=tol,
                   note=f"{samples} orbits, {steps} steps, radius 0.3")
        p = (0.2 + 0j, 0j)
        report.add("axis_preserved", proto(p) == p, note="points with w=0 are fixed")
        return report

    return OrbitJobs([worst_defect], finish)


def petal_rate(word: MapWord, zeta0: float = 0.01, n_steps: int = 10_000) -> dict:
    """Leau-Fatou decay along the petal: n * zeta_n approaches 1/(a+b).

    Starts at (s, s, 0) with s = sqrt(sign(a + b) zeta0), on the ray of
    ``petal_premises``, and requires sign(a + b) zeta to stay real, positive
    and strictly decreasing.  Each step is observed, not recorded: ``iterate``
    calls an evaluator without ``advance`` once per step, in order, so the
    flags read the product of every point of the orbit while it records
    only the first and the last.  The orbit is the one job of
    ``petal_rate_jobs``; ``verify`` deals it together with the jobs of the
    other orbit checks.
    """
    return _run(petal_rate_jobs(word, zeta0, n_steps))


def petal_rate_jobs(word: MapWord, zeta0: float = 0.01, n_steps: int = 10_000) -> OrbitJobs:
    """The one job of ``petal_rate``, which sends back its dict."""
    side = petal_premises(word)[0]
    s = cmath.sqrt(side * zeta0)
    cfg = OrbitConfig(max_iter=n_steps, eps_converged=1e-15, escape_radius=10.0, record_stride=n_steps)

    def rate() -> dict:
        zeta = s * s
        real, positive, decreasing = zeta.imag == 0.0, side * zeta.real > 0.0, True

        def step(p):
            nonlocal zeta, real, positive, decreasing
            q = word(p)
            prev, zeta = zeta, q[0] * q[1]
            real = real and zeta.imag == 0.0
            positive = positive and side * zeta.real > 0.0
            decreasing = decreasing and side * zeta.real < side * prev.real
            return q

        n = iterate(step, (s, s, 0.0), cfg).indices[-1]
        return {
            "n": n,
            "n_zeta": n * zeta.real,
            "real": real,
            "positive": positive,
            "strictly_decreasing": decreasing,
        }

    return OrbitJobs([rate], operator.itemgetter(0))


def check_trace_consistency(word: MapWord) -> Report:
    """Compare the 3D zeta trace with the orbit of the zeta-word G.

    The orbit starts at (s, s, 0) with s = sqrt(0.01) and runs 1500 steps;
    each step is observed, not recorded, and G takes one step beside it.
    The traces agree to roundoff; this is the one orbit-level check of the
    semi-conjugacy.  Freezing the second planar coordinate at zero would
    not reproduce the trace: the {w = 0} plane is not invariant downstairs,
    as the w-image of (z, t, 0) carries a cubic term in the product
    coordinate (a note of the report says so).  The orbit is the one job of
    ``trace_consistency_jobs``, which sends back the worst defect;
    ``verify`` deals it together with the jobs of the other orbit checks.
    """
    return _run(trace_consistency_jobs(word))


def trace_consistency_jobs(word: MapWord) -> OrbitJobs:
    """The one job of ``check_trace_consistency``."""
    zeta0 = 0.01
    s = math.sqrt(zeta0)
    cfg = OrbitConfig(max_iter=1500, eps_converged=1e-15, escape_radius=10.0, record_stride=1500)
    planar = planar_word(word)

    def worst_defect() -> float:
        q = (complex(zeta0), 0j)
        worst = 0.0

        def step(p):
            nonlocal q, worst
            p = word(p)
            q = planar(q)
            worst = max(worst, abs(p[0] * p[1] - q[0]))
            return p

        iterate(step, (s, s, 0.0), cfg)
        return worst

    def finish(results: list) -> Report:
        report = Report(title="planar trace consistency")
        report.add("projected_orbit", results[0] <= 1e-10, defect=results[0], tolerance=1e-10,
                   note="zeta trace equals the true planar orbit")
        report.notes.append(
            "the w-image of (z, t, 0) has a nonzero cubic term in zeta, so {w=0} is not invariant "
            "for the induced planar map; only the full planar orbit reproduces the zeta trace"
        )
        return report

    return OrbitJobs([worst_defect], finish)


# ----------------------------------------------------------------------
# rasters


@dataclass(frozen=True)
class SliceSpec:
    """Affine 2-parameter slice base + u*dir1 + v*dir2, rasterized.

    ``lift`` switches to square-root lift rendering: the pixel value
    u + i v is treated as the product coordinate and mapped to the start
    point (s, s[, w_fix]) with s = +/- sqrt(u + i v).
    """

    base: tuple[complex, ...]
    dir1: tuple[complex, ...]
    dir2: tuple[complex, ...]
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    width: int
    height: int
    lift: str = "none"  # "none" | "pos" | "neg"
    w_fix: complex = 0j

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("resolution must be at least 1x1")
        values = (*self.base, *self.dir1, *self.dir2, *self.u_range, *self.v_range, self.w_fix)
        if not all(cmath.isfinite(x) for x in values):
            raise DomainError("slice base, directions, ranges and w_fix must be finite")
        for axis, (lo, hi), n in (("u", self.u_range, self.width), ("v", self.v_range, self.height)):
            if n > 1 and lo == hi:
                raise ValueError(f"the {axis}-range of {n} pixels has zero width ({lo:g} to {hi:g})")
        if self.lift not in ("none", "pos", "neg"):
            raise ValueError("lift must be 'none', 'pos' or 'neg'")
        if self.lift == "none":
            if len(self.base) != len(self.dir1) or len(self.base) != len(self.dir2):
                raise DimensionError("base and direction vectors must share length")
            # the slice is a real 2-parameter family, so independence over R decides
            r1 = np.concatenate([np.real(self.dir1), np.imag(self.dir1)])
            r2 = np.concatenate([np.real(self.dir2), np.imag(self.dir2)])
            g11, g22, g12 = r1 @ r1, r2 @ r2, r1 @ r2
            if g11 * g22 - g12 * g12 <= 1e-24 * max(g11 * g22, 1e-300):
                raise ValueError("direction vectors must be linearly independent over the reals")

    def axis_u(self) -> list[float]:
        return _axis_values(self.u_range[0], self.u_range[1], self.width)

    def axis_v(self) -> list[float]:
        return _axis_values(self.v_range[0], self.v_range[1], self.height)

    def start_point(self, u: float | np.ndarray, v: float | np.ndarray) -> tuple:
        """Pixel (u, v) as a start point: complex for floats, arrays for arrays of one shape."""
        if self.lift == "none":
            return tuple(b + u * d1 + v * d2 for b, d1, d2 in zip(self.base, self.dir1, self.dir2))
        s = np.sqrt(u + 1j * v)
        if self.lift == "neg":
            s = -s
        if len(self.base) == 3:
            return (s, s, np.full(s.shape, self.w_fix, dtype=complex) if np.ndim(s) else self.w_fix)
        return (s, s)

    def to_dict(self) -> dict:
        return {
            "base": [[x.real, x.imag] for x in self.base],
            "dir1": [[x.real, x.imag] for x in self.dir1],
            "dir2": [[x.real, x.imag] for x in self.dir2],
            "u_range": list(self.u_range),
            "v_range": list(self.v_range),
            "width": self.width,
            "height": self.height,
            "lift": self.lift,
            "w_fix": [self.w_fix.real, self.w_fix.imag],
        }


def _axis_values(lo: float, hi: float, n: int) -> list[float]:
    """Inclusive linspace; symmetric ranges sample exactly mirrored points."""
    if n == 1:
        return [(lo + hi) / 2.0]
    step = (hi - lo) / (n - 1)
    vals = [lo + i * step for i in range(n)]
    vals[-1] = hi
    if lo == -hi:
        for i in range(n // 2):
            vals[n - 1 - i] = -vals[i]
        if n % 2 == 1:
            vals[n // 2] = 0.0
    return vals


@dataclass
class BasinRaster:
    codes: np.ndarray  # uint8, shape (height, width), values in {0, 1, 2}
    iterations: np.ndarray  # int32, decision index (max_iter when undecided)

    def counts(self) -> dict:
        return {kind: int(np.count_nonzero(self.codes == code)) for code, kind in enumerate(_KINDS)}


class BatchMap(Protocol):
    def eval_batch(self, coords: list[np.ndarray]) -> list[np.ndarray]: ...


def _batch_norm(coords: Sequence[np.ndarray]) -> np.ndarray:
    """``_norm`` squared, bit for bit: each coordinate's re^2 + im^2, added coordinate by coordinate.
    Call it in an ``np.errstate`` that lets a square overflow to inf."""
    total = None
    for c in coords:
        sq = np.square(c.real)
        sq += np.square(c.imag)
        total = sq if total is None else np.add(total, sq, out=total)
    return total


def _squared_bounds(eps: float, radius: float) -> tuple[float, float]:
    """The least double lo with sqrt(lo) >= eps and the greatest hi with sqrt(hi) <= radius;
    sqrt is correctly rounded and monotone, so lo <= s <= hi iff eps <= sqrt(s) <= radius."""
    lo, hi = eps * eps, radius * radius
    while math.sqrt(lo) >= eps:
        lo = math.nextafter(lo, 0)
    while math.sqrt(lo) < eps:
        lo = math.nextafter(lo, math.inf)
    while hi < math.inf and math.sqrt(hi) <= radius:
        hi = math.nextafter(hi, math.inf)
    while math.sqrt(hi) > radius:
        hi = math.nextafter(hi, 0)
    return lo, hi


def classify_batch(map_obj: BatchMap, coords: Sequence[np.ndarray],
                   cfg: OrbitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized orbit classification through ``_rule``, like iterate().

    ``coords`` holds one complex array per coordinate; results are per
    element.  As in iterate(), a step runs the rule only on the elements it
    can decide: squared norm s outside ``_squared_bounds`` or equal to the
    last step's, as a stationary element's is bit for bit.  Decided elements
    leave the arrays at once.  sqrt(s) is ``_norm`` bit for bit; block
    maxima stay squared until a window closes, as sqrt(max s) == max
    sqrt(s).  One ``np.errstate``, the map's steps included, lets overflow
    and nan pass as escapes.  How elements are grouped into batches does
    not change the outcome.

    The start arrays are read in place, not copied (complex arrays that
    are contiguous are only raveled), and may share memory, as a lift's
    (s, s, w) does: neither the map's batch step nor this loop writes into
    its inputs, and decided elements leave through new arrays.
    """
    p = [np.asarray(c, dtype=complex).ravel() for c in coords]
    # frees start arrays that the caller does not keep
    shape, coords = np.shape(coords[0]), None
    codes = np.full(p[0].size, CODE_UNDECIDED, dtype=np.uint8)
    iters = np.full(p[0].size, cfg.max_iter, dtype=np.int32)
    orig_idx = np.arange(p[0].size)
    prev_block = np.full(p[0].size, math.nan)
    window_ok = np.zeros(p[0].size, dtype=bool)
    eps, radius = cfg.eps_converged, cfg.escape_radius
    lo, hi = _squared_bounds(eps, radius)

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        s_prev = _batch_norm(p)
        cur_block = s_prev.copy()
        for n in range(1, cfg.max_iter + 1):
            if not orig_idx.size:
                break
            q = [np.asarray(c, dtype=complex) for c in map_obj.eval_batch(p)]
            s = _batch_norm(q)
            # the block max of an element decided at this step is never read
            np.maximum(cur_block, s, out=cur_block)
            if n % _WINDOW == 0:
                window_ok = np.sqrt(cur_block, out=cur_block) <= prev_block
                prev_block, cur_block = cur_block, np.zeros(cur_block.shape)
            keep = (s >= lo) & (s <= hi) & (s != s_prev)  # the rule decides none of these
            if not keep.all():
                idx = np.flatnonzero(~keep)
                finite = np.logical_and.reduce([np.isfinite(c[idx]) for c in q])
                stationary = np.logical_and.reduce([a[idx] == b[idx] for a, b in zip(p, q)])
                # written last to first, so the first test that hits wins
                step = np.full(idx.size, 255, dtype=np.uint8)
                for code, _, mask in reversed(_rule(np.sqrt(s[idx]), ~finite, stationary, window_ok[idx], eps, radius)):
                    step[mask] = code
                hit = step != 255
                if hit.any():
                    dec = idx[hit]
                    codes[orig_idx[dec]] = step[hit]
                    iters[orig_idx[dec]] = n
                    keep[idx] = ~hit
                    q = [c[keep] for c in q]
                    s, orig_idx, cur_block, prev_block, window_ok = (
                        s[keep], orig_idx[keep], cur_block[keep], prev_block[keep], window_ok[keep])
            p, s_prev, keep = q, s, None  # of this step's full-size arrays only s outlives it
    return codes.reshape(shape), iters.reshape(shape)


def _computed_rows(map_obj: BatchMap, spec: SliceSpec) -> int:
    """ceil(height / 2) if row height-1-i starts at the conjugates of row i's start
    points and the map is a package map with int or float parameters, else height."""
    if type(map_obj) is MapWord:
        params = [x for f in map_obj.factors for x in (*f.weights, f.w_coeff)]
    elif type(map_obj) is Prototype:
        params = [map_obj.a]
    else:
        return spec.height
    # a symmetric v_range samples exactly negated values of v; the other terms must be real
    if spec.lift == "none":
        conjugate = all(x.imag == 0 for x in (*spec.base, *spec.dir1)) and all(x.real == 0 for x in spec.dir2)
    else:
        conjugate = spec.w_fix.imag == 0
    mirrored = conjugate and spec.v_range[0] == -spec.v_range[1] and all(isinstance(x, (int, float)) for x in params)
    return (spec.height + 1) // 2 if mirrored else spec.height


def _fork_map(fn, items: Sequence, limit: int) -> list:
    """One result per item, in item order, from w = min(limit, len(items),
    usable CPUs) workers, or 1 where ``os`` has no ``fork``.

    Worker k calls fn(items[k::w]), which returns a list of one result per
    item it is given, so worker k takes items k, k + w, k + 2w, ...  With
    w = 1, fn runs in this process.  Otherwise each worker is a forked child
    that pickles (ok, results or exception) into its own pipe, so a result
    should hold only what the caller reads.  A child's exception is raised
    here, a lost child is a RuntimeError, and no child outlives the call.
    It has two callers, each forking once per call: ``sample_slice`` for a
    raster's computed rows and ``run_orbit_jobs`` for the orbit jobs of
    ``verify``, all of them in one call.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(limit, len(items), usable) if hasattr(os, "fork") else 1
    if workers <= 1:
        return fn(items)
    results = [None] * len(items)
    pids, pipes, reaped = [], [], 0
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:  # the child leaves by os._exit, never into the caller
                    try:
                        for pipe in pipes:
                            pipe.close()
                        try:
                            reply = (True, fn(items[k::workers]))
                        except BaseException as exc:  # raised again in the parent
                            reply = (False, exc)
                        pickle.dump(reply, out)
                        out.close()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        for k, (pid, pipe) in enumerate(zip(pids, pipes)):
            data = pipe.read()  # before waitpid: a result larger than the pipe buffer blocks its writer
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if status:
                raise RuntimeError(f"worker {k} ended without a result, exit code {status}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[k::workers] = value
        return results
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def sample_slice(
    map_obj: BatchMap,
    spec: SliceSpec,
    cfg: OrbitConfig | None = None,
    workers: int = 1,
) -> BasinRaster:
    """Classify every pixel of the slice with ``classify_batch``.

    The map needs ``eval_batch``; every map class of the package has one.
    Every operation inside a band is elementwise per pixel, so the output
    does not depend on the banding and is identical for any worker count.
    A ``workers`` count below 1 raises ``ValueError``; otherwise the computed
    rows are dealt to at most ``workers`` workers by ``_fork_map``, each
    classifying its rows in one ``classify_batch`` call, so numpy's
    per-step cost is paid once per worker.  Work per row varies smoothly,
    so the workers carry almost equal work (28.50M pixel-iterations each on
    the benchmark's PROTO_1D raster).

    On a conjugation-symmetric slice (``_computed_rows``) only rows
    [0, ceil(height / 2)) are classified, an odd height's middle row v = 0
    among them, and row height-1-i copies row i.  The copy is the full
    computation bit for bit: each operation of the batch step (complex
    product, real times complex, np.exp) commutes with conjugation in IEEE
    arithmetic, so the conjugate start has the conjugate orbit up to the
    signs of exact zeros, and the rule reads only squared moduli,
    finiteness and equality (tests/test_conjugation.py checks the
    premise).  Arrays added to ``BasinRaster`` later, such as decision
    reasons or certified marks, must be mirrored too.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cfg = cfg or OrbitConfig()
    codes = np.zeros((spec.height, spec.width), dtype=np.uint8)
    iters = np.zeros((spec.height, spec.width), dtype=np.int32)
    rows = _computed_rows(map_obj, spec)
    us, vs = spec.axis_u(), spec.axis_v()

    def band(rows_of_band: range) -> list:
        band_codes, band_iters = classify_batch(
            map_obj, spec.start_point(*np.meshgrid(us, [vs[i] for i in rows_of_band])), cfg)
        # a forked worker pickles its rows back through a pipe: the least dtype that holds max_iter
        return list(zip(band_codes, band_iters.astype(np.min_scalar_type(cfg.max_iter))))

    for row, (row_codes, row_iters) in enumerate(_fork_map(band, range(rows), workers)):
        codes[row], iters[row] = row_codes, row_iters
    codes[rows:] = codes[: spec.height - rows][::-1]
    iters[rows:] = iters[: spec.height - rows][::-1]
    return BasinRaster(codes=codes, iterations=iters)


# ----------------------------------------------------------------------
# file outputs

_PGM_BYTES = np.array([0, 255, 128], dtype=np.uint8)  # escaped, converged, undecided


def write_pgm(raster: BasinRaster, path) -> None:
    """Binary P5 raster: escaped -> 0, undecided -> 128, converged -> 255."""
    header = f"P5\n{raster.codes.shape[1]} {raster.codes.shape[0]}\n255\n".encode()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(_PGM_BYTES[raster.codes].tobytes())


def raster_sidecar(raster: BasinRaster, spec: SliceSpec, cfg: OrbitConfig) -> dict:
    its = raster.iterations
    return {
        "slice": spec.to_dict(),
        "config": cfg.to_dict(),
        "counts": raster.counts(),
        "iterations": {
            "min": int(its.min()),
            "max": int(its.max()),
            "mean": float(its.mean()),
        },
    }


def write_orbit_csv(orbit: Orbit, path) -> None:
    dim = len(orbit.points[0])
    header = "n," + ",".join(f"re_{i + 1},im_{i + 1}" for i in range(dim)) + ",norm"
    lines = [header]
    for n, p in zip(orbit.indices, orbit.points):
        cells = [str(n)]
        for x in p:
            cells.append(repr(x.real))
            cells.append(repr(x.imag))
        cells.append(repr(_norm(p)))
        lines.append(",".join(cells))
    lines.append(f"# status={orbit.status}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
