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
passes.  ``iterate`` calls the rule only on a step that can meet one of
its tests: a norm outside [eps, radius] (nan included) or a stationary
step.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .jets import DimensionError, DomainError
from .maps import MapWord, Prototype, PushforwardMap, eval_pushforward, project_pi
from .report import Report, WARN

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
        return {
            "max_iter": self.max_iter,
            "eps_converged": self.eps_converged,
            "escape_radius": self.escape_radius,
            "record_stride": self.record_stride,
        }


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
    zeta_trace: list[complex] | None
    status: Status

    @property
    def final_point(self) -> tuple[complex, ...]:
        return self.points[-1]

    @property
    def final_norm(self) -> float:
        return _norm(self.points[-1])


def _norm(p: Sequence[complex]) -> float:
    """The squares added left to right, as ``sum`` adds them before Python 3.12."""
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
    record_stride-th point (plus the final one) is stored.  For
    three-coordinate orbits the product z*t is recorded alongside.
    """
    cfg = cfg or OrbitConfig()
    p = tuple(complex(x) for x in p0)
    dim = len(p)
    track_zeta = dim == 3

    points = [p]
    indices = [0]
    zeta_trace = [p[0] * p[1]] if track_zeta else None

    def record(q: tuple[complex, ...], n: int) -> None:
        points.append(q)
        indices.append(n)
        if track_zeta:
            zeta_trace.append(q[0] * q[1])

    prev_block_max = math.nan
    cur_block_max = _norm(p)
    window_ok = False
    status: Status | None = None
    eps, radius, stride, isfinite, norm = (
        cfg.eps_converged, cfg.escape_radius, cfg.record_stride, math.isfinite, _norm)

    for n in range(1, cfg.max_iter + 1):
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
        status = Status(UNDECIDED, cfg.max_iter)
        if indices[-1] != cfg.max_iter:
            record(p, cfg.max_iter)

    return Orbit(points=points, indices=indices, zeta_trace=zeta_trace, status=status)


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


def check_semiconjugacy(
    word: MapWord,
    samples: int = 100,
    radius: float = 0.5,
    rng=None,
    orbit_start: tuple = (0.1, 0.1, 0.05),
    orbit_steps: int = 1000,
) -> Report:
    """Pointwise and orbit-level commutation of projection and dynamics."""
    rng = rng or random.Random(0)
    report = Report(title="semi-conjugacy")

    worst = 0.0
    for _ in range(samples):
        p = sample_ball_point(rng, 3, radius)
        lhs = project_pi(word(p))
        rhs = eval_pushforward(word, project_pi(p))
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    report.add("pointwise", worst <= 1e-12, defect=worst, tolerance=1e-12)

    p = tuple(complex(x) for x in orbit_start)
    q = project_pi(p)
    worst_orbit = 0.0
    for _ in range(orbit_steps):
        p = word(p)
        q = eval_pushforward(word, q)
        worst_orbit = max(worst_orbit, max(abs(a - b) for a, b in zip(project_pi(p), q)))
    report.add("orbit_level", worst_orbit <= 1e-9, defect=worst_orbit, tolerance=1e-9,
               note=f"{orbit_steps} steps from {orbit_start}")

    p0 = (0.25 + 0j, 0j, 0.1 + 0.05j)
    moved = max(abs(a - b) for a, b in zip(word(p0), p0))
    proj_fixed = max(abs(a - b) for a, b in zip(project_pi(p0), eval_pushforward(word, project_pi(p0))))
    fixed_defect = max(moved, proj_fixed)
    # identity up to one exponential round trip in floating point
    report.add("fixed_plane_projection", fixed_defect <= 1e-15, defect=fixed_defect, tolerance=1e-15,
               note="points with t=0 are fixed and project to fixed (0, w)")
    return report


def check_equivariance(
    word: MapWord,
    samples: int = 50,
    rng=None,
    status_samples: int = 20,
    status_cfg: OrbitConfig | None = None,
) -> Report:
    """Commutation with (z, t) -> (lambda z, t/lambda) plus the status corollary."""
    rng = rng or random.Random(0)
    report = Report(title="equivariance")

    worst = 0.0
    for _ in range(samples):
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

    cfg = status_cfg or OrbitConfig(max_iter=20_000, eps_converged=0.02, record_stride=10_000)
    agree = 0
    borderline = 0
    for _ in range(status_samples):
        p = sample_ball_point(rng, 3, 0.3)
        gauged = (2 * p[0], p[1] / 2, p[2])
        k1 = iterate(word, p, cfg).status.kind
        k2 = iterate(word, gauged, cfg).status.kind
        if k1 == k2:
            agree += 1
        elif UNDECIDED in (k1, k2):
            # the gauge rescales the norm, so one side may sit just short
            # of the eps threshold at the iteration budget
            borderline += 1
    report.add(
        "status_invariance",
        agree + borderline == status_samples,
        defect=float(status_samples - agree - borderline),
        note=f"{agree}/{status_samples} agree under lambda=2"
        + (f", {borderline} undecided-borderline excluded" if borderline else ""),
    )
    return report


def check_fiber_invariance(
    word: MapWord,
    samples: int = 20,
    rng=None,
    cfg: OrbitConfig | None = None,
) -> Report:
    """Status and zeta-trace depend only on (z t, w)."""
    rng = rng or random.Random(0)
    cfg = cfg or OrbitConfig(max_iter=20_000, eps_converged=0.02, record_stride=10)
    report = Report(title="fiber invariance")

    worst_trace = 0.0
    status_agree = 0
    borderline = 0
    for _ in range(samples):
        p = sample_ball_point(rng, 3, 0.3)
        # powers of two keep the product coordinate bitwise identical
        lam = rng.choice((2.0, 0.5))
        gauged = (lam * p[0], p[1] / lam, p[2])
        o1 = iterate(word, p, cfg)
        o2 = iterate(word, gauged, cfg)
        if o1.status.kind == o2.status.kind:
            status_agree += 1
        elif UNDECIDED in (o1.status.kind, o2.status.kind):
            borderline += 1
        trace1 = dict(zip(o1.indices, o1.zeta_trace))
        trace2 = dict(zip(o2.indices, o2.zeta_trace))
        shared = sorted(set(trace1) & set(trace2))
        worst_trace = max(
            worst_trace, max(abs(trace1[n] - trace2[n]) for n in shared)
        )
    report.add("zeta_trace", worst_trace <= 1e-10, defect=worst_trace, tolerance=1e-10)
    report.add(
        "status",
        status_agree + borderline == samples,
        defect=float(samples - status_agree - borderline),
        note=f"{status_agree}/{samples} same classification"
        + (f", {borderline} undecided-borderline excluded" if borderline else ""),
    )
    return report


def check_projection_statuses(
    word: MapWord,
    samples: int = 50,
    rng=None,
    cfg: OrbitConfig | None = None,
    radius: float = 0.08,
) -> Report:
    """Orbit status downstairs matches the status of the square-root lift.

    Pairs where either orbit stays undecided within the budget are excluded
    as borderline; the report lists them and any genuine disagreements with
    the sign structure of the starting product coordinate.
    """
    rng = rng or random.Random(0)
    cfg = cfg or OrbitConfig(max_iter=20_000, eps_converged=0.02, record_stride=10_000)
    report = Report(title="projection statuses")
    planar = PushforwardMap(word)

    def pair_statuses(x: complex, y: complex) -> tuple[Status, Status]:
        s = cmath.sqrt(x)
        return (iterate(planar, (x, y), cfg).status, iterate(word, (s, s, y), cfg).status)

    agree = 0
    excluded = 0
    decided_kinds: set[str] = set()
    disagreements: list[str] = []
    for _ in range(samples):
        x = sample_disk(rng, radius)
        y = sample_disk(rng, radius)
        down, up = pair_statuses(x, y)
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
    report.add(
        "status_agreement",
        not disagreements and compared > 0,
        defect=float(len(disagreements)),
        note=f"{agree}/{compared} compared agree, {excluded} undecided-borderline excluded"
        + ("; " + "; ".join(disagreements) if disagreements else ""),
    )

    # deterministic probes on both sides of the petal
    down, up = pair_statuses(complex(radius / 4), 0.01 + 0j)
    attracting_ok = down.kind == CONVERGED and up.kind == CONVERGED
    report.add("attracting_side", attracting_ok,
               note=f"x={radius / 4:g}: planar {down}, lift {up}")
    decided_kinds.add(down.kind)

    down, up = pair_statuses(-0.01 + 0j, 0.01 + 0j)
    report.add(
        "repelling_side",
        down.kind != CONVERGED and up.kind != CONVERGED,
        note=f"x=-0.01: planar {down}, lift {up}",
    )
    decided_kinds.add(down.kind)

    report.add(
        "both_classes_observed",
        decided_kinds >= {CONVERGED, ESCAPED},
        note=f"decided kinds seen: {sorted(decided_kinds)}",
    )

    # the line x = 0 is fixed pointwise and never converges to the origin
    y0 = 0.05 + 0j
    down, up = pair_statuses(0j, y0)
    fixed_ok = down.kind == UNDECIDED and up.kind == UNDECIDED
    report.add("fixed_line", fixed_ok, note=f"(0, {y0.real:g}) stays fixed: planar {down}, lift {up}")

    # trace comparison on a converging sample
    o_up = iterate(word, (cmath.sqrt(0.01 + 0j), cmath.sqrt(0.01 + 0j), 0.02 + 0j),
                   OrbitConfig(max_iter=500, eps_converged=1e-12, escape_radius=10.0))
    q = (0.01 + 0j, 0.02 + 0j)
    worst = 0.0
    for n in range(1, len(o_up.zeta_trace)):
        q = planar(q)
        worst = max(worst, abs(o_up.zeta_trace[n] - q[0]))
    report.add("lift_trace", worst <= 1e-10, defect=worst, tolerance=1e-10,
               note="zeta trace of the lift matches the planar first coordinate")
    return report


def check_product_recursion(
    samples: int = 100,
    rng=None,
    steps: int = 100,
    radius: float = 0.3,
    tol: float = 1e-14,
) -> Report:
    """The 2D product prototype sends u = z w to u (1 + u/2)^2 exactly."""
    rng = rng or random.Random(0)
    proto = Prototype("product_2d")
    report = Report(title="product recursion")
    worst = 0.0
    for _ in range(samples):
        p = sample_ball_point(rng, 2, radius)
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
    report.add("recursion", worst <= tol, defect=worst, tolerance=tol,
               note=f"{samples} orbits, {steps} steps, radius {radius}")

    p = (0.2 + 0j, 0j)
    q = proto(p)
    report.add("axis_preserved", q == p, note="points with w=0 are fixed")
    return report


def petal_rate(
    word: MapWord,
    zeta0: float = 0.01,
    n_steps: int = 10_000,
) -> dict:
    """Leau-Fatou decay along the real petal: n * zeta_n approaches 1/(2a).

    Starts at (sqrt(zeta0), sqrt(zeta0), 0) and requires the recorded
    product coordinate to stay real, positive and strictly decreasing.
    """
    s = math.sqrt(zeta0)
    cfg = OrbitConfig(max_iter=n_steps, eps_converged=1e-15, escape_radius=10.0, record_stride=1)
    orbit = iterate(word, (s, s, 0.0), cfg)
    zs = orbit.zeta_trace
    all_real = all(z.imag == 0.0 for z in zs)
    positive = all(z.real > 0.0 for z in zs)
    decreasing = all(b.real < a.real for a, b in zip(zs, zs[1:]))
    return {
        "n": orbit.indices[-1],
        "n_zeta": orbit.indices[-1] * zs[-1].real,
        "real": all_real,
        "positive": positive,
        "strictly_decreasing": decreasing,
    }


def check_trace_consistency(word: MapWord, zeta0: float = 0.01, steps: int = 2000) -> Report:
    """Compare the 3D zeta trace with planar models of the same orbit.

    Against the true planar orbit the traces agree to roundoff.  Freezing
    the second planar coordinate at zero does NOT reproduce the trace: the
    {w = 0} plane is not invariant downstairs (the w-image of (z, t, 0)
    carries a cubic term in the product coordinate), so that model is
    reported as a measured discrepancy, not a failure.
    """
    report = Report(title="planar trace consistency")
    s = math.sqrt(zeta0)
    cfg = OrbitConfig(max_iter=steps, eps_converged=1e-15, escape_radius=10.0, record_stride=1)
    orbit = iterate(word, (s, s, 0.0), cfg)
    planar = PushforwardMap(word)

    q = (complex(zeta0), 0j)
    worst_true = 0.0
    for n in range(1, len(orbit.zeta_trace)):
        q = planar(q)
        worst_true = max(worst_true, abs(orbit.zeta_trace[n] - q[0]))
    report.add("projected_orbit", worst_true <= 1e-10, defect=worst_true, tolerance=1e-10,
               note="zeta trace equals the true planar orbit")

    u = complex(zeta0)
    worst_frozen = 0.0
    for n in range(1, len(orbit.zeta_trace)):
        u = planar((u, 0j))[0]
        worst_frozen = max(worst_frozen, abs(orbit.zeta_trace[n] - u))
    report.add(
        "frozen_w_model", True, defect=worst_frozen, status=WARN,
        note="freezing w=0 drifts from the true trace; the plane is not invariant downstairs",
    )
    report.notes.append(
        "the w-image of (z, t, 0) has a nonzero cubic term in zeta, so {w=0} is not invariant "
        "for the induced planar map; only the full planar orbit reproduces the zeta trace"
    )
    return report


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

    def start_point(self, u: float, v: float) -> tuple[complex, ...]:
        if self.lift == "none":
            return tuple(
                b + u * d1 + v * d2 for b, d1, d2 in zip(self.base, self.dir1, self.dir2)
            )
        s = cmath.sqrt(complex(u, v))
        if self.lift == "neg":
            s = -s
        if len(self.base) == 3:
            return (s, s, self.w_fix)
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


def classify_batch(
    map_obj: BatchMap, coords: list[np.ndarray], cfg: OrbitConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized orbit classification through ``_rule``, like iterate().

    ``coords`` holds one complex array per coordinate; results are per
    element.  The rule's tests are applied in order to the still-active
    elements.  Decided elements are frozen (their state zeroed) so later
    steps cannot disturb them, which keeps the outcome independent of how
    elements are grouped into batches.
    """
    total = coords[0].size
    shape = coords[0].shape
    p = [np.array(c, dtype=complex).ravel() for c in coords]
    codes = np.full(total, CODE_UNDECIDED, dtype=np.uint8)
    iters = np.full(total, cfg.max_iter, dtype=np.int32)
    orig_idx = np.arange(total)
    active = np.ones(total, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        cur_block = np.sqrt(sum(np.abs(c) ** 2 for c in p))
    prev_block = math.nan
    window_ok = False

    for n in range(1, cfg.max_iter + 1):
        if not active.any():
            break
        q = map_obj.eval_batch(p)
        q = [np.asarray(c, dtype=complex) for c in q]
        finite = np.isfinite(q[0])
        for c in q[1:]:
            finite &= np.isfinite(c)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            nrm = np.sqrt(sum(np.abs(c) ** 2 for c in q))
        stationary = p[0] == q[0]
        for a, b in zip(p[1:], q[1:]):
            stationary &= a == b
        # the block max of an element decided at this step is never read
        np.maximum(cur_block, nrm, out=cur_block)
        if n % _WINDOW == 0:
            window_ok = cur_block <= prev_block
            prev_block, cur_block = cur_block, np.zeros(active.shape)
        for code, _, mask in _rule(nrm, ~finite, stationary, window_ok, cfg.eps_converged, cfg.escape_radius):
            hit = active & mask
            if hit.any():
                codes[orig_idx[hit]] = code
                iters[orig_idx[hit]] = n
                active[hit] = False
                for c in q:
                    c[hit] = 0.0
        p = q
        # elementwise arithmetic does not depend on array packing, so the
        # still-active elements can be gathered without changing results
        if n % _WINDOW == 0 and 0 < active.sum() < active.size:
            keep = np.nonzero(active)[0]
            p = q = [c[keep] for c in p]
            orig_idx = orig_idx[keep]
            cur_block = cur_block[keep]
            prev_block = prev_block[keep]
            window_ok = window_ok[keep]
            active = np.ones(keep.size, dtype=bool)
    return codes.reshape(shape), iters.reshape(shape)


def _band_starts(spec: SliceSpec, row_start: int, row_end: int) -> list[np.ndarray]:
    us = np.array(spec.axis_u())
    vs = np.array(spec.axis_v()[row_start:row_end])
    uu, vv = np.meshgrid(us, vs)
    if spec.lift != "none":
        s = np.sqrt(uu + 1j * vv)
        if spec.lift == "neg":
            s = -s
        if len(spec.base) == 3:
            return [s, s.copy(), np.full(s.shape, spec.w_fix, dtype=complex)]
        return [s, s.copy()]
    return [
        b + uu * d1 + vv * d2
        for b, d1, d2 in zip(spec.base, spec.dir1, spec.dir2)
    ]


def _classify_band(args) -> tuple[int, np.ndarray, np.ndarray]:
    map_obj, spec, cfg, row_start, row_end = args
    codes, iters = classify_batch(map_obj, _band_starts(spec, row_start, row_end), cfg)
    return row_start, codes, iters


def sample_slice(
    map_obj: BatchMap,
    spec: SliceSpec,
    cfg: OrbitConfig | None = None,
    workers: int = 1,
) -> BasinRaster:
    """Classify every pixel of the slice with ``classify_batch``.

    The map needs ``eval_batch``; every map class of the package has one.
    Rows are processed in bands; every operation inside a band is
    elementwise per pixel, so the output does not depend on the banding
    and is identical for any worker count.  At most one worker per usable
    CPU is started.  One worker takes the whole slice as one band; w > 1
    workers share min(height, max(w, min(4w, pixels // 4096))) bands, so
    a small slice pays numpy's per-step overhead w times, not 4w times.
    """
    cfg = cfg or OrbitConfig()
    codes = np.zeros((spec.height, spec.width), dtype=np.uint8)
    iters = np.zeros((spec.height, spec.width), dtype=np.int32)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, usable)
    if workers <= 1:
        bands = [(map_obj, spec, cfg, 0, spec.height)]
        results = map(_classify_band, bands)
    else:
        n_bands = min(spec.height, max(workers, min(4 * workers, spec.height * spec.width // 4096)))
        edges = [round(i * spec.height / n_bands) for i in range(n_bands + 1)]
        bands = [
            (map_obj, spec, cfg, lo, hi)
            for lo, hi in zip(edges, edges[1:])
            if hi > lo
        ]
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_classify_band, bands))
        finally:
            pool.shutdown()
    for row_start, band_codes, band_iters in results:
        codes[row_start : row_start + band_codes.shape[0], :] = band_codes
        iters[row_start : row_start + band_iters.shape[0], :] = band_iters
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
