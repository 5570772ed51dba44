"""Command-line surface: expansion printing, verification, direction reports,
orbit dumps and basin rasters.

Exit codes: 0 all good, 1 a verification check failed, 2 invalid input.
All randomized checks draw from one generator seeded by --seed, so every
report, CSV and raster is byte-reproducible for a fixed configuration.
A JSON file passed through --config overrides the command-line flags.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys

import numpy as np

from . import directions as dirs_mod
from . import dynamics as dyn
from .jets import DEFAULT_ORDER, DimensionError, DomainError, Jet, JetMap, format_jet
from .maps import (
    MapWord,
    Params,
    Prototype,
    build_F,
    family_in_regime,
    map_from_spec,
    push_forward,
    verify_form_eq1,
    verify_normal_form,
)
from .report import SKIP, WARN, Report

MAP_CHOICES = ("F3", "G", "PROTO_1D", "PROTO_2D", "FAMILY_K")

VERIFY_CHECK_NAMES = (
    "jets.ring_axioms",
    "jets.compose_associativity",
    "jets.eval_compatibility",
    "jets.euler_identity",
    "maps.normal_form",
    "maps.automorphism_inverse",
    "maps.semiconjugacy_pointwise",
    "maps.equivariance",
    "maps.fixed_planes",
    "maps.symmetry_tF1_zF2",
    "directions.residuals",
    "directions.scaling_covariance",
    "directions.euler",
    "directions.chart_independence",
    "directions.regime_advisory",
    "dynamics.status_trichotomy",
    "dynamics.fiber_invariance",
    "dynamics.petal_rate",
    "dynamics.raster_determinism",
    "dynamics.trace_1d3d",
    "dynamics.semiconjugacy_orbit",
    "dynamics.projection_statuses",
    "dynamics.product_recursion",
)

_VAR_NAMES = {
    "F3": ("z", "t", "w"),
    "G": ("zeta", "w"),
    "PROTO_1D": ("z",),
    "PROTO_2D": ("z", "w"),
}


# ----------------------------------------------------------------------
# small random helpers for the in-CLI property checks


def _random_dyadic_jet(rng: random.Random, k: int, order: int, n_terms: int = 6) -> Jet:
    """Coefficients m/16 with small integer m: products stay exact in doubles."""
    exps = []
    for _ in range(n_terms):
        while True:
            e = tuple(rng.randint(0, order) for _ in range(k))
            if sum(e) <= order:
                exps.append(e)
                break
    terms = {}
    for e in exps:
        m = rng.randint(-32, 32) or 1
        terms[e] = complex(m / 16.0, (rng.randint(-32, 32) or 1) / 16.0)
    return Jet(k, order, terms)


def _random_origin_map(rng: random.Random, k: int, order: int) -> JetMap:
    comps = []
    for _ in range(k):
        jet = _random_dyadic_jet(rng, k, order, n_terms=5)
        jet = jet - Jet.constant(k, order, jet.coefficient((0,) * k))
        comps.append(jet)
    return JetMap(comps)


# ----------------------------------------------------------------------
# verification suite


def _check_jets(report: Report, rng: random.Random) -> None:
    worst = 0.0
    for _ in range(12):
        f = _random_dyadic_jet(rng, 3, 6)
        g = _random_dyadic_jet(rng, 3, 6)
        h = _random_dyadic_jet(rng, 3, 6)
        worst = max(worst, ((f * g) * h).max_abs_diff(f * (g * h)))
        worst = max(worst, (f * g).max_abs_diff(g * f))
        worst = max(worst, (f * (g + h)).max_abs_diff(f * g + f * h))
    report.add("jets.ring_axioms", worst == 0.0, defect=worst, tolerance=0.0,
               note="dyadic coefficients, exact equality")

    worst = 0.0
    for _ in range(6):
        a = _random_origin_map(rng, 3, 5)
        b = _random_origin_map(rng, 3, 5)
        c = _random_origin_map(rng, 3, 5)
        worst = max(worst, (a.compose(b).compose(c)).max_abs_diff(a.compose(b.compose(c))))
    report.add("jets.compose_associativity", worst == 0.0, defect=worst, tolerance=0.0)

    order = 6
    radius = 0.1
    worst_ratio = 0.0
    for _ in range(20):
        f = _random_dyadic_jet(rng, 3, order)
        g = _random_dyadic_jet(rng, 3, order)
        p = dyn.sample_ball_point(rng, 3, radius * math.sqrt(3))
        add_defect = abs((f + g)(p) - (f(p) + g(p)))
        worst_ratio = max(worst_ratio, add_defect / 1e-12)
        bound = 10.0 * max(f.l1_norm() * g.l1_norm(), 1.0) * radius ** (order + 1)
        mul_defect = abs((f * g)(p) - f(p) * g(p))
        worst_ratio = max(worst_ratio, mul_defect / bound)
        f0 = f - Jet.constant(3, order, f.coefficient((0, 0, 0)))
        exp_defect = abs(f0.exp()(p) - np.exp(f0(p)))
        exp_bound = 10.0 * math.exp(f0.l1_norm()) * max(f0.l1_norm(), 1.0) ** (order + 1) * radius ** (order + 1)
        worst_ratio = max(worst_ratio, exp_defect / exp_bound)
    report.add("jets.eval_compatibility", worst_ratio <= 1.0, defect=worst_ratio,
               tolerance=1.0, note="defect / analytic truncation bound")

    worst = 0.0
    for _ in range(20):
        d = rng.randint(2, 4)
        comps = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                while True:
                    e = tuple(rng.randint(0, d) for _ in range(3))
                    if sum(e) == d:
                        break
                terms[e] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            comps.append(Jet(3, d, terms))
        part = JetMap(comps)
        jac = part.jacobian()
        v = dyn.sample_ball_point(rng, 3, 1.0)
        dp_v = np.array([[jac[i][j](v) for j in range(3)] for i in range(3)], dtype=complex)
        lhs = dp_v @ np.array(v)
        rhs = d * np.array(part(v))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report.add("jets.euler_identity", worst <= 1e-10, defect=worst, tolerance=1e-10)


def _check_maps(report: Report, params: Params, word: MapWord, rng: random.Random) -> None:
    form = verify_form_eq1(word.jet(8), params)
    defect = max((c.defect for c in form.checks if c.defect is not None), default=0.0)
    failed = [c.name for c in form.checks if not c.ok]
    report.add("maps.normal_form", form.passed, defect=defect,
               note="all five form checks pass" if form.passed else f"failed: {failed}")

    inverse = word.inverse()
    jet_defect = inverse.then(word).jet(6).minus_identity().max_abs_diff(
        JetMap([Jet(3, 6, {}) for _ in range(3)])
    )
    num_defect = 0.0
    for _ in range(100):
        p = dyn.sample_ball_point(rng, 3, 0.5)
        q = inverse(word(p))
        num_defect = max(num_defect, max(abs(a - b) for a, b in zip(p, q)))
    worst = max(jet_defect, num_defect)
    report.add("maps.automorphism_inverse", worst <= 1e-12, defect=worst, tolerance=1e-12,
               note="jet at order 6 and 100 sampled points")

    semi = dyn.check_semiconjugacy(word, samples=100, radius=0.5, rng=rng)
    pw = semi["pointwise"]
    report.add("maps.semiconjugacy_pointwise", pw.ok, defect=pw.defect, tolerance=pw.tolerance)

    equi = dyn.check_equivariance(word, samples=50, rng=rng, status_samples=0)
    alg = equi["algebraic"]
    report.add("maps.equivariance", alg.ok, defect=alg.defect, tolerance=alg.tolerance)

    # one exponential round trip e^x * e^-x leaves roundoff of a few ulps
    worst = 0.0
    for _ in range(20):
        z, w = dyn.sample_disk(rng, 0.5), dyn.sample_disk(rng, 0.5)
        for p in ((z, 0j, w), (0j, z, w)):
            worst = max(worst, max(abs(a - b) for a, b in zip(word(p), p)))
    report.add("maps.fixed_planes", worst <= 1e-15, defect=worst, tolerance=1e-15,
               note="planes z=0 and t=0 are fixed pointwise")

    if params.a == params.b:
        fj = word.jet(8)
        z = Jet.variable(3, 8, 0)
        t = Jet.variable(3, 8, 1)
        sym_defect = (t * fj.components[0]).max_abs_diff(z * fj.components[1])
        report.add("maps.symmetry_tF1_zF2", sym_defect <= 1e-12, defect=sym_defect,
                   tolerance=1e-12, note="t*F1 = z*F2 coefficientwise at order 8")
    else:
        report.add("maps.symmetry_tF1_zF2", True, status=SKIP,
                   note="regime not satisfied: a != b, identity not claimed")

    # orbit-level semi-conjugacy lives with the dynamics checks
    orb = semi["orbit_level"]
    report.add("dynamics.semiconjugacy_orbit", orb.ok, defect=orb.defect, tolerance=orb.tolerance,
               note=orb.note)


def _check_directions(report: Report, params: Params, word: MapWord, rng: random.Random) -> None:
    lt_f = dirs_mod.leading_term(word.jet(6))
    found_f = dirs_mod.characteristic_directions(lt_f, names=("z", "t", "w"))
    g_jet = push_forward(word.jet(8))
    lt_g = dirs_mod.leading_term(g_jet)
    found_g = dirs_mod.characteristic_directions(lt_g, names=("zeta", "w"))

    worst = max(d.residual for d in found_f + found_g)
    report.add("directions.residuals", worst <= 1e-8, defect=worst, tolerance=1e-8,
               note=f"{len(found_f)} directions for the 3D word, {len(found_g)} for the planar map")

    nd_g = [d for d in found_g if not d.degenerate and d.family_dim == 0]
    worst = 0.0
    if nd_g:
        base = nd_g[0]
        for _ in range(10):
            phase = np.exp(2j * math.pi * rng.random())
            v = tuple(phase * x for x in base.v)
            lam = complex(np.vdot(np.array(v), np.array(lt_g.part(v))))
            worst = max(worst, abs(lam - base.lam * phase ** (lt_g.degree - 1)))
            moved = dirs_mod.CharacteristicDirection(
                v=v, lam=lam, degenerate=False, directors=(), residual=0.0)
            recomputed = dirs_mod.directors(lt_g, moved)
            worst = max(worst, max(abs(a - b) for a, b in zip(recomputed, base.directors)))
    report.add("directions.scaling_covariance", worst <= 1e-8, defect=worst, tolerance=1e-8,
               note="lambda scales by phase^(r-1), directors unchanged")

    worst = 0.0
    for lt, found in ((lt_f, found_f), (lt_g, found_g)):
        for d in found:
            if d.degenerate:
                continue
            jac = lt.part.jacobian()
            k = lt.part.k
            dp_v = np.array([[jac[i][j](d.v) for j in range(k)] for i in range(k)], dtype=complex)
            defect = float(np.max(np.abs(dp_v @ np.array(d.v) - lt.degree * d.lam * np.array(d.v))))
            worst = max(worst, defect)
    report.add("directions.euler", worst <= 1e-8, defect=worst, tolerance=1e-8,
               note="DP(v) v = r lambda v on every non-degenerate direction")

    torus = [d for d in found_f if not d.degenerate and d.family_dim >= 1]
    worst = 0.0
    checked = 0
    for d in torus:
        big = [i for i in range(3) if abs(d.v[i]) > 0.3]
        if len(big) >= 2:
            e1 = dirs_mod.directors_in_chart(lt_f, d, big[0])
            e2 = dirs_mod.directors_in_chart(lt_f, d, big[1])
            worst = max(worst, max(abs(a - b) for a, b in zip(e1, e2)))
            checked += 1
    report.add("directions.chart_independence", worst <= 1e-8, defect=worst, tolerance=1e-8,
               note=f"{checked} direction(s) compared in two charts")

    director_value = (params.c - 2 * params.a) / (2 * params.a)
    if params.in_chosen_regime:
        report.add("directions.regime_advisory", True,
                   note=f"chosen regime holds; planar director (c-2a)/(2a) = {director_value:g} > 0")
    else:
        report.add("directions.regime_advisory", True, status=WARN,
                   note=f"outside chosen regime (need a=b>0, c>2a); director (c-2a)/(2a) = {director_value:g} "
                        "is not strictly positive" if director_value <= 0 else
                        f"outside chosen regime (need a=b>0, c>2a); director (c-2a)/(2a) = {director_value:g}")

    extras = [d for d in found_f if not d.degenerate]
    if extras:
        tags = sorted({d.family_tag or "isolated" for d in extras})
        report.notes.append(
            "non-degenerate characteristic directions exist beyond the degenerate "
            f"coordinate hyperplanes: {tags}; see the directions report"
        )


def _check_dynamics(report: Report, params: Params, word: MapWord, rng: random.Random) -> None:
    proto = Prototype("quadratic_1d", 1.0)
    statuses = set()
    for p0 in (-0.1, 0.5, 1.5, -1.5, 0.2j):
        orbit = dyn.iterate(proto, (complex(p0),), dyn.OrbitConfig(max_iter=3000, record_stride=100))
        statuses.add(orbit.status.kind)
    trichotomy = statuses <= {dyn.CONVERGED, dyn.ESCAPED, dyn.UNDECIDED}
    report.add("dynamics.status_trichotomy", trichotomy,
               note=f"observed statuses {sorted(statuses)}")

    fiber = dyn.check_fiber_invariance(word, samples=10, rng=rng)
    ok = fiber.passed
    defect = max(c.defect for c in fiber.checks if c.defect is not None)
    report.add("dynamics.fiber_invariance", ok, defect=defect, tolerance=1e-10,
               note="; ".join(c.note for c in fiber.checks if c.note))

    if params.a + params.b > 0:
        rate = dyn.petal_rate(word, zeta0=0.01, n_steps=10_000)
        target = 1.0 / (params.a + params.b)
        in_band = abs(rate["n_zeta"] - target) <= 0.15 * target
        shape_ok = rate["real"] and rate["positive"] and rate["strictly_decreasing"]
        report.add("dynamics.petal_rate", in_band and shape_ok,
                   defect=abs(rate["n_zeta"] - target),
                   note=f"n*zeta_n = {rate['n_zeta']:.4f} at n = {rate['n']}, target 1/(a+b) = {target:.4f}")
    else:
        report.add("dynamics.petal_rate", True, status=SKIP,
                   note="petal on the positive real axis needs a + b > 0")

    spec = dyn.SliceSpec(base=(0j,), dir1=(1 + 0j,), dir2=(1j,),
                         u_range=(-1.2, 0.4), v_range=(-0.8, 0.8), width=32, height=32)
    cfg = dyn.OrbitConfig(max_iter=1500, record_stride=2000)
    r1 = dyn.sample_slice(proto, spec, cfg, workers=1)
    r2 = dyn.sample_slice(proto, spec, cfg, workers=1)
    r3 = dyn.sample_slice(proto, spec, cfg, workers=2)
    same = (
        np.array_equal(r1.codes, r2.codes)
        and np.array_equal(r1.codes, r3.codes)
        and np.array_equal(r1.iterations, r3.iterations)
    )
    report.add("dynamics.raster_determinism", same,
               note="32x32 slice, repeated run and 1 vs 2 workers byte-identical")

    trace = dyn.check_trace_consistency(word, zeta0=0.01, steps=1500)
    proj = trace["projected_orbit"]
    report.add("dynamics.trace_1d3d", proj.ok, defect=proj.defect, tolerance=proj.tolerance,
               note=proj.note)
    frozen = trace["frozen_w_model"]
    report.add("dynamics.trace_1d3d_frozen_model", True, status=WARN, defect=frozen.defect,
               note=frozen.note)
    report.notes.extend(trace.notes)

    proj_statuses = dyn.check_projection_statuses(word, samples=20, rng=rng)
    ok = proj_statuses.passed
    agg = "; ".join(c.note for c in proj_statuses.checks if c.note)
    report.add("dynamics.projection_statuses", ok,
               defect=max((c.defect for c in proj_statuses.checks if c.defect is not None), default=0.0),
               note=agg)

    recursion = dyn.check_product_recursion(samples=50, rng=rng)
    rec = recursion["recursion"]
    report.add("dynamics.product_recursion", recursion.passed, defect=rec.defect,
               tolerance=rec.tolerance, note=rec.note)


def run_verify_suite(params: Params, seed: int = 0) -> Report:
    """The full canonical verification suite for the three-dimensional word."""
    rng = random.Random(seed)
    word = build_F(params)
    report = Report(title=f"verification suite, (a, b, c) = ({params.a:g}, {params.b:g}, {params.c:g}), seed {seed}")
    report.notes.append(
        "convention: zeta denotes the product z*t throughout, matching the projection "
        "(z, t, w) -> (z*t, w); readings based on z*w are not equivalent and are not used"
    )
    _check_jets(report, rng)
    _check_maps(report, params, word, rng)
    _check_directions(report, params, word, rng)
    _check_dynamics(report, params, word, rng)

    order = [c.name for c in report.checks]
    canonical = [n for n in order if n in VERIFY_CHECK_NAMES]
    missing = [n for n in VERIFY_CHECK_NAMES if n not in canonical]
    if missing or len(canonical) != len(set(canonical)):
        raise RuntimeError(f"verification suite incomplete or duplicated: missing {missing}")
    return report


# ----------------------------------------------------------------------
# config plumbing


def _apply_config_file(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Override the flags with a JSON object whose keys are options of the
    command; a map spec (``family`` names the map) may stand at the top
    level or under ``map``.  Each value passes through its option's type
    (str if it has none), and a list is accepted only by an option that
    takes several values, with as many items as the option takes.  Any
    other key, value or top level is invalid."""
    if not getattr(ns, "config", None):
        return
    with open(ns.config) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config file {ns.config}: the top level must be a JSON object")
    if isinstance(data.get("map"), dict):  # nested map spec; top-level keys win
        data = {**data.pop("map"), **data}
    if "family" in data:  # map spec at the top level
        data = {"map": data["family"], **{k: v for k, v in data.items() if k != "family"}}
    command = parser._subparsers._group_actions[0].choices[ns.command]
    options = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in data.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config file {ns.config}: {key!r} is not an option of {ns.command}")
        values = value if isinstance(value, list) and action.nargs else [value]
        try:
            if any(isinstance(v, (list, dict)) for v in values) or action.nargs not in (None, "+", len(values)):
                raise TypeError
            typed = [(action.type or str)(v) for v in values]
        except (TypeError, ValueError):
            raise ValueError(f"config file {ns.config}: {value!r} is not a valid value of {key!r}") from None
        setattr(ns, action.dest, typed if values is value else typed[0])


def _build_evaluator(ns, family: str | None = None):
    """The map of the flags (of ``family`` if given); unset flags take the
    defaults of ``map_from_spec``."""
    spec = {key: getattr(ns, key) for key in ("a", "b", "c", "k") if getattr(ns, key) is not None}
    return map_from_spec({"family": family or ns.map, **spec})


def _params(word: MapWord) -> Params:
    """(a, b, c) of a three-dimensional word, read off its twist factor."""
    twist = word.factors[0]
    return Params(*twist.weights, twist.w_coeff)


def _names(ns, dim: int) -> tuple[str, ...]:
    return _VAR_NAMES.get(ns.map) or (*(f"z{i + 1}" for i in range(dim - 1)), "w")


def _build_jet(ns, order: int):
    evaluator = _build_evaluator(ns)
    return evaluator.jet(order), _names(ns, evaluator.dim)


def _write_json(ns, payload: dict) -> None:
    if getattr(ns, "json_out", None):
        with open(ns.json_out, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")


# ----------------------------------------------------------------------
# commands


def cmd_expand(ns) -> int:
    order = ns.order if ns.order is not None else 3
    jet_map, names = _build_jet(ns, order)
    print(f"map {ns.map}, truncation order {order}")
    for i, comp in enumerate(jet_map.components):
        label = f"F{i + 1}({', '.join(names)})"
        print(f"  {label} = {format_jet(comp, names)}")
    _write_json(ns, jet_map.to_dict())
    return 0


def cmd_verify(ns) -> int:
    report = run_verify_suite(_params(_build_evaluator(ns, "F3")), seed=ns.seed)
    print(report.to_text())
    _write_json(ns, report.to_dict())
    return 0 if report.passed else 1


def cmd_directions(ns) -> int:
    order = ns.order if ns.order is not None else DEFAULT_ORDER
    jet_map, names = _build_jet(ns, order)
    lt = dirs_mod.leading_term(jet_map)
    found = dirs_mod.characteristic_directions(lt, names=names)
    print(f"map {ns.map}: leading degree r = {lt.degree}")
    for d in found:
        cls = dirs_mod.classify(d)
        rep = ", ".join(f"{x:.6g}" for x in d.v)
        line = f"  [{rep}]  lambda={d.lam:.6g}  {cls.kind}"
        if d.directors:
            line += "  directors=" + ", ".join(f"{x:.6g}" for x in d.directors)
        if d.family_tag:
            line += f"  family={d.family_tag} (dim {d.family_dim})"
        print(line)
    cone_dim = dirs_mod.characteristic_set_dimension(found)
    print(f"characteristic set: cone dimension {cone_dim}")

    warnings: list[str] = []
    if ns.map in ("F3", "FAMILY_K"):
        hyper = {d.family_tag for d in found if d.degenerate and d.family_tag}
        expected = {f"hyperplane {nm}=0" for nm in names[:-1]}
        if not expected <= hyper:
            warnings.append(f"expected degenerate hyperplane families {sorted(expected)} not all found")
        extras = [d for d in found if not d.degenerate]
        if extras:
            warnings.append(
                "directions beyond the degenerate coordinate hyperplanes: "
                + ", ".join(sorted({d.family_tag or "isolated" for d in extras}))
            )
    elif ns.map == "G":
        params = _params(_build_evaluator(ns, "F3"))
        expected_dir = (params.c - 2 * params.a) / (2 * params.a)
        isolated = [d for d in found if not d.degenerate and d.family_dim == 0]
        hit = [
            d for d in isolated
            if abs(abs(d.v[0]) - 1) < 1e-8 and d.directors and abs(d.directors[0] - expected_dir) < 1e-8
        ]
        if not hit:
            warnings.append(f"expected the isolated direction [1:0] with director {expected_dir:g}")
        if len([d for d in found if not d.degenerate]) > len(hit):
            warnings.append("additional non-degenerate directions present")
    for w in warnings:
        print(f"WARN  {w}")
    _write_json(ns, {
        "map": ns.map,
        "degree": lt.degree,
        "cone_dimension": cone_dim,
        "directions": [d.to_dict() for d in found],
        "warnings": warnings,
    })
    return 0


def _coords(text: str) -> tuple[complex, ...]:
    return tuple(complex(s) for s in text.split(","))


def cmd_orbit(ns) -> int:
    evaluator = _build_evaluator(ns)
    start = _coords(ns.start)
    if not all(map(cmath.isfinite, start)):
        raise DomainError("orbit start coordinates must be finite")
    if len(start) != evaluator.dim:
        raise DimensionError(f"start point has {len(start)} coordinates, map needs {evaluator.dim}")
    cfg = dyn.OrbitConfig(ns.max_iter, ns.eps, ns.escape, ns.stride)
    orbit = dyn.iterate(evaluator, start, cfg)
    print(f"status: {orbit.status}")
    if orbit.status.note:
        print(f"note: {orbit.status.note}")
    print(f"final norm: {orbit.final_norm:.6e} after index {orbit.indices[-1]}")
    if orbit.zeta_trace is not None and orbit.indices[-1] > 0:
        n_last = orbit.indices[-1]
        print(f"n*zeta_n estimate: {n_last * orbit.zeta_trace[-1].real:.4f} (n = {n_last})")
    try:
        tangent, stable = dyn.estimate_tangent(orbit)
        rep = ", ".join(f"{x:.4g}" for x in tangent)
        print(f"tangent direction: [{rep}] ({'stable' if stable else 'not stable'})")
    except dyn.InsufficientDataError:
        print("tangent direction: insufficient data")
    if ns.out:
        dyn.write_orbit_csv(orbit, ns.out)
        print(f"orbit written to {ns.out}")
    return 0


def cmd_basin(ns) -> int:
    evaluator = _build_evaluator(ns)
    umin, umax, vmin, vmax = ns.slice
    width, height = ns.res
    if ns.lift == "none":
        dim = evaluator.dim
        base = _coords(ns.base) if ns.base else (0j,) * dim
        dir1 = _coords(ns.dir1) if ns.dir1 else (1 + 0j,) + (0j,) * (dim - 1)
        dir2 = _coords(ns.dir2) if ns.dir2 else (1j,) + (0j,) * (dim - 1)
        spec = dyn.SliceSpec(base=base, dir1=dir1, dir2=dir2,
                             u_range=(umin, umax), v_range=(vmin, vmax),
                             width=width, height=height)
        # the map is the identity where one of these coordinates vanishes
        fixed = range(dim - 1) if isinstance(evaluator, MapWord) else {"G": [0], "PROTO_2D": [0, 1]}.get(ns.map, [])
        flat = [f"{_names(ns, dim)[i]}=0" for i in fixed if base[i] == dir1[i] == dir2[i] == 0]
        if flat:
            raise DomainError(f"the slice lies in {{{' and '.join(flat)}}}, which the map fixes pointwise")
    else:
        if not (ns.map == "PROTO_2D" or isinstance(evaluator, MapWord) and evaluator.dim == 3):
            raise DimensionError("lift rendering needs the 2D prototype or the 3D word")
        filler = (0j,) * evaluator.dim
        spec = dyn.SliceSpec(base=filler, dir1=filler, dir2=filler,
                             u_range=(umin, umax), v_range=(vmin, vmax),
                             width=width, height=height,
                             lift=ns.lift, w_fix=complex(ns.w_fix or 0.0))
    cfg = dyn.OrbitConfig(ns.max_iter, ns.eps, ns.escape, ns.stride)
    raster = dyn.sample_slice(evaluator, spec, cfg, workers=ns.workers)
    dyn.write_pgm(raster, ns.out)
    sidecar = dyn.raster_sidecar(raster, spec, cfg)
    with open(ns.out + ".json", "w") as handle:
        json.dump(sidecar, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"raster {width}x{height} written to {ns.out}; counts {raster.counts()}")
    return 0


def cmd_family(ns) -> int:
    word = _build_evaluator(ns, "FAMILY_K")
    weights, w_coeff = list(word.factors[0].weights), word.factors[0].w_coeff
    k = len(weights)
    order = ns.order if ns.order is not None else DEFAULT_ORDER
    report = verify_normal_form(word.jet(order), weights, w_coeff, note_literal_remainder=True)

    rng = random.Random(ns.seed)
    inverse = word.inverse()
    worst = 0.0
    for _ in range(50):
        p = dyn.sample_ball_point(rng, k + 1, 0.5)
        q = inverse(word(p))
        worst = max(worst, max(abs(a - b) for a, b in zip(p, q)))
    report.add("automorphism_inverse", worst <= 1e-12, defect=worst, tolerance=1e-12,
               note="50 sampled round trips")
    if family_in_regime(weights, w_coeff):
        report.notes.append("chosen regime holds: equal positive weights, w-coefficient above their sum")
    else:
        report.notes.append("outside the chosen regime (weights unequal or w-coefficient too small)")
    print(f"family word in C^{k + 1}, weights {weights}, w-coefficient {w_coeff:g}, order {order}")
    print(report.to_text())
    _write_json(ns, report.to_dict())
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file overriding the flags")
    parser.add_argument("--map", choices=MAP_CHOICES, default="F3")
    parser.add_argument("--a", type=float, nargs="+", default=None,
                        help="shear weight(s); repeat for the family")
    parser.add_argument("--b", type=float, default=None)
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default=None)


def _add_orbit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=int, default=100_000)
    parser.add_argument("--eps", type=float, default=1e-3)
    parser.add_argument("--escape", type=float, default=10.0)
    parser.add_argument("--stride", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shearbasins", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print a truncated expansion")
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="run the full verification suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("directions", help="characteristic directions and directors")
    _add_common(p)
    p.set_defaults(func=cmd_directions)

    p = sub.add_parser("orbit", help="iterate one orbit and dump it as CSV")
    _add_common(p)
    p.add_argument("--start", default="0.1,0.1,0.05", help="comma-separated complex coordinates")
    _add_orbit_options(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("basin", help="rasterize a basin slice to PGM")
    _add_common(p)
    p.add_argument("--slice", type=float, nargs=4, default=(-1.5, 0.5, -1.0, 1.0),
                   metavar=("UMIN", "UMAX", "VMIN", "VMAX"))
    p.add_argument("--res", type=int, nargs=2, default=(200, 200), metavar=("W", "H"))
    p.add_argument("--base", default=None)
    p.add_argument("--dir1", default=None)
    p.add_argument("--dir2", default=None)
    p.add_argument("--lift", choices=("none", "pos", "neg"), default="none",
                   help="render through the square-root lift of the pixel value")
    p.add_argument("--w-fix", type=float, default=None)
    _add_orbit_options(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="basin.pgm")
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("family", help="build and verify the C^{k+1} family word")
    _add_common(p)
    p.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _apply_config_file(ns, parser)
        return ns.func(ns)
    except SystemExit as exc:  # argparse uses 2 for bad usage already
        return int(exc.code or 0)
    except (DomainError, DimensionError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())
