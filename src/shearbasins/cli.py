"""Command-line surface: expansion printing, verification, direction reports,
orbit dumps and basin rasters.

Every verify row states a claim that can fail about the verified word,
its projected map or a prototype; a fact that holds unconditionally, such
as whether the parameters lie in the chosen regime, is a note of the report.
A check that returns a report of several rows contributes each of them as
it stands, named after the check
(``dynamics.projection_statuses.attracting_side``).
Exit codes: 0 all good, 1 a verification check failed, 2 invalid input.
All randomized checks draw from one generator seeded by --seed, so every
report, CSV and raster is byte-reproducible for a fixed configuration.
A JSON file passed through --config overrides the command-line flags.
"""

from __future__ import annotations

import argparse
import cmath
import json
import random
import sys

from . import directions as dirs_mod
from . import dynamics as dyn
from .jets import DEFAULT_ORDER, DimensionError, DomainError, Jet, JetMap, format_jet
from .maps import (
    MapWord,
    SemiConjugacyError,
    family_in_regime,
    map_from_spec,
    planar_word,
    verify_normal_form,
)
from .report import SKIP, Report

MAP_CHOICES = ("F3", "G", "PROTO_1D", "PROTO_2D", "FAMILY_K")

# every row of verify, in order; a check's sub-report rows appear under its prefix
VERIFY_CHECK_NAMES = (
    "maps.normal_form.coeff_F1",
    "maps.normal_form.coeff_F2",
    "maps.normal_form.coeff_Fw",
    "maps.normal_form.ideal_Fz",
    "maps.normal_form.ideal_Fw",
    "maps.automorphism_inverse",
    "maps.semiconjugacy.pointwise",
    "maps.semiconjugacy.jet",
    "maps.equivariance.algebraic",
    "maps.fixed_planes",
    "maps.symmetry_tF1_zF2",
    "directions.residuals",
    "dynamics.fiber_invariance.zeta_trace",
    "dynamics.fiber_invariance.status",
    "dynamics.petal_rate",
    "dynamics.trace_1d3d.projected_orbit",
    "dynamics.projection_statuses.status_agreement",
    "dynamics.projection_statuses.attracting_side",
    "dynamics.projection_statuses.repelling_side",
    "dynamics.projection_statuses.both_classes_observed",
    "dynamics.projection_statuses.fixed_line",
    "dynamics.product_recursion.recursion",
    "dynamics.product_recursion.axis_preserved",
)

_VAR_NAMES = {
    "F3": ("z", "t", "w"),
    "G": ("zeta", "w"),
    "PROTO_1D": ("z",),
    "PROTO_2D": ("z", "w"),
}


# ----------------------------------------------------------------------
# verification suite


def _round_trip_defect(word: MapWord, rng: random.Random, samples: int) -> float:
    """max |inverse(word(p)) - p| over ``samples`` points p of the ball of radius 0.5."""
    inverse = word.inverse()
    worst = 0.0
    for _ in range(samples):
        p = dyn.sample_ball_point(rng, word.dim, 0.5)
        worst = max(worst, max(abs(x - y) for x, y in zip(p, inverse(word(p)))))
    return worst


def _check_maps(report: Report, word: MapWord, rng: random.Random) -> None:
    a, b = word.factors[0].weights
    jet = word.jet(8)
    report.extend("maps.normal_form", verify_normal_form(jet, (a, b), word.factors[0].w_coeff))

    jet_defect = word.inverse().then(word).jet(6).minus_identity().max_abs_diff(
        JetMap([Jet(3, 6, {}) for _ in range(3)])
    )
    worst = max(jet_defect, _round_trip_defect(word, rng, 100))
    report.add("maps.automorphism_inverse", worst <= 1e-12, defect=worst, tolerance=1e-12,
               note="jet at order 6 and 100 sampled points")

    report.extend("maps.semiconjugacy", dyn.check_semiconjugacy(word, rng=rng))
    report.extend("maps.equivariance", dyn.check_equivariance(word, rng=rng))

    # one exponential round trip e^x * e^-x leaves roundoff of a few ulps
    worst = 0.0
    for _ in range(20):
        z, w = dyn.sample_disk(rng, 0.5), dyn.sample_disk(rng, 0.5)
        for p in ((z, 0j, w), (0j, z, w)):
            worst = max(worst, max(abs(a - b) for a, b in zip(word(p), p)))
    report.add("maps.fixed_planes", worst <= 1e-15, defect=worst, tolerance=1e-15,
               note="planes z=0 and t=0 are fixed pointwise")

    if a == b:
        z = Jet.variable(3, 8, 0)
        t = Jet.variable(3, 8, 1)
        sym_defect = (t * jet.components[0]).max_abs_diff(z * jet.components[1])
        report.add("maps.symmetry_tF1_zF2", sym_defect <= 1e-12, defect=sym_defect,
                   tolerance=1e-12, note="t*F1 = z*F2 coefficientwise at order 8")
    else:
        report.add("maps.symmetry_tF1_zF2", True, status=SKIP,
                   note="regime not satisfied: a != b, identity not claimed")


def _check_directions(report: Report, word: MapWord) -> None:
    (a, b), c = word.factors[0].weights, word.factors[0].w_coeff
    lt_f = dirs_mod.leading_term(word.jet(6))
    found_f = dirs_mod.characteristic_directions(lt_f, names=("z", "t", "w"))
    lt_g = dirs_mod.leading_term(planar_word(word).jet(4))
    found_g = dirs_mod.characteristic_directions(lt_g, names=("zeta", "w"))

    worst = max(d.residual for d in found_f + found_g)
    report.add("directions.residuals", worst <= 1e-8, defect=worst, tolerance=1e-8,
               note=f"{len(found_f)} directions for the 3D word, {len(found_g)} for the planar map")

    value = _axis_director(found_g)
    director = ("none, as [1:0] is degenerate at a+b = 0" if value is None
                else f"{'(c-2a)/(2a)' if a == b else '(c-a-b)/(a+b)'} = {value:g}")
    if family_in_regime((a, b), c):
        report.notes.append(f"chosen regime holds; planar director {director} > 0")
    else:
        report.notes.append(f"outside chosen regime (need a=b>0, c>2a); director {director}"
                            + (" is not strictly positive" if value is not None and value <= 0 else ""))

    tags = _tags_beyond_hyperplanes(found_f)
    if tags:
        report.notes.append(
            "non-degenerate characteristic directions exist beyond the degenerate "
            f"coordinate hyperplanes: {tags}; see the directions report"
        )


def _check_dynamics(report: Report, word: MapWord, rng: random.Random) -> None:
    """The orbit checks' jobs, built in row order (so the samples are drawn in
    that order), run in one ``dyn.run_orbit_jobs`` call, which gives the
    checks' results in the same order."""
    _, no_petal, no_w_decay, _ = dyn.petal_premises(word)
    skip_petal = no_petal or no_w_decay
    checks = [dyn.fiber_invariance_jobs(word, samples=10, rng=rng)]
    checks += [] if skip_petal else [dyn.petal_rate_jobs(word, zeta0=0.01, n_steps=10_000)]
    checks += [dyn.trace_consistency_jobs(word), dyn.projection_status_jobs(word, samples=20, rng=rng),
               dyn.product_recursion_jobs(samples=50, rng=rng)]
    results = dyn.run_orbit_jobs(checks)

    report.extend("dynamics.fiber_invariance", next(results))
    if skip_petal:
        report.add("dynamics.petal_rate", True, status=SKIP, note=skip_petal)
    else:
        rate = next(results)
        target = 1.0 / sum(word.factors[0].weights)
        in_band = abs(rate["n_zeta"] - target) <= 0.15 * abs(target)
        shape_ok = rate["real"] and rate["positive"] and rate["strictly_decreasing"]
        report.add("dynamics.petal_rate", in_band and shape_ok,
                   defect=abs(rate["n_zeta"] - target),
                   note=f"n*zeta_n = {rate['n_zeta']:.4f} at n = {rate['n']}, target 1/(a+b) = {target:.4f}")

    report.extend("dynamics.trace_1d3d", next(results))
    report.extend("dynamics.projection_statuses", next(results))
    report.extend("dynamics.product_recursion", next(results))


def run_verify_suite(word: MapWord, seed: int = 0) -> Report:
    """The full canonical verification suite for the three-dimensional word.

    A broken word is reported, not raised: where the maps, directions or
    dynamics section raises ``UnsupportedDimensionError`` or
    ``SemiConjugacyError``, each of its rows not yet added fails with the
    error as its note.  ``DomainError`` still raises: a jet that overflows
    is invalid input (exit 2).  The dynamics section runs every orbit job
    of its checks in one ``dynamics._fork_map`` call; a job's error is
    raised at its own check, so the rows of the checks before it stand.
    """
    rng = random.Random(seed)
    (a, b), c = word.factors[0].weights, word.factors[0].w_coeff
    report = Report(title=f"verification suite, (a, b, c) = ({a!r}, {b!r}, {c!r}), seed {seed}")
    report.notes.append(
        "convention: zeta denotes the product z*t throughout, matching the projection "
        "(z, t, w) -> (z*t, w); readings based on z*w are not equivalent and are not used"
    )
    sections = (("maps.", lambda: _check_maps(report, word, rng)),
                ("directions.", lambda: _check_directions(report, word)),
                ("dynamics.", lambda: _check_dynamics(report, word, rng)))
    for prefix, check in sections:
        try:
            check()
        except (dirs_mod.UnsupportedDimensionError, SemiConjugacyError) as exc:
            for name in VERIFY_CHECK_NAMES[len(report.checks):]:
                if name.startswith(prefix):
                    report.add(name, False, note=f"not computed: {type(exc).__name__}: {exc}")

    names = tuple(c.name for c in report.checks)
    if names != VERIFY_CHECK_NAMES:
        raise RuntimeError(f"verification rows {names} differ from VERIFY_CHECK_NAMES")
    return report


# ----------------------------------------------------------------------
# config plumbing


def _apply_config_file(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Override the flags with a JSON object whose keys are options of the
    command; a map spec (``family`` names the map) may stand at the top
    level or under ``map``.  Each value passes through its option's type
    (str if it has none) as a flag's text: a string as it is, any other
    value as its JSON text, so ``true`` or 6.7 is no int.  A list is
    accepted only by an option that takes several values, with as many
    items as the option takes.  Any other key, value or top level is
    invalid."""
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
            typed = [(action.type or str)(v if isinstance(v, str) else json.dumps(v)) for v in values]
        except (TypeError, ValueError):
            raise ValueError(f"config file {ns.config}: {value!r} is not a valid value of {key!r}") from None
        setattr(ns, action.dest, typed if values is value else typed[0])


def _build_evaluator(ns, family: str | None = None):
    """The map of the flags (of ``family`` if given); unset flags take the
    defaults of ``map_from_spec``."""
    spec = {key: getattr(ns, key) for key in ("a", "b", "c", "k") if getattr(ns, key, None) is not None}
    return map_from_spec({"family": family or ns.map, **spec})


def _axis_director(found) -> float | None:
    """The director of the planar direction [1:0], (c - a - b)/(a + b) for G, read
    off its record; None where [1:0] is degenerate (a + b = 0) and has no director.
    Every characteristic set in two variables holds [1:0], as a direction of its
    own or as the degenerate hyperplane {w = 0}."""
    axis = next(d for d in found if d.v == (1, 0))
    return None if axis.degenerate else axis.directors[0].real


def _tags_beyond_hyperplanes(found) -> list[str]:
    """Sorted family tags ("isolated" if none) of the non-degenerate directions,
    which lie beyond the degenerate coordinate hyperplanes."""
    return sorted({d.family_tag or "isolated" for d in found if not d.degenerate})


def _names(ns, dim: int) -> tuple[str, ...]:
    return _VAR_NAMES.get(ns.map) or (*(f"z{i + 1}" for i in range(dim - 1)), "w")


def _write_json(ns, payload: dict) -> None:
    if getattr(ns, "json_out", None):
        with open(ns.json_out, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")


# ----------------------------------------------------------------------
# commands


def cmd_expand(ns) -> int:
    order = ns.order if ns.order is not None else 3
    evaluator = _build_evaluator(ns)
    jet_map, names = evaluator.jet(order), _names(ns, evaluator.dim)
    print(f"map {ns.map}, truncation order {order}")
    for i, comp in enumerate(jet_map.components):
        label = f"F{i + 1}({', '.join(names)})"
        print(f"  {label} = {format_jet(comp, names)}")
    _write_json(ns, jet_map.to_dict())
    return 0


def cmd_verify(ns) -> int:
    report = run_verify_suite(_build_evaluator(ns, "F3"), seed=ns.seed)
    print(report.to_text())
    _write_json(ns, report.to_dict())
    return 0 if report.passed else 1


def cmd_directions(ns) -> int:
    order = ns.order if ns.order is not None else DEFAULT_ORDER
    evaluator = _build_evaluator(ns)
    jet_map, names = evaluator.jet(order), _names(ns, evaluator.dim)
    lt = dirs_mod.leading_term(jet_map)
    found = dirs_mod.characteristic_directions(lt, names=names)
    print(f"map {ns.map}: leading degree r = {lt.degree}")
    for d in found:
        rep = ", ".join(f"{x:.6g}" for x in d.v)
        line = f"  [{rep}]  lambda={d.lam:.6g}  {dirs_mod.classify(d)}"
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
        tags = _tags_beyond_hyperplanes(found)
        if tags:
            warnings.append("directions beyond the degenerate coordinate hyperplanes: " + ", ".join(tags))
    elif ns.map == "G":
        director = _axis_director(found)
        if director is None:
            warnings.append("a+b = 0: the direction [1:0] is degenerate and has no director")
        if len([d for d in found if not d.degenerate]) > (director is not None):
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
    if len(orbit.final_point) == 3 and orbit.indices[-1] > 0:
        n_last, (z, t, _) = orbit.indices[-1], orbit.final_point
        print(f"n*zeta_n estimate: {n_last * (z * t).real:.4f} (n = {n_last})")
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
    unused = [f for f in (("w_fix",) if ns.lift == "none" else ("base", "dir1", "dir2")) if getattr(ns, f) is not None]
    if unused:
        raise ValueError(f"--{unused[0].replace('_', '-')} is not used with --lift {ns.lift}")
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
        fixed = range(dim - 1) if isinstance(evaluator, MapWord) else [0, 1] if ns.map == "PROTO_2D" else []
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
    cfg = dyn.OrbitConfig(ns.max_iter, ns.eps, ns.escape)
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

    worst = _round_trip_defect(word, random.Random(ns.seed), 50)
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


# the options a command may take besides --config and its own
_COMMON = {"map": {"choices": MAP_CHOICES, "default": "F3"},
           "a": {"type": float, "nargs": "+", "help": "shear weight(s); repeat for the family"},
           "b": {"type": float}, "c": {"type": float}, "k": {"type": int}, "order": {"type": int},
           "seed": {"type": int, "default": 0}, "json-out": {}}


def _command(sub, name: str, func, common: str, summary: str) -> argparse.ArgumentParser:
    """A subcommand with --config and the ``common`` options of ``_COMMON``."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.set_defaults(func=func)
    p.add_argument("--config", help="JSON file overriding the flags")
    for option in common.split():
        p.add_argument(f"--{option}", **_COMMON[option])
    return p


def _add_orbit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=int, default=100_000)
    parser.add_argument("--eps", type=float, default=1e-3)
    parser.add_argument("--escape", type=float, default=10.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shearbasins", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    jet_options = "map a b c k order json-out"
    _command(sub, "expand", cmd_expand, jet_options, "print a truncated expansion")
    _command(sub, "verify", cmd_verify, "a b c seed json-out", "run the full verification suite")
    _command(sub, "directions", cmd_directions, jet_options, "characteristic directions and directors")

    p = _command(sub, "orbit", cmd_orbit, "map a b c k", "iterate one orbit and dump it as CSV")
    p.add_argument("--start", default="0.1,0.1,0.05", help="comma-separated complex coordinates")
    _add_orbit_options(p)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out")

    p = _command(sub, "basin", cmd_basin, "map a b c k", "rasterize a basin slice to PGM")
    p.add_argument("--slice", type=float, nargs=4, default=(-1.5, 0.5, -1.0, 1.0),
                   metavar=("UMIN", "UMAX", "VMIN", "VMAX"))
    p.add_argument("--res", type=int, nargs=2, default=(200, 200), metavar=("W", "H"))
    p.add_argument("--base")
    p.add_argument("--dir1")
    p.add_argument("--dir2")
    p.add_argument("--lift", choices=("none", "pos", "neg"), default="none",
                   help="render through the square-root lift of the pixel value")
    p.add_argument("--w-fix", type=float)
    _add_orbit_options(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="basin.pgm")

    _command(sub, "family", cmd_family, "a b k order seed json-out", "build and verify the C^{k+1} family word")
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
