"""Correctness checks on the files and exit codes a workload run produced.

Every check is a ``(name, ok, detail)`` triple; the benchmark counts the
failed ones against the ones attempted.  ``workload_checks`` looks at one
run's own outputs and ``raster_checks`` re-derives a raster's pixels; the
byte comparisons between runs live in ``run.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

from shearbasins import cli, dynamics
from shearbasins.maps import Params, Prototype, build_F

SAMPLE_PIXELS = 40
_PGM_CODE = {0: dynamics.CODE_ESCAPED, 255: dynamics.CODE_CONVERGED, 128: dynamics.CODE_UNDECIDED}


def check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def _load_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def _report_passes(path: Path) -> tuple[bool, str]:
    report = _load_json(path)
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    return report["passed"] and not failed, f"failed: {failed}" if failed else ""


def workload_checks(name: str, out_dir: Path, exit_codes: dict[str, int]) -> list:
    """Exit codes and the expected content of each command's outputs."""
    checks = [check(f"{label}.exit_code", rc == 0, f"exit code {rc}") for label, rc in exit_codes.items()]
    if name == "verify":
        ok, detail = _report_passes(out_dir / "verify.json")
        checks.append(check("verify.all_checks_pass", ok, detail))
        names = {c["name"] for c in _load_json(out_dir / "verify.json")["checks"]}
        missing = [n for n in cli.VERIFY_CHECK_NAMES if n not in names]
        checks.append(check("verify.canonical_checks_present", not missing, f"missing: {missing}"))
    elif name == "jets_family":
        ok, detail = _report_passes(out_dir / "family.json")
        checks.append(check("family.all_checks_pass", ok, detail))

        planar = _load_json(out_dir / "directions_g.json")
        found = [
            d for d in planar["directions"]
            if not d["degenerate"] and abs(abs(complex(*d["v"][0])) - 1) < 1e-8
            and abs(complex(*d["v"][1])) < 1e-8
            and d["directors"] and abs(complex(*d["directors"][0]) - 0.5) < 1e-8
        ]
        checks.append(check("directions_g.direction_1_0_director_0.5", len(found) == 1,
                            f"{len(found)} matching directions"))
        warn_lines = [ln for ln in (out_dir / "directions_g.out").read_text().splitlines() if ln.startswith("WARN")]
        checks.append(check("directions_g.no_warnings", not warn_lines and not planar["warnings"],
                            "; ".join(warn_lines)))

        family = _load_json(out_dir / "directions_fk.json")
        tags = {d["family_tag"] for d in family["directions"] if d["degenerate"]}
        expected = {f"hyperplane z{i}=0" for i in (1, 2, 3)}
        checks.append(check("directions_fk.hyperplane_families", expected <= tags, f"found {sorted(tags)}"))
    return checks


def raster_inputs(raster, seed: int):
    """The evaluator, slice and orbit settings ``shearbasins basin`` builds for this run."""
    evaluator = build_F(Params(1.0, 1.0, 3.0)) if raster.map_name == "F3" else Prototype("quadratic_1d", 1.0)
    dim = evaluator.dim
    kwargs = dict(u_range=raster.shifted_u_range(seed), v_range=raster.v_range,
                  width=raster.res[0], height=raster.res[1])
    if raster.lift == "none":
        spec = dynamics.SliceSpec(base=(0j,) * dim, dir1=(1 + 0j,) + (0j,) * (dim - 1),
                                  dir2=(1j,) + (0j,) * (dim - 1), **kwargs)
    else:
        spec = dynamics.SliceSpec(base=(0j,) * dim, dir1=(0j,) * dim, dir2=(0j,) * dim,
                                  lift=raster.lift, w_fix=0j, **kwargs)
    cfg = dynamics.OrbitConfig(max_iter=raster.max_iter, eps_converged=raster.eps)
    return evaluator, spec, cfg


def read_pgm(path: Path, width: int, height: int) -> np.ndarray | None:
    """Status codes of a P5 raster, or None when the file is not a valid raster of this size."""
    data = path.read_bytes()
    header = f"P5\n{width} {height}\n255\n".encode()
    body = np.frombuffer(data[len(header):], dtype=np.uint8)
    if not data.startswith(header) or body.size != width * height or not np.isin(body, list(_PGM_CODE)).all():
        return None
    codes = np.zeros(body.size, dtype=np.uint8)
    for byte, code in _PGM_CODE.items():
        codes[body == byte] = code
    return codes.reshape(height, width)


def raster_checks(raster, seed: int, out_dir: Path, iterations: np.ndarray, sample: bool) -> list:
    """The PGM and sidecar agree with the inputs, each other, the symmetry and the scalar engine.

    ``iterations`` is the decision-index array the run computed.  With
    ``sample``, a seeded sample of pixels is re-run through the scalar
    ``dynamics.iterate`` and must reproduce each pixel's code and index.
    """
    evaluator, spec, cfg = raster_inputs(raster, seed)
    codes = read_pgm(out_dir / "basin.pgm", spec.width, spec.height)
    checks = [check("basin.pgm_valid", codes is not None)]
    if codes is None:
        return checks
    sidecar = _load_json(out_dir / "basin.pgm.json")
    checks.append(check("basin.sidecar_inputs",
                        sidecar["slice"] == json.loads(json.dumps(spec.to_dict()))
                        and sidecar["config"] == cfg.to_dict()))
    counts = {"escaped": int((codes == dynamics.CODE_ESCAPED).sum()),
              "converged": int((codes == dynamics.CODE_CONVERGED).sum()),
              "undecided": int((codes == dynamics.CODE_UNDECIDED).sum())}
    checks.append(check("basin.sidecar_counts", sidecar["counts"] == counts,
                        f"sidecar {sidecar['counts']}, pgm {counts}"))
    if raster.mirror:
        checks.append(check("basin.vertical_mirror", np.array_equal(codes, codes[::-1])))
    if sample:
        rng = random.Random(seed)
        scalar_cfg = replace(cfg, record_stride=cfg.max_iter + 1)
        us, vs = spec.axis_u(), spec.axis_v()
        mismatches = []
        for _ in range(SAMPLE_PIXELS):
            row, col = rng.randrange(spec.height), rng.randrange(spec.width)
            status = dynamics.iterate(evaluator, spec.start_point(us[col], vs[row]), scalar_cfg).status
            code = {dynamics.ESCAPED: dynamics.CODE_ESCAPED, dynamics.CONVERGED: dynamics.CODE_CONVERGED,
                    dynamics.UNDECIDED: dynamics.CODE_UNDECIDED}[status.kind]
            if code != codes[row, col] or status.index != iterations[row, col]:
                mismatches.append((row, col))
        checks.append(check("basin.scalar_sample", not mismatches,
                            f"{len(mismatches)}/{SAMPLE_PIXELS} pixels differ from dynamics.iterate: {mismatches[:5]}"))
    return checks

