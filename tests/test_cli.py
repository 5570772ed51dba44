"""CLI surface tests: output formats, exit codes, reproducibility."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from shearbasins import cli, maps
from shearbasins.maps import ElementaryKind, map_from_spec
from shearbasins.report import Report


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# expand


def test_expand_word_order_three(capsys):
    code, out, _ = run(capsys, "expand", "--map", "F3", "--a", "1", "--b", "1", "--c", "3",
                       "--order", "3")
    assert code == 0
    assert "F1(z, t, w) = z - z^2*t" in out
    assert "F2(z, t, w) = t - z*t^2" in out
    assert "F3(z, t, w) = w - 3*z*t*w" in out


def test_expand_quadratic_prototype(capsys):
    code, out, _ = run(capsys, "expand", "--map", "PROTO_1D", "--a", "1", "--order", "2")
    assert code == 0
    assert "F1(z) = z + z^2" in out


def test_expand_planar_map(capsys):
    code, out, _ = run(capsys, "expand", "--map", "G", "--a", "1", "--c", "3", "--order", "2")
    assert code == 0
    assert "F1(zeta, w) = zeta - 2*zeta^2" in out
    assert "F2(zeta, w) = w - 3*zeta*w" in out


# sha256 of the JSON these commands write; jets are summed and multiplied in
# Python complex arithmetic only.  The family report also holds the defect of
# 50 round trips through cmath.exp, so a libm that rounds exp differently
# would move that one number.
JET_DIGESTS = {
    ("expand", "--map", "F3", "--order", "6"):
        "1608583764c1c7a80b3d65b404a1e4782e3d486dcf1aabe76ce9b757e588206d",
    ("expand", "--map", "G", "--order", "6"):
        "030ea9530c1e629ed4488c0fead2ba6b53f39146e5d6833eb0a27be638cf5ce0",
    ("expand", "--map", "PROTO_1D", "--order", "6"):
        "71bfd29cfcb09e1c20e371588ea6b4876b761d9f27a631aef52ae3111cdbe86e",
    ("expand", "--map", "PROTO_2D", "--order", "6"):
        "febd40aaf4ca44362926e02eccc21a9ade09de4bee60aac39b8182fdef6c62ed",
    ("expand", "--map", "FAMILY_K", "--order", "6"):
        "4baddbaaf81ed213d0eb2731f6ca509780a3d54a7ee88ad7b603d0bd1139f2f4",
    ("family", "--k", "4", "--order", "8"):
        "f6564ad935c0e34451d52f6e6f13b35e2807d6f284dc4534c610d9fa38f1abcd",
}


def test_jet_outputs_keep_their_bytes(tmp_path, capsys):
    for argv, digest in JET_DIGESTS.items():
        out_path = tmp_path / "out.json"
        assert run(capsys, *argv, "--json-out", str(out_path))[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, argv

# sha256 of the JSON ``directions`` writes.  The directors are quotients of
# the part's coefficients and no LAPACK call is left; the unit representatives
# and residuals go through numpy's vector norm, whose dot product a different
# BLAS build may sum in another order.
DIRECTION_DIGESTS = {
    ("--map", "F3"): "65eb86015ce6b7672b452c9400fcbb674cdfb9a14ed5868ca5831b8e436e561d",
    ("--map", "G"): "53b7f66c3b5aa5c10f681161b47c8c6d8d25f78f15e68ab07616d3d816f3ce1a",
    ("--map", "G", "--a", "1", "--b", "2", "--c", "5"):
        "32dd7cd7a1c10f6a5d886103e1068642764f07d09eb95532b63b0811069ae933",
    ("--map", "FAMILY_K", "--k", "3", "--order", "12"):
        "158e1ea4a79b191e6916f33ecdeee3a34fd365f0c9b5fa8a81dc3550dabe81b6",
    ("--map", "PROTO_1D"): "934ca66fe35aba6c2b2f3cd2bec870b1bd788e7c279fd12869d25091f61f10b0",
    ("--map", "PROTO_2D"): "cf4d826fa59aafc084f1dbc47086bf274c7079c03129940749fbec41d8e61470",
}


def test_direction_outputs_keep_their_bytes(tmp_path, capsys):
    for argv, digest in DIRECTION_DIGESTS.items():
        out_path = tmp_path / "out.json"
        assert run(capsys, "directions", *argv, "--json-out", str(out_path))[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, argv


# sha256 of every file these commands write into "out" (a basin raster's
# sidecar goes to "out.json").  The rasters run the batch orbit engine, so
# they also pin its start points and norms; the orbit CSVs pin the scalar
# engine's points, norms and statuses, past window closes, record strides
# and, from (3, 3, 3) under an escape radius of 1e300, an overflowing exp.
OUTPUT_DIGESTS = {
    ("verify", "--seed", "0", "--json-out"):
        {"out": "3995c8341d1fbef383be45bf6d59744fbbf682c750b8964358a7be03db1044ad"},
    ("basin", "--map", "F3", "--lift", "neg", "--w-fix", "0.05", "--res", "40", "40", "--max-iter", "300",
     "--out"):
        {"out": "73391833f23d4be8f6313f92c605e2e9d2114ac4a100086ce1829bfbdb25cea8",
         "out.json": "31216c59f2bf85ff8b5dbfbce7a0e33a78fc8fca9ed911ccd8d621da53b5981b"},
    ("basin", "--map", "PROTO_1D", "--res", "60", "60", "--workers", "2", "--out"):
        {"out": "07628fd0173ec2aa66e6293e0254810e3fab13bea063d6b94188731669658778",
         "out.json": "974446349a419ec1e4de26079947142240ae4bd067aa5e07700fdebecc3a4da7"},
    ("orbit", "--map", "F3", "--stride", "10", "--eps", "0.02", "--max-iter", "20000", "--out"):
        {"out": "e8634c645b97173f28dc542d854d4bfac110961b4345a380fb859c0ec59db148"},
    ("orbit", "--map", "G", "--start", "0.1,0.05", "--stride", "7", "--out"):
        {"out": "41b8182619254263f1522776dd24b199a6968ca4d3903ecd7caab1a0361e6ada"},
    ("orbit", "--map", "F3", "--start", "3,3,3", "--escape", "1e300", "--out"):
        {"out": "fe5578fb981652cf76d35c00cec9711605ed5ecf80258798a85c99841607063d"},
}


def test_verify_and_basin_outputs_keep_their_bytes(tmp_path, capsys):
    for argv, digests in OUTPUT_DIGESTS.items():
        assert run(capsys, *argv, str(tmp_path / "out"))[0] == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, (argv, name)


def test_expand_json_output(tmp_path, capsys):
    out_path = tmp_path / "jet.json"
    code, _, _ = run(capsys, "expand", "--map", "F3", "--order", "3", "--json-out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["components"]) == 3
    assert data["components"][0]["order"] == 3


# ----------------------------------------------------------------------
# verify


def test_verify_default_passes_and_is_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, text1, _ = run(capsys, "verify", "--json-out", str(out1))
    code2, text2, _ = run(capsys, "verify", "--json-out", str(out2))
    assert code1 == 0 and code2 == 0
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes()

    payload = json.loads(out1.read_text())
    assert tuple(c["name"] for c in payload["checks"]) == cli.VERIFY_CHECK_NAMES
    assert payload["passed"] is True
    assert any("zeta denotes the product z*t" in n for n in payload["notes"])


def test_verify_regime_boundary_warns_but_passes(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "1", "--c", "2")
    assert code == 0
    assert "outside chosen regime" in out
    assert "(c-2a)/(2a) = 0" in out


def test_verify_unequal_weights_skip_symmetry(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "2", "--c", "4")
    assert code == 0
    assert "SKIP" in out
    assert "regime not satisfied: a != b" in out
    assert "director (c-a-b)/(a+b) = 0.333333" in out


def test_verify_names_the_failing_sub_check(capsys):
    """A failing sub-check is its own row, not hidden in a folded one.  At
    seed 0 every sampled pair of (1, 3, 3) stays undecided, so
    status_agreement compares none (0/0)."""
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "3", "--c", "3")
    assert code == 1
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"dynamics.projection_statuses.{row}" for row in ("status_agreement", "attracting_side")]


def test_report_extend_prefixes_rows_and_keeps_the_rest():
    sub = Report(title="sub")
    sub.add("kept", True, defect=0.5, tolerance=1.0, note="a note")
    sub.add("failed", False)
    sub.notes.append("sub note")
    report = Report(title="top")
    report.notes.append("top note")
    report.extend("check", sub)
    assert [c.name for c in report.checks] == ["check.kept", "check.failed"]
    kept, failed = report.checks
    assert (kept.status, kept.defect, kept.tolerance, kept.note) == ("pass", 0.5, 1.0, "a note")
    assert (failed.status, failed.defect, failed.tolerance, failed.note) == ("fail", None, None, "")
    assert report.notes == ["top note", "sub note"]
    assert [c.name for c in sub.checks] == ["kept", "failed"]
    assert not report.passed


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    def broken_suite(params, seed=0):
        report = Report(title="forced failure")
        report.add("synthetic", False, defect=1.0, tolerance=0.0)
        return report

    monkeypatch.setattr(cli, "run_verify_suite", broken_suite)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAILURES present" in out


def _verify_rows(out: str) -> dict:
    """{row: (status, note)} of a verify text report."""
    rows = [line.split("  ") for line in out.splitlines() if line[:4] in ("PASS", "FAIL", "SKIP")]
    return {parts[1]: (parts[0].strip(), parts[-1][1:-1] if parts[-1].startswith("(") else "") for parts in rows}


# each mutant is held in _FORMULAS for the whole run, since a word compiles
# its batch step and its advance loop from the table on first use; the rows
# that its error leaves not computed, with the error's class
BROKEN_WORDS = {
    "w^2 in both overshear exponents": (
        {ElementaryKind.OVERSHEAR: ("{a} * w + 1e-3 * w * w", ["{z} * e"]),
         ElementaryKind.OVERSHEAR_INV: ("-{a} * w + 1e-3 * w * w", ["{z} * e"])},
        {"directions.residuals": "UnsupportedDimensionError"}),
    "z in the overshear exponent": (
        {ElementaryKind.OVERSHEAR: ("{a} * w + 1e-9 * z0", ["{z} * e"])},
        {**dict.fromkeys(["maps.semiconjugacy.pointwise", "maps.semiconjugacy.jet", "maps.equivariance.algebraic",
                          "maps.fixed_planes", "maps.symmetry_tF1_zF2"], "SemiConjugacyError"),
         "directions.residuals": "UnsupportedDimensionError"}),
}


@pytest.mark.parametrize("name", BROKEN_WORDS)
def test_verify_reports_a_broken_word_instead_of_raising(monkeypatch, capsys, name):
    """A section of verify that raises UnsupportedDimensionError or
    SemiConjugacyError on a broken word fails its rows not yet added, with
    the error as their note; verify prints every row and exits 1."""
    formulas, not_computed = BROKEN_WORDS[name]
    for kind, formula in formulas.items():
        monkeypatch.setitem(maps._FORMULAS, kind, formula)
    code, out, _ = run(capsys, "verify")
    rows = [line.split("  ") for line in out.splitlines() if line[:4] in ("PASS", "FAIL", "SKIP")]
    assert code == 1
    assert tuple(row[1] for row in rows) == cli.VERIFY_CHECK_NAMES
    assert {row[1]: row[-1][len("(not computed: "):].split(":")[0]
            for row in rows if row[-1].startswith("(not computed: ")} == not_computed
    assert all(row[0] == "FAIL" for row in rows if row[1] in not_computed)


# ----------------------------------------------------------------------
# directions


def test_directions_planar(capsys):
    code, out, _ = run(capsys, "directions", "--map", "G", "--a", "1", "--c", "3")
    assert code == 0
    assert "leading degree r = 2" in out
    assert "NON_DEGENERATE_ATTRACTING" in out
    assert "directors=0.5" in out


def test_directions_planar_with_unequal_weights(capsys, tmp_path):
    """The director at [1:0] is (c - a - b)/(a + b); no warning when it is found."""
    out_path = tmp_path / "g.json"
    code, out, _ = run(capsys, "directions", "--map", "G", "--a", "1", "--b", "2", "--c", "5",
                       "--json-out", str(out_path))
    assert code == 0
    assert "directors=0.666667" in out
    assert "WARN" not in out and json.loads(out_path.read_text())["warnings"] == []


def test_zero_weight_sum_leaves_the_planar_direction_without_a_director(capsys):
    """At a + b = 0 the direction [1:0] of G is degenerate.  directions warns
    and exits 0; verify notes it, skips the rows that need a petal of zeta
    with that premise, and exits 0.  a + b = 1e-9 lies within
    ``DEGENERATE_TOL`` of 0, and every premise reads it as 0."""
    for b in ("-1", "-0.999999999"):
        code, out, err = run(capsys, "directions", "--map", "G", "--a", "1", "--b", b)
        assert (code, err) == (0, "")
        assert "WARN  a+b = 0: the direction [1:0] is degenerate and has no director" in out
        assert out.count("  DEGENERATE") == 2 and "NON_DEGENERATE" not in out
        code, out, err = run(capsys, "verify", "--a", "1", "--b", b)
        assert (code, err) == (0, "")
        assert "[1:0] is degenerate at a+b = 0" in out
        skipped = [line.split()[1] for line in out.splitlines() if line.startswith("SKIP  dynamics.")]
        assert skipped == ["dynamics.petal_rate"] + [
            f"dynamics.projection_statuses.{row}" for row in ("attracting_side", "repelling_side", "both_classes_observed")]
        assert out.count("(a + b = 0: zeta has no quadratic petal)") == 4


def test_verify_title_prints_each_parameter_exactly(capsys):
    """b = -1 and b = -0.999999999 decide different rows (a + b is 0 and
    1e-9), so their titles differ: each parameter prints as its repr."""
    titles = [run(capsys, "verify", "--a", "1", "--b", b)[1].splitlines()[0] for b in ("-1", "-0.999999999")]
    assert titles == [f"== verification suite, (a, b, c) = (1.0, {b}, 3.0), seed 0 ==" for b in ("-1.0", "-0.999999999")]


def _skip_notes(out: str) -> dict:
    """{row: note} of the SKIP rows of a verify text report."""
    rows = [line.split("  ", 2) for line in out.splitlines() if line.startswith("SKIP")]
    return {name: note[1:-1] for _, name, note in rows}


NO_PETAL = "a + b = 0: zeta has no quadratic petal"
SYMMETRY = {"maps.symmetry_tF1_zF2": "regime not satisfied: a != b, identity not claimed"}


PETAL_ROWS = [
    (("1", "1", "3"), 0, []),
    (("1", "1", "-3"), 0, [("petal_rate", "c/(a + b) = -1.5 <= 0: w does not decay along the petal"),
                           ("attracting_side", "c/(a + b) = -1.5 <= 0: w does not decay along the petal"),
                           ("both_classes_observed", "c/(a + b) = -1.5 <= 0: w does not decay along the petal")]),
    (("2", "-1", "3"), 0, [("status_agreement", "b/(a + b) = -1 <= 0: t does not decay along the petal"),
                           ("attracting_side", "b/(a + b) = -1 <= 0: t does not decay along the petal")]),
    (("0.5", "-1", "-3"), 0, [("status_agreement", "a/(a + b) = -1 <= 0: z does not decay along the petal"),
                              ("attracting_side", "a/(a + b) = -1 <= 0: z does not decay along the petal")]),
    (("-1", "-1", "-3"), 0, []),
    (("1", "-0.999999999", "3"), 0, [("petal_rate", NO_PETAL), ("attracting_side", NO_PETAL),
                                     ("repelling_side", NO_PETAL), ("both_classes_observed", NO_PETAL)]),
]


@pytest.mark.parametrize("abc, code, skipped", PETAL_ROWS)
def test_verify_skips_each_petal_row_with_its_premise(capsys, abc, code, skipped):
    """Every petal row reads the premises of ``dynamics.petal_premises``: the
    petal exists, and w, z and t decay along it.  A row whose premise fails
    is SKIP with that premise as its note, and the run exits 0."""
    a, b, c = abc
    got, out, _ = run(capsys, "verify", "--a", a, f"--b={b}", f"--c={c}")
    assert got == code
    rows = {("dynamics.petal_rate" if row == "petal_rate" else f"dynamics.projection_statuses.{row}"): note
            for row, note in skipped}
    assert _skip_notes(out) == ({} if a == b else SYMMETRY) | rows


@pytest.mark.parametrize("argv", [("--seed", "1"), ("--seed", "2")]
                         + [("--a", a, f"--b={b}", f"--c={c}") for (a, b, c), _, _ in PETAL_ROWS])
def test_verify_bytes_do_not_depend_on_the_usable_cpus(monkeypatch, capsys, tmp_path, argv):
    """The sampled orbit pairs of verify run on one forked worker per usable
    CPU; its text and JSON are the same at 1, 2 and 3."""
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        path = tmp_path / f"{cpus}.json"
        code, out, _ = run(capsys, "verify", *argv, "--json-out", str(path))
        outputs.append((code, out, path.read_bytes()))
    assert outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize("argv", [("--map", "F3"), ("--map", "G"), ("--map", "G", "--a", "1", "--b", "2", "--c", "5"),
                                  ("--map", "FAMILY_K", "--k", "3")])
def test_directions_hold_no_negative_zero(capsys, tmp_path, argv):
    """A zero part of a director is +0.0, in the text and in the JSON."""
    out_path = tmp_path / "d.json"
    code, out, _ = run(capsys, "directions", *argv, "--json-out", str(out_path))
    assert code == 0 and "directors=" in out and "-0j" not in out

    def negative_zeros(x):
        if isinstance(x, dict):
            return sum(negative_zeros(v) for v in x.values())
        if isinstance(x, list):
            return sum(negative_zeros(v) for v in x)
        return isinstance(x, float) and x == 0 and math.copysign(1.0, x) < 0

    assert negative_zeros(json.loads(out_path.read_text())) == 0


@pytest.mark.parametrize("k", [4, 5])
def test_directions_of_the_family_beyond_four_variables(capsys, k):
    code, out, err = run(capsys, "directions", "--map", "FAMILY_K", "--k", str(k))
    assert (code, err) == (0, "")
    assert all(f"hyperplane z{i + 1}=0" in out for i in range(k))


def test_directions_word_reports_families_and_warns_about_extras(capsys):
    code, out, _ = run(capsys, "directions", "--map", "F3")
    assert code == 0
    assert "leading degree r = 3" in out
    assert "hyperplane z=0" in out
    assert "hyperplane t=0" in out
    assert "WARN" in out and "torus" in out


def test_directions_prototype_trivial(capsys):
    code, out, _ = run(capsys, "directions", "--map", "PROTO_1D", "--a", "1")
    assert code == 0
    assert "lambda=1" in out
    assert "NON_DEGENERATE_ATTRACTING" in out


# ----------------------------------------------------------------------
# orbit


def test_orbit_writes_csv_and_reports_rate(tmp_path, capsys):
    out_path = tmp_path / "orbit.csv"
    code, out, _ = run(
        capsys, "orbit", "--start", "0.1,0.1,0.05", "--max-iter", "10000",
        "--out", str(out_path),
    )
    assert code == 0
    assert "status: UNDECIDED" in out
    assert "n*zeta_n estimate" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,re_1,im_1,re_2,im_2,re_3,im_3,norm"
    assert lines[-1].startswith("# status=")


def test_orbit_detects_fixed_plane(capsys):
    code, out, _ = run(capsys, "orbit", "--start", "0,0.3,0.2", "--max-iter", "1000")
    assert code == 0
    assert "UNDECIDED" in out
    assert "stationary" in out


def test_orbit_escapes_from_large_start(capsys):
    code, out, _ = run(capsys, "orbit", "--start", "3,3,3", "--max-iter", "1000")
    assert code == 0
    assert "status: ESCAPED" in out


def test_orbit_dimension_mismatch_is_exit_two(capsys):
    code, _, err = run(capsys, "orbit", "--start", "0.1,0.1", "--map", "F3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("start", ["nan,0.1,0.1", "0.1,inf,0.1", "0.1,0.1,-infj"])
def test_orbit_non_finite_start_is_exit_two(capsys, start):
    code, out, err = run(capsys, "orbit", "--start", start)
    assert code == 2
    assert out == ""
    assert "orbit start coordinates must be finite" in err


# ----------------------------------------------------------------------
# basin


def test_basin_writes_pgm_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "basin.pgm"
    code, out, _ = run(
        capsys, "basin", "--map", "PROTO_1D", "--a", "1",
        "--slice", "-1.5", "0.5", "-1.0", "1.0", "--res", "40", "40",
        "--max-iter", "1500", "--out", str(out_path),
    )
    assert code == 0
    data = out_path.read_bytes()
    assert data.startswith(b"P5\n40 40\n255\n")
    sidecar = json.loads((tmp_path / "basin.pgm.json").read_text())
    assert sidecar["counts"]["converged"] > 0
    assert sidecar["counts"]["escaped"] > 0
    assert sidecar["config"]["max_iter"] == 1500


def test_basin_reproducible_bytes(tmp_path, capsys):
    args = (
        "basin", "--map", "PROTO_1D", "--a", "1",
        "--slice", "-1.2", "0.4", "-0.8", "0.8", "--res", "32", "32",
        "--max-iter", "1200",
    )
    p1, p2 = tmp_path / "r1.pgm", tmp_path / "r2.pgm"
    assert run(capsys, *args, "--out", str(p1))[0] == 0
    assert run(capsys, *args, "--out", str(p2), "--workers", "2")[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "r1.pgm.json").read_bytes() == (tmp_path / "r2.pgm.json").read_bytes()


def test_basin_lift_branch_choice_is_byte_identical(tmp_path, capsys):
    base = (
        "basin", "--map", "F3", "--a", "1", "--b", "1", "--c", "3",
        "--slice", "-0.2", "0.4", "-0.3", "0.3", "--res", "24", "24",
        "--max-iter", "800", "--eps", "0.05", "--w-fix", "0.05",
    )
    plus, minus = tmp_path / "plus.pgm", tmp_path / "minus.pgm"
    assert run(capsys, *base, "--lift", "pos", "--out", str(plus))[0] == 0
    assert run(capsys, *base, "--lift", "neg", "--out", str(minus))[0] == 0
    assert plus.read_bytes() == minus.read_bytes()


@pytest.mark.parametrize("argv", [
    ("--lift", "pos", "--w-fix", "nan"),
    ("--slice", "nan", "0.5", "-1", "1"),
    ("--map", "PROTO_1D", "--base", "nan"),
    ("--base", "0,inf,0"),
    ("--dir2", "0,nanj,0"),
])
def test_basin_non_finite_slice_is_exit_two(tmp_path, capsys, argv):
    out_path = tmp_path / "basin.pgm"
    code, out, err = run(capsys, "basin", "--res", "4", "4", "--out", str(out_path), *argv)
    assert code == 2
    assert out == "" and not out_path.exists()
    assert "must be finite" in err


@pytest.mark.parametrize("argv", [("--map", "G"), ("--map", "PROTO_1D"), ("--map", "FAMILY_K")])
def test_basin_lift_of_other_maps_is_exit_two(tmp_path, capsys, argv):
    """Only PROTO_2D and words in C^3 have starts (s, s[, w]) to lift to."""
    out_path = tmp_path / "basin.pgm"
    code, out, err = run(capsys, "basin", "--lift", "pos", "--res", "4", "4", "--out", str(out_path), *argv)
    assert code == 2
    assert out == "" and not out_path.exists()
    assert "lift rendering needs" in err


@pytest.mark.parametrize("argv, plane", [
    ((), "{t=0}"),
    (("--map", "FAMILY_K"), "{z2=0 and z3=0}"),
    (("--map", "PROTO_2D"), "{w=0}"),
    (("--map", "G", "--base", "0,0.1", "--dir1", "0,1", "--dir2", "0,1j"), "{zeta=0}"),
])
def test_basin_slice_in_a_fixed_hyperplane_is_exit_two(tmp_path, capsys, argv, plane):
    out_path = tmp_path / "basin.pgm"
    code, out, err = run(capsys, "basin", "--res", "4", "4", "--out", str(out_path), *argv)
    assert code == 2
    assert out == "" and not out_path.exists()
    assert f"the slice lies in {plane}, which the map fixes pointwise" in err


@pytest.mark.parametrize("argv", [
    ("--dir2", "0,1j,0"),
    ("--map", "FAMILY_K", "--k", "2", "--lift", "pos"),
    ("--map", "PROTO_2D", "--lift", "pos"),
])
def test_basin_slices_off_the_fixed_hyperplanes_run(tmp_path, capsys, argv):
    out_path = tmp_path / "basin.pgm"
    code, _, _ = run(capsys, "basin", "--res", "4", "4", "--max-iter", "50", "--out", str(out_path), *argv)
    assert code == 0 and out_path.exists()


@pytest.mark.parametrize("argv, flag", [
    (("--lift", "pos", "--base", "5,5,5"), "--base"),
    (("--lift", "neg", "--dir1", "1,0,0"), "--dir1"),
    (("--lift", "pos", "--dir2", "0,1j,0"), "--dir2"),
    (("--w-fix", "0.3", "--dir2", "0,1j,0"), "--w-fix"),
])
def test_basin_flags_its_lift_does_not_use_are_exit_two(tmp_path, capsys, argv, flag):
    out_path = tmp_path / "basin.pgm"
    code, out, err = run(capsys, "basin", "--res", "4", "4", "--out", str(out_path), *argv)
    assert code == 2
    assert out == "" and not out_path.exists()
    lift = argv[1] if argv[0] == "--lift" else "none"
    assert f"{flag} is not used with --lift {lift}" in err


def test_basin_bad_map_is_exit_two(capsys):
    code, _, _ = run(capsys, "basin", "--map", "NOPE")
    assert code == 2


def test_basin_bad_resolution_is_exit_two(capsys):
    code, _, err = run(capsys, "basin", "--map", "PROTO_1D", "--res", "0", "10")
    assert code == 2


@pytest.mark.parametrize("bounds", [("0", "0", "0", "0"), ("0", "0", "-1", "1"), ("-1", "1", "0.5", "0.5")])
def test_basin_zero_width_slice_is_exit_two(tmp_path, capsys, bounds):
    """A range of lo = hi gives every pixel of an axis one start point, so an
    axis of more than one pixel needs lo != hi; a one-pixel axis may have it."""
    out_path = tmp_path / "basin.pgm"
    argv = ("basin", "--map", "PROTO_1D", "--max-iter", "10", "--out", str(out_path), "--slice", *bounds)
    code, _, err = run(capsys, *argv, "--res", "4", "4")
    assert code == 2 and "has zero width" in err
    assert not out_path.exists()
    code, _, err = run(capsys, *argv, "--res", "1", "1")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("workers", ["0", "-1", "-3"])
def test_basin_worker_count_below_one_is_exit_two(tmp_path, capsys, workers):
    out_path = tmp_path / "basin.pgm"
    code, _, err = run(capsys, "basin", "--map", "PROTO_1D", "--res", "4", "4", "--max-iter", "10",
                       "--workers", workers, "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: workers must be at least 1")
    assert not out_path.exists()


# ----------------------------------------------------------------------
# family


def test_family_subcommand_passes(capsys):
    code, out, _ = run(capsys, "family", "--k", "3", "--a", "1", "1", "1", "--b", "4",
                       "--order", "8")
    assert code == 0
    assert "all checks pass" in out
    assert "chosen regime holds" in out


def test_family_outside_regime_notes_it(capsys):
    code, out, _ = run(capsys, "family", "--k", "2", "--a", "1", "2", "--b", "5")
    assert code == 0
    assert "outside the chosen regime" in out


@pytest.mark.parametrize("k", [2, 3])
def test_family_order_below_k_plus_one_is_exit_two(capsys, k):
    """The claims read the degree-(k + 1) coefficients of zeta*z_i and zeta*w."""
    code, out, err = run(capsys, "family", "--k", str(k), "--order", str(k))
    assert (code, out) == (2, "")
    assert f"need order >= {k + 1} (k + 1), got {k}" in err
    code, out, _ = run(capsys, "family", "--k", str(k), "--order", str(k + 1))
    assert code == 0 and "all checks pass" in out


# ----------------------------------------------------------------------
# config file override


def test_config_file_overrides_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"map": "PROTO_1D", "a": 1.0, "order": 2}))
    code, out, _ = run(capsys, "expand", "--map", "F3", "--order", "5",
                       "--config", str(config))
    assert code == 0
    assert "F1(z) = z + z^2" in out


# one non-default parameter set per map: flags, both config shapes and
# map_from_spec must all give the same map
SPECS = {
    "F3": {"a": 1, "b": 2, "c": 5},
    "G": {"a": 0.5, "c": 2},
    "PROTO_1D": {"a": 2},
    "PROTO_2D": {},
    "FAMILY_K": {"k": 3, "a": [0.5, 1, 2], "b": 4},
}


def _flags(params):
    argv = []
    for key, value in params.items():
        argv += [f"--{key}", *(str(v) for v in (value if isinstance(value, list) else [value]))]
    return argv


def test_config_file_map_spec_shape(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"map": {"family": "G", "a": 1, "c": 3}, "order": 2}))
    code, out, _ = run(capsys, "expand", "--config", str(config))
    assert code == 0
    assert "zeta - 2*zeta^2" in out
    assert sorted(SPECS) == sorted(cli.MAP_CHOICES)
    for family, params in SPECS.items():
        want = map_from_spec({"family": family, **params}).jet(4).to_dict()
        config = tmp_path / "c.json"
        for source in ("flags", "bare", "nested"):
            out_path = tmp_path / f"{family}_{source}.json"
            if source == "flags":
                argv = ["--map", family, *_flags(params)]
            else:
                spec = {"family": family, **params}
                config.write_text(json.dumps(spec if source == "bare" else {"map": spec}))
                argv = ["--config", str(config)]
            code, _, _ = run(capsys, "expand", *argv, "--order", "4", "--json-out", str(out_path))
            assert code == 0, (family, source)
            assert json.loads(out_path.read_text()) == want, (family, source)
        # with no parameters, map_from_spec builds the CLI's default map
        out_path = tmp_path / f"{family}_default.json"
        assert run(capsys, "expand", "--map", family, "--order", "4", "--json-out", str(out_path))[0] == 0
        assert json.loads(out_path.read_text()) == map_from_spec({"family": family}).jet(4).to_dict()


@pytest.mark.parametrize("family", ["F3", "G", "PROTO_1D"])
def test_extra_weights_are_exit_two(capsys, family):
    code, out, err = run(capsys, "expand", "--map", family, "--a", "1", "2")
    assert code == 2
    assert out == ""
    assert f"map {family} takes one weight a, got 2" in err


@pytest.mark.parametrize("command, flag", [
    ("expand", "seed"), ("directions", "seed"),
    ("verify", "map"), ("verify", "k"), ("verify", "order"),
    ("family", "map"), ("family", "c"),
    ("orbit", "order"), ("orbit", "seed"), ("orbit", "json-out"),
    ("basin", "order"), ("basin", "seed"), ("basin", "json-out"), ("basin", "stride"),
])
def test_options_a_command_does_not_use_are_exit_two(tmp_path, capsys, command, flag):
    """Neither as a flag nor as a config key."""
    code, out, err = run(capsys, command, f"--{flag}", "G" if flag == "map" else "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --{flag}" in err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({flag: "1"}))
    code, out, err = run(capsys, command, "--config", str(config))
    assert (code, out) == (2, "")
    assert f"{flag!r} is not an option of {command}" in err


@pytest.mark.parametrize("argv, key", [
    (("expand", "--map", "PROTO_2D", "--a", "5", "--b", "7", "--c", "9", "--k", "4"), "a"),
    (("expand", "--map", "F3", "--k", "5"), "k"),
    (("expand", "--map", "G", "--k", "2"), "k"),
    (("expand", "--map", "PROTO_1D", "--b", "2"), "b"),
    (("directions", "--map", "FAMILY_K", "--c", "9"), "c"),
    (("orbit", "--map", "PROTO_1D", "--start", "0.1", "--c", "2"), "c"),
    (("basin", "--map", "PROTO_2D", "--lift", "pos", "--a", "2", "--res", "4", "4"), "a"),
])
def test_parameters_the_map_does_not_take_are_exit_two(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"map {argv[argv.index('--map') + 1]} takes no parameter {key!r}" in err


@pytest.mark.parametrize("argv", [
    ("expand", "--a", "nan"),
    ("expand", "--c", "nan"),
    ("expand", "--map", "FAMILY_K", "--a", "inf"),
    ("expand", "--map", "FAMILY_K", "--b", "nan"),
    ("expand", "--map", "G", "--b=-inf"),
    ("expand", "--map", "PROTO_1D", "--a", "nan"),
    ("verify", "--a", "nan"),
    ("family", "--a", "1", "nan", "1"),
])
def test_non_finite_parameters_are_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "nan" not in out
    assert "must be finite" in err


@pytest.mark.parametrize("argv", [
    ("expand", "--map", "F3", "--a", "1e154", "--order", "4"),
    ("expand", "--map", "G", "--a", "1e200", "--order", "3"),
    ("verify", "--a", "1e154"),
    ("directions", "--map", "G", "--a", "1e100", "--c=1e300", "--order", "4"),
])
def test_finite_parameters_whose_jets_overflow_are_exit_two(capsys, argv):
    """Finite parameters pass the map's checks, but the word's jet leaves the
    float range: an error naming the overflow, not inf/nan coefficients or a traceback."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "jet overflows" in err


@pytest.mark.parametrize("exc", [ZeroDivisionError, ArithmeticError])
def test_other_arithmetic_errors_are_not_caught(monkeypatch, exc):
    def broken(lt, names=None):
        raise exc("a bug")
    monkeypatch.setattr(cli.dirs_mod, "characteristic_directions", broken)
    with pytest.raises(exc):
        cli.main(["directions", "--map", "G", "--order", "4"])


@pytest.mark.parametrize("data, message", [
    ({"func": 1}, "'func' is not an option of expand"),
    ({"command": "verify"}, "'command' is not an option of expand"),
    ({"config": "other.json"}, "'config' is not an option of expand"),
    ({"order": 2, "out": "x.pgm"}, "'out' is not an option of expand"),
    ({"map": {"family": "G", "colour": 1}}, "'colour' is not an option of expand"),
    ([1, 2], "the top level must be a JSON object"),
    ("F3", "the top level must be a JSON object"),
])
def test_config_file_with_other_keys_is_exit_two(tmp_path, capsys, data, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    code, out, err = run(capsys, "expand", "--config", str(config))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command, data, message", [
    ("expand", {"order": [1]}, "[1] is not a valid value of 'order'"),
    ("orbit", {"max-iter": [5]}, "[5] is not a valid value of 'max-iter'"),
    ("verify", {"seed": "x"}, "'x' is not a valid value of 'seed'"),
    ("expand", {"a": [[1]]}, "[[1]] is not a valid value of 'a'"),
    ("orbit", {"start": {"z": 1}}, "{'z': 1} is not a valid value of 'start'"),
    ("basin", {"slice": 1}, "1 is not a valid value of 'slice'"),
    ("basin", {"res": [100]}, "[100] is not a valid value of 'res'"),
    ("expand", {"order": True}, "True is not a valid value of 'order'"),
    ("expand", {"order": None}, "None is not a valid value of 'order'"),
    ("verify", {"seed": 6.7}, "6.7 is not a valid value of 'seed'"),
    ("orbit", {"max-iter": 6.7}, "6.7 is not a valid value of 'max-iter'"),
])
def test_config_value_of_the_wrong_type_is_exit_two(tmp_path, capsys, command, data, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--config", str(config))
    assert code == 2
    assert out == ""
    assert message in err


def test_config_values_pass_through_the_option_types(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"start": "0.1,0.1,0.05", "max-iter": "7", "stride": 7}))
    code, out, _ = run(capsys, "orbit", "--config", str(config))
    assert code == 0
    assert "after index 7" in out
    config.write_text(json.dumps({"map": "PROTO_1D", "slice": [-1.5, 0.5, -1, 1], "res": [12, 10],
                                  "max-iter": 50, "out": str(tmp_path / "config.pgm")}))
    assert run(capsys, "basin", "--config", str(config))[0] == 0
    assert run(capsys, "basin", "--map", "PROTO_1D", "--slice", "-1.5", "0.5", "-1", "1", "--res", "12", "10",
               "--max-iter", "50", "--out", str(tmp_path / "flags.pgm"))[0] == 0
    for suffix in ("", ".json"):
        assert (tmp_path / f"config.pgm{suffix}").read_bytes() == (tmp_path / f"flags.pgm{suffix}").read_bytes()


def test_missing_config_file_is_exit_two(capsys):
    code, _, err = run(capsys, "expand", "--config", "/nonexistent/conf.json")
    assert code == 2


# ----------------------------------------------------------------------
# argument parsing

COMMANDS = ("expand", "verify", "directions", "orbit", "basin", "family")


def subparsers(parser):
    """The command parsers of ``parser``, by name."""
    (action,) = (a for a in parser._actions if a.dest == "command")
    return action.choices


def option_strings(parser):
    return [a.option_strings for a in parser._actions]


@pytest.mark.parametrize("argv", [["-h"], [], ["nope"], *([c, "-h"] for c in COMMANDS),
                                  *([c, "--no-such-option"] for c in COMMANDS)])
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    """Help, usage and errors of ``main``, which builds only the options of
    the command it runs, are those of a parser with every command's options."""
    monkeypatch.setenv("COLUMNS", "80")
    got = run(capsys, *argv)
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    out = capsys.readouterr()
    assert got == (int(exit_info.value.code or 0), out.out, out.err)
    assert got[0] == (0 if "-h" in argv else 2) and got[1] + got[2]


@pytest.mark.parametrize("argv", [[], ["-h"], ["nope"], ["expand", "--order", "2"],
                                  *([c, "-h"] for c in COMMANDS)])
def test_main_adds_no_option_to_another_command(monkeypatch, capsys, argv):
    """``main([command, ...])`` gives ``command`` the options the full parser
    gives it and every other command only -h, so a call builds one command's
    options.  Without a known command no command gets options."""
    full = subparsers(cli.build_parser())
    built = []
    build_parser = cli.build_parser

    def recording(*args):
        built.append(build_parser(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    run(capsys, *argv)
    (parser,) = built
    for name, command in subparsers(parser).items():
        want = option_strings(full[name]) if argv[:1] == [name] else [["-h", "--help"]]
        assert option_strings(command) == want, name
