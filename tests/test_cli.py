"""CLI surface tests: output formats, exit codes, reproducibility."""

import hashlib
import json

import numpy as np
import pytest

from shearbasins import cli
from shearbasins.maps import map_from_spec
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
        "cd041c1436144d07f2e0614940a4e424985149edb5665c9f4ae22dc61f7f7f1a",
    ("expand", "--map", "G", "--order", "6"):
        "1f2b0050ad80465e546d6bbf74ca271b923b7776b0990c45946335883cc8b888",
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
    names = [c["name"] for c in payload["checks"]]
    for canonical in cli.VERIFY_CHECK_NAMES:
        assert names.count(canonical) == 1, canonical
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


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    def broken_suite(params, seed=0):
        report = Report(title="forced failure")
        report.add("synthetic", False, defect=1.0, tolerance=0.0)
        return report

    monkeypatch.setattr(cli, "run_verify_suite", broken_suite)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAILURES present" in out


# ----------------------------------------------------------------------
# directions


def test_directions_planar(capsys):
    code, out, _ = run(capsys, "directions", "--map", "G", "--a", "1", "--c", "3")
    assert code == 0
    assert "leading degree r = 2" in out
    assert "NON_DEGENERATE_ATTRACTING" in out
    assert "directors=0.5" in out


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


def test_basin_bad_map_is_exit_two(capsys):
    code, _, _ = run(capsys, "basin", "--map", "NOPE")
    assert code == 2


def test_basin_bad_resolution_is_exit_two(capsys):
    code, _, err = run(capsys, "basin", "--map", "PROTO_1D", "--res", "0", "10")
    assert code == 2


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
    ("expand", {"seed": "x"}, "'x' is not a valid value of 'seed'"),
    ("expand", {"a": [[1]]}, "[[1]] is not a valid value of 'a'"),
    ("orbit", {"start": {"z": 1}}, "{'z': 1} is not a valid value of 'start'"),
    ("basin", {"slice": 1}, "1 is not a valid value of 'slice'"),
    ("basin", {"res": [100]}, "[100] is not a valid value of 'res'"),
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
