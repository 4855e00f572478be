import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from conftest import EXAMPLE_EDM
from edmsphere import gen_crosspolytope, gen_unit_simplex, parse_matrix
from edmsphere.cli import main
from edmsphere.matrixio import format_matrix_text

EXAMPLE_GRAPH_TEXT = "5\n1 2\n3 4\n"


def run_json(capsys, argv):
    """Invoke the CLI in-process and parse its single JSON report."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def run_raw(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(format_matrix_text(EXAMPLE_EDM))
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "example.graph"
    path.write_text(EXAMPLE_GRAPH_TEXT)
    return str(path)


class TestValidate:
    def test_accepts_example(self, capsys, matrix_file):
        code, report, _ = run_json(capsys, ["validate", matrix_file])
        assert code == 0
        assert report["tool"] == "edmsphere"
        assert report["status"] == "ok"
        assert report["command"] == ["validate", matrix_file]
        assert report["profile"] == "default"
        assert report["tolerances"]["psd"] == 1e-9
        res = report["result"]
        assert res["edm"] is True
        assert res["n"] == 5 and res["embedding_dim"] == 3
        assert res["min_offdiagonal"] == 2.0
        sph = res["spherical"]
        assert sph["status"] == "spherical" and sph["unit_spherical"] is True
        npt.assert_allclose(sph["w"], [0.125, 0.125, 0.125, 0.125, 0.0], atol=1e-12)
        npt.assert_allclose(sph["radius"], 1.0, atol=1e-12)
        assert "circumradius" in sph["note"]
        dd = report["checks"]["delta_dimension"]
        assert dd["dimension"] == 3 and dd["multiplicity"] == 2
        assert dd["used_perron"] and dd["lambda_max_ok"] and dd["eigvec_ok"]
        assert isinstance(report["elapsed_seconds"], float)

    def test_input_digest(self, capsys, matrix_file):
        _, report, _ = run_json(capsys, ["validate", matrix_file])
        with open(matrix_file, "rb") as fh:
            expected = hashlib.sha256(fh.read()).hexdigest()
        assert report["inputs"][matrix_file] == expected

    def test_rejects_negative_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 -1\n-1 0\n")
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert report["status"] == "rejected"
        assert report["result"]["edm"] is False
        assert report["result"]["reason"] == "negative-entry"
        assert "negative-entry" in err

    def test_missing_file(self, capsys, tmp_path):
        code, report, err = run_json(capsys, ["validate", str(tmp_path / "nope.txt")])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "error" in report["result"]
        assert "precondition failed" in err

    def test_malformed_matrix(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3\n0 1 1\n1 0\n1 1 0\n")
        code, report, _ = run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "line 3" in report["result"]["error"]

    @pytest.mark.parametrize("text", [
        '{"n": true, "rows": [[0.0]]}',
        '{"n": 2, "rows": [[0.0, true], [true, 0.0]]}',
    ], ids=["bool-order", "bool-entries"])
    def test_json_booleans_are_not_numbers(self, capsys, tmp_path, text):
        path = tmp_path / "bool.json"
        path.write_text(text)
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "input format error" in err


    @pytest.mark.parametrize("text", [
        '{"n": 2, "rows": [["0", "4"], ["4", "0"]]}',
        '{"n": 2, "rows": [[0.0, null], [null, 0.0]]}',
        '{"n": 2, "rows": [[0.0, [4.0]], [4.0, 0.0]]}',
        '{"n": 1, "rows": [[1' + "0" * 400 + ']]}',
    ], ids=["strings", "null", "nested", "int-beyond-float"])
    def test_json_entries_must_be_numbers(self, capsys, tmp_path, text):
        path = tmp_path / "entries.json"
        path.write_text(text)
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "input format error" in err


class TestOrthorep:
    def test_example_graph(self, capsys, graph_file):
        code, report, _ = run_json(capsys, ["orthorep", graph_file])
        assert code == 0
        res = report["result"]
        assert set(res) == {"n", "k", "d", "points", "edm", "w"}
        assert res["n"] == 5 and res["k"] == 2 and res["d"] == 3
        npt.assert_array_equal(np.asarray(res["edm"]), EXAMPLE_EDM)
        npt.assert_allclose(res["w"], [0.125, 0.125, 0.125, 0.125, 0.0], atol=1e-12)
        checks = report["checks"]
        assert checks["unit_spherical"] is True
        assert checks["sign_pattern"]["ok"] is True
        assert checks["minimality"]["m"] == 2 and checks["minimality"]["tight"] is True
        assert checks["unit_rows_max_dev"] <= 1e-9

    def test_out_file_holds_result(self, capsys, graph_file, tmp_path):
        out = tmp_path / "rep.json"
        code, report, _ = run_json(capsys, ["orthorep", graph_file, "--out", str(out)])
        assert code == 0
        with open(out, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert stored == report["result"]
        assert report["checks"]["out"] == str(out)

    def test_bad_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3\n2 2\n")
        code, report, _ = run_json(capsys, ["orthorep", str(path)])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "self-loop" in report["result"]["error"]


    def test_block_below_its_rank_is_inconsistent(self, capsys, tmp_path):
        path = tmp_path / "mixed.graph"
        path.write_text("10\n1 2\n2 3\n4 5\n4 6\n5 6\n7 8\n8 9\n")
        code, report, _ = run_json(capsys, ["orthorep", str(path), "--tol-rank", "1.2"])
        assert code == 1
        assert report["status"] == "inconsistent"
        assert "component (1, 2, 3) has rank 1, expected 2" in report["result"]["error"]


class TestDecompose:
    def test_example(self, capsys, matrix_file):
        code, report, _ = run_json(capsys, ["decompose", matrix_file])
        assert code == 0
        res = report["result"]
        assert res["permutation"] == [1, 2, 3, 4, 5]
        assert [b["indices"] for b in res["blocks"]] == [[1, 2], [3, 4, 5]]
        assert [b["origin"] for b in res["blocks"]] == ["interior", "boundary"]
        assert all(b["simplex"] for b in res["blocks"])
        assert res["cross_check"] == 0.0
        checks = report["checks"]
        assert checks["n"] == 5 and checks["r"] == 3
        assert checks["subspace_dims"] == [1, 2]
        assert checks["isolated_assignment"] == [5]
        assert checks["block_methods"] == ["perron", "perron"]

    def test_out_file(self, capsys, matrix_file, tmp_path):
        out = tmp_path / "dec.json"
        code, report, _ = run_json(capsys, ["decompose", matrix_file, "--out", str(out)])
        assert code == 0
        with open(out, "r", encoding="utf-8") as fh:
            assert json.load(fh) == report["result"]

    def test_wrong_shape_rejected(self, capsys, tmp_path):
        path = tmp_path / "simplex.txt"
        path.write_text(format_matrix_text(gen_unit_simplex(4).dist2))
        code, report, _ = run_json(capsys, ["decompose", str(path)])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "n - r >= 2" in report["result"]["error"]


class TestGen:
    def test_raw_text_round_trip(self, capsys):
        code, text = run_raw(capsys, ["gen", "crosspolytope", "-r", "2"])
        assert code == 0
        assert text.startswith("# gen crosspolytope r=2\n")
        M = parse_matrix(text)
        npt.assert_array_equal(M, gen_crosspolytope(2).dist2)

    def test_raw_byte_determinism(self, capsys):
        _, a = run_raw(capsys, ["gen", "random-sphere", "-n", "6", "-r", "3", "--seed", "5"])
        _, b = run_raw(capsys, ["gen", "random-sphere", "-n", "6", "-r", "3", "--seed", "5"])
        assert a == b
        _, c = run_raw(capsys, ["gen", "random-sphere", "-n", "6", "-r", "3", "--seed", "6"])
        assert a != c

    def test_out_reports_digest(self, capsys, tmp_path):
        out = tmp_path / "cp.txt"
        code, report, _ = run_json(capsys, ["gen", "crosspolytope", "-r", "3", "--out", str(out)])
        assert code == 0
        res = report["result"]
        assert res["kind"] == "crosspolytope" and res["order"] == 6
        assert res["embedding_dim"] == 3 and res["unit_spherical"] is True
        with open(out, "rb") as fh:
            assert res["sha256"] == hashlib.sha256(fh.read()).hexdigest()
        npt.assert_array_equal(parse_matrix(out.read_text()), gen_crosspolytope(3).dist2)

    def test_missing_parameter(self, capsys):
        code, report, _ = run_json(capsys, ["gen", "simplex"])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "needs -n" in report["result"]["error"]

    @pytest.mark.parametrize("argv, error", [
        (["gen", "unit-simplex", "-r", "2"], "gen unit-simplex needs -n"),
        (["gen", "crosspolytope", "-n", "4"], "gen crosspolytope needs -r"),
        (["gen", "random-sphere", "-n", "4"], "gen random-sphere needs -n and -r"),
        (["gen", "random-sphere", "-r", "2"], "gen random-sphere needs -n and -r"),
    ])
    def test_each_kind_names_what_it_needs(self, capsys, argv, error):
        code, report, _ = run_json(capsys, argv)
        assert code == 2 and report["result"]["error"] == error

    def test_unknown_kind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "dodecahedron"])
        assert exc.value.code == 2

    def test_simplex_gamma(self, capsys):
        _, text = run_raw(capsys, ["gen", "simplex", "-n", "3", "--gamma", "3.0"])
        assert text.startswith("# gen simplex n=3 gamma=3.0\n")
        M = parse_matrix(text)
        npt.assert_array_equal(M, 3.0 * (np.ones((3, 3)) - np.eye(3)))


class TestSupportBySignRule:
    """A squared distance within tol.sign of 2 reads as orthogonal in every report."""

    def test_check_rankin_near_two_crosspolytope(self, capsys, tmp_path):
        path = tmp_path / "cross.txt"
        path.write_text(format_matrix_text(helpers.NEAR_TWO_CROSS))
        code, report, _ = run_json(capsys, ["check-rankin", str(path)])
        assert code == 0 and report["status"] == "ok"
        assert report["result"]["crosspolytope"]["ok"] is True

    def test_decompose_tilted_pair(self, capsys, tmp_path):
        path = tmp_path / "tilted.txt"
        path.write_text(format_matrix_text(helpers.TILTED_PAIR))
        code, report, _ = run_json(capsys, ["decompose", str(path)])
        assert code == 0 and report["status"] == "ok"
        assert [b["indices"] for b in report["result"]["blocks"]] == [[1, 2, 3], [4, 5]]
        npt.assert_allclose(report["result"]["cross_check"], 9e-8, rtol=1e-6)

    def test_validate_near_two_composition(self, capsys, tmp_path):
        path = tmp_path / "blocks.txt"
        path.write_text(format_matrix_text(helpers.NEAR_TWO_BLOCKS))
        code, report, _ = run_json(capsys, ["validate", str(path)])
        assert code == 0 and report["result"]["embedding_dim"] == 4
        assert report["checks"]["delta_dimension"]["dimension"] == 4


class TestCheckRankin:
    def test_crosspolytope_r2_runs_both_sections(self, capsys, tmp_path):
        # n = 4 = r + 2 = 2r: the one size where both extremal cases apply
        path = tmp_path / "cp2.txt"
        path.write_text(format_matrix_text(gen_crosspolytope(2).dist2))
        code, report, _ = run_json(capsys, ["check-rankin", str(path)])
        assert code == 0 and report["status"] == "ok"
        res = report["result"]
        assert res["mode"] == "file" and res["n"] == 4 and res["r"] == 2
        assert res["codimension2"]["ok"] is True
        assert res["codimension2"]["witness"] == [1, 3]
        assert res["codimension2"]["min_offdiag"] == 2.0
        assert res["crosspolytope"]["ok"] is True
        assert res["crosspolytope"]["permutation"] == [1, 2, 3, 4]

    def test_sample_mode(self, capsys):
        code, report, _ = run_json(
            capsys, ["check-rankin", "--sample", "2", "--trials", "5", "--seed", "1"]
        )
        assert code == 0 and report["status"] == "ok"
        res = report["result"]
        assert res["mode"] == "sample" and res["all_ok"] is True
        assert res["trials"] == 5 and len(res["min_offdiag_per_trial"]) == 5
        assert res["failures"] == []
        assert res["max_min_offdiag"] <= 2.0 + 1e-9

    def test_sample_deterministic(self, capsys):
        _, a, _ = run_json(capsys, ["check-rankin", "--sample", "3", "--trials", "4", "--seed", "7"])
        _, b, _ = run_json(capsys, ["check-rankin", "--sample", "3", "--trials", "4", "--seed", "7"])
        assert a["result"]["min_offdiag_per_trial"] == b["result"]["min_offdiag_per_trial"]

    def test_argument_validation(self, capsys, matrix_file):
        code, report, _ = run_json(capsys, ["check-rankin", matrix_file, "--sample", "2"])
        assert code == 2 and "not both" in report["result"]["error"]
        code, report, _ = run_json(capsys, ["check-rankin"])
        assert code == 2
        code, report, _ = run_json(capsys, ["check-rankin", "--sample", "1"])
        assert code == 2 and "r >= 2" in report["result"]["error"]
        code, report, _ = run_json(capsys, ["check-rankin", "--sample", "2", "--trials", "0"])
        assert code == 2 and "positive" in report["result"]["error"]

    def test_non_unit_crosspolytope_is_declined(self, capsys, tmp_path):
        # radius 1.1: min distance 2.42 passes, then Kuperberg's unit-sphere precondition declines
        path = tmp_path / "cp-scaled.txt"
        path.write_text(format_matrix_text(1.21 * helpers.permute_1based(gen_crosspolytope(3).dist2,
                                                                         [4, 1, 6, 2, 5, 3])))
        code, report, err = run_json(capsys, ["check-rankin", str(path)])
        assert code == 2 and report["status"] == "declined"
        res = report["result"]
        assert (res["n"], res["r"]) == (6, 3) and "codimension2" not in res
        cp = res["crosspolytope"]
        assert cp["ok"] is False and cp["permutation"] is None and cp["max_deviation"] is None
        assert "circumradius 1" in cp["reason"]
        assert "not a crosspolytope" in err and "circumradius 1" in err

    def test_no_extremal_case(self, capsys, tmp_path):
        path = tmp_path / "simplex.txt"
        path.write_text(format_matrix_text(gen_unit_simplex(4).dist2))
        code, report, _ = run_json(capsys, ["check-rankin", str(path)])
        assert code == 2
        assert "no extremal case applies" in report["result"]["error"]


class TestTolerances:
    def test_flag_override(self, capsys, matrix_file):
        _, report, _ = run_json(capsys, ["validate", matrix_file, "--tol-psd", "1e-3"])
        assert report["tolerances"]["psd"] == 1e-3
        assert report["tolerances"]["rank"] == 1e-8  # untouched

    def test_profile_flag(self, capsys, matrix_file):
        _, report, _ = run_json(capsys, ["validate", matrix_file, "--tol-profile", "strict"])
        assert report["profile"] == "strict"
        assert report["tolerances"]["psd"] == 1e-11

    def test_env_profile(self, capsys, matrix_file, monkeypatch):
        monkeypatch.setenv("EDM_SPHERE_TOL_PROFILE", "loose")
        _, report, _ = run_json(capsys, ["validate", matrix_file])
        assert report["profile"] == "loose"
        assert report["tolerances"]["psd"] == 1e-7

    def test_flag_beats_env(self, capsys, matrix_file, monkeypatch):
        monkeypatch.setenv("EDM_SPHERE_TOL_PROFILE", "loose")
        _, report, _ = run_json(capsys, ["validate", matrix_file, "--tol-profile", "default"])
        assert report["profile"] == "default"
        assert report["tolerances"]["psd"] == 1e-9

    def test_bogus_env_profile(self, capsys, matrix_file, monkeypatch):
        monkeypatch.setenv("EDM_SPHERE_TOL_PROFILE", "bogus")
        code, report, _ = run_json(capsys, ["validate", matrix_file])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert "unknown tolerance profile" in report["result"]["error"]

    @pytest.mark.parametrize("command, flag, value", [
        ("validate", "--tol-rank", "nan"),     # was status ok with embedding_dim 0
        ("orthorep", "--tol-cluster", "-1"),   # was status ok with minimality m = 0
        ("orthorep", "--tol-sign", "-1"),      # was exit 1, an internal fault
        ("validate", "--tol-psd", "inf"),
    ])
    def test_bad_override_is_rejected(self, capsys, matrix_file, graph_file, command, flag, value):
        path = matrix_file if command == "validate" else graph_file
        code, report, _ = run_json(capsys, [command, path, flag, value])
        assert code == 2
        assert report["status"] == "precondition-failed"
        assert flag in report["result"]["error"]

    def test_zero_override_is_legal(self, capsys, matrix_file):
        code, report, _ = run_json(capsys, ["validate", matrix_file, "--tol-cluster", "0"])
        assert code == 0
        assert report["tolerances"]["cluster"] == 0.0
        assert report["result"]["embedding_dim"] == 3


class TestExitCodes:
    def test_internal_value_error_is_a_fault(self, capsys, graph_file, monkeypatch):
        import edmsphere.orthorep as orthorep

        def broken(rep, tol=None):
            raise ValueError("broken minimality")

        # the orthorep handler imports minimality_bound from its module at call time
        monkeypatch.setattr(orthorep, "minimality_bound", broken)
        code, report, _ = run_json(capsys, ["orthorep", graph_file])
        assert code == 1
        assert report["status"] == "error"
        assert "broken minimality" in report["result"]["error"]

    @pytest.mark.parametrize("argv", [
        ["validate", "latin1.txt"],
        ["orthorep", "latin1.txt"],
        ["gen", "random-sphere", "-n", "5", "-r", "2", "--seed", "-1", "--out", "o.txt"],
        ["check-rankin", "--sample", "3", "--trials", "2", "--seed", "-1"],
    ])
    def test_bad_input_is_rejected(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.txt").write_bytes(b"\xff\xfe1\n0\n")
        code, report, _ = run_json(capsys, argv)
        assert code == 2
        assert report["status"] == "precondition-failed"


def test_failure_reports_are_valid_json(capsys, tmp_path):
    # every non-crash path must still emit one well-formed report
    for argv in (
        ["validate", str(tmp_path / "missing.txt")],
        ["check-rankin", "--sample", "0"],
        ["gen", "crosspolytope"],
    ):
        code, report, _ = run_json(capsys, argv)
        assert code == 2
        assert {"tool", "status", "result", "tolerances"} <= set(report)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "edmsphere" in capsys.readouterr().out
