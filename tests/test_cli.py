import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordproj import __version__, cli, shatter
from coordproj.cli import (
    DEFAULT_SEED,
    build_parser,
    main,
    read_matrix,
    render_report,
    write_matrix,
)
from coordproj.core import CoordinateSubset, FunctionClass, InputError
from coordproj.shatter import ShatterWitness, verify_witness


def write_csv(path, array) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(array):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    return str(path)


@pytest.fixture
def vec_csv(tmp_path):
    return write_csv(tmp_path / "vecs.csv", np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 2.0]]))


@pytest.fixture
def sign_csv(tmp_path):
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    return write_csv(tmp_path / "sign.csv", rows)


class TestReadMatrix:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.5, 2.5\n-3, 4e-2\n")
        data = read_matrix(str(p))
        assert np.array_equal(data, np.array([[1.5, 2.5], [-3.0, 0.04]]))

    def test_header_comments_blanks(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x,y\n# a comment\n\n1,2\n\n3,4\n")
        data = read_matrix(str(p))
        assert np.array_equal(data, np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("text", ["1,2x\n3,4\n", "a,b\nc,d\n1,2\n"])
    def test_only_the_first_line_may_be_a_header(self, tmp_path, text):
        p = tmp_path / "h.csv"
        p.write_text(text)
        with pytest.raises(InputError) as exc:
            read_matrix(str(p))
        assert exc.value.code == "BAD_CSV"

    def test_numeric_first_row_is_data(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("7,8\n")
        assert read_matrix(str(p)).shape == (1, 2)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(InputError) as exc:
            read_matrix(str(p))
        assert exc.value.code == "RAGGED_CSV"

    def test_non_numeric_mid_file_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2\noops,4\n")
        with pytest.raises(InputError) as exc:
            read_matrix(str(p))
        assert exc.value.code == "BAD_CSV"

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("# nothing here\n")
        with pytest.raises(InputError) as exc:
            read_matrix(str(p))
        assert exc.value.code == "EMPTY_CSV"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-12, 12, size=(5, 4))
        data[0, 0] = 1.0 / 3.0
        p = tmp_path / "g.csv"
        write_matrix(str(p), ["a", "b", "c", "d"], data.tolist())
        back = read_matrix(str(p))
        assert np.array_equal(back, data)


class TestRenderReport:
    def test_seventeen_digit_floats(self):
        text = render_report({"x": 1.0 / 3.0, "y": [0.1, 2.0]})
        parsed = json.loads(text)
        assert parsed["x"] == 1.0 / 3.0
        assert parsed["y"] == [0.1, 2.0]
        assert "0.33333333333333331" in text

    def test_non_finite_words(self):
        text = render_report({"a": math.nan, "b": math.inf, "c": -math.inf})
        assert "NaN" in text and "Infinity" in text and "-Infinity" in text
        parsed = json.loads(text)
        assert math.isnan(parsed["a"]) and parsed["b"] == math.inf

    def test_trailing_newline(self):
        assert render_report({}).endswith("\n")


class TestExitCodes:
    def test_success(self, vec_csv, capsys):
        assert main(["psi", "--input", vec_csv, "--p", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 3
        assert report["command"] == "psi"

    def test_validation_error(self, vec_csv, capsys):
        code = main(["psi", "--input", vec_csv, "--p", "0.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "BAD_EXPONENT"

    def test_size_cap(self, tmp_path, capsys):
        path = write_csv(tmp_path / "wide.csv", np.ones((2, 25)))
        code = main(["shatter", "--input", path, "--t", "0.5"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "SIZE_CAP"

    def test_io_error(self, tmp_path, capsys):
        code = main(["psi", "--input", str(tmp_path / "missing.csv")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "IO"

    def test_argparse_rejects_unknown_flag(self, vec_csv):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--input", vec_csv, "--bogus"])
        assert exc.value.code == 2

    def test_threads_flag_removed(self, vec_csv):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--input", vec_csv, "--threads", "1"])
        assert exc.value.code == 2

    def test_failed_certificate(self, sign_csv, capsys, monkeypatch):
        monkeypatch.setattr(shatter, "verify_witness", lambda *a, **k: False)
        code = main(["shatter", "--input", sign_csv, "--t", "0.5"])
        assert code == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "CERTIFICATE"

    @pytest.mark.parametrize("rows, exit_code", [
        ([[1e308, 0.0, -1.0], [1.0, 1.0, 1.0]], 0),
        ([[1e308] * 8], 2),
    ])
    def test_huge_class_averages_stay_in_range_or_overflow(self, tmp_path, rows, exit_code):
        # a fresh interpreter that turns every numpy RuntimeWarning into a traceback
        path = write_csv(tmp_path / "huge.csv", np.array(rows))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "coordproj", "complexity",
             "--input", path, "--trials", "100", "--k", "1", "--eps", "0.5", "--kmax", "1"],
            capture_output=True, text=True)
        assert proc.returncode == exit_code
        if exit_code == 0:
            assert proc.stderr == ""
            results = json.loads(proc.stdout)["results"]
            means = [results[key]["mean"] for key in ("gaussian", "rademacher", "ell")]
            assert all(0.0 < m < math.inf for m in means)
        else:
            assert proc.stdout == ""
            assert json.loads(proc.stderr) == {"error": {
                "code": "OVERFLOW",
                "message": "the average or its standard error exceeds the float range"}}

    def test_memory_exhausted(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(cli, "l1_domination", exhausted)
        path = write_csv(tmp_path / "points.csv", np.eye(2))
        code = main(["hull", "--input", path, "--t", "0.5", "--mode", "sampled",
                     "--samples", "1000000000000"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {"code": "MEMORY",
                                                     "message": "Unable to allocate 14.6 TiB"}

    @pytest.mark.parametrize("norm", ["nan", "inf"])
    def test_non_finite_norm_rejected(self, tmp_path, capsys, norm):
        path = write_csv(tmp_path / "eye.csv", np.eye(4))
        code = main(["typecmp", "--input", path, "--norm", norm, "--trials", "100"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "BAD_EXPONENT"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestSeedResolution:
    def test_explicit_seed_echoed(self, vec_csv, capsys):
        main(["psi", "--input", vec_csv, "--seed", "42"])
        assert json.loads(capsys.readouterr().out)["seed"] == 42

    def test_default_seed(self, vec_csv, capsys):
        main(["psi", "--input", vec_csv])
        assert json.loads(capsys.readouterr().out)["seed"] == DEFAULT_SEED


class TestDeterminism:
    def test_byte_identical_reports(self, sign_csv, capsys):
        argv = ["complexity", "--input", sign_csv, "--trials", "300",
                "--seed", "11", "--deterministic"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert "timing_ms" not in json.loads(first)

    def test_timing_present_by_default(self, vec_csv, capsys):
        main(["psi", "--input", vec_csv])
        report = json.loads(capsys.readouterr().out)
        assert "timing_ms" in report and report["timing_ms"] >= 0.0


class TestReportShape:
    def test_common_fields_and_config_echo(self, vec_csv, capsys):
        main(["project", "--input", vec_csv, "--delta", "0.3", "--trials", "500",
              "--seed", "3", "--deterministic"])
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == __version__
        assert report["command"] == "project"
        config = report["config"]
        assert config["delta"] == 0.3
        assert config["trials"] == 500
        assert config["deterministic"] is True
        assert config["input"] == vec_csv
        assert "output" in config and "csv_out" in config
        assert isinstance(report["fitted_constants"], list)
        assert isinstance(report["flags"], list)

    def test_output_file_instead_of_stdout(self, vec_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["psi", "--input", vec_csv, "--output", str(out)])
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["command"] == "psi"

    def test_csv_out(self, vec_csv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        main(["psi", "--input", vec_csv, "--csv-out", str(out)])
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,psi"
        assert len(lines) == 3


class TestPsiCommand:
    def test_constant_row_value(self, vec_csv, capsys):
        main(["psi", "--input", vec_csv, "--p", "2", "--tol", "1e-12"])
        report = json.loads(capsys.readouterr().out)
        rows = report["results"]["rows"]
        # a constant row c solves mean exp(c^p/x^p) = e at x = c
        assert rows[0]["psi"] == pytest.approx(3.0, abs=1e-9)
        assert rows[0]["index"] == 1

    @pytest.mark.parametrize("flag,value,code", [
        ("--p", "nan", "BAD_EXPONENT"),
        ("--p", "inf", "BAD_EXPONENT"),
        ("--tol", "nan", "BAD_INPUT"),
        ("--tol", "inf", "BAD_INPUT"),
    ])
    def test_non_finite_arguments_rejected(self, tmp_path, capsys, flag, value, code):
        path = write_csv(tmp_path / "spike.csv", np.array([[1.0, 0.0]]))
        assert main(["psi", "--input", path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == code

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_row_rejected(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n3,{entry}\n", encoding="utf-8")
        assert main(["psi", "--input", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "BAD_INPUT"

    def test_extreme_spikes_match_closed_form(self, tmp_path, capsys):
        # the 1e-300 and 5e307 spikes were once printed far off and as Infinity
        peaks = [1e-300, 1e-12, 1.0, 1e8, 5e307]
        data = np.zeros((len(peaks), 2))
        data[:, 0] = peaks
        assert main(["psi", "--input", write_csv(tmp_path / "s.csv", data)]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        fill = math.log(2.0 * (math.e - 1.0) + 1.0)
        for peak, row in zip(peaks, rows):
            assert row["psi"] == pytest.approx(peak / math.sqrt(fill), rel=1e-9)


class TestProjectCommand:
    def test_tail_fields_and_flags(self, tmp_path, capsys):
        path = write_csv(tmp_path / "ones.csv", np.ones((1, 60)))
        main(["project", "--input", path, "--delta", "0.3", "--t", "0.25",
              "--trials", "2000", "--seed", "9"])
        report = json.loads(capsys.readouterr().out)
        tail = report["results"]["rows"][0]["tail"]
        for key in ("empirical_prob", "chernoff_bound", "exact_prob", "fitted_c", "psi1"):
            assert key in tail
        assert 0.0 <= report["results"]["rows"][0]["success_prob"] <= 1.0

    def test_success_prob_does_not_depend_on_t(self, tmp_path, capsys):
        # the tail is read off the same draws as the isometry event
        rows = np.random.default_rng(5).standard_normal((3, 40))
        path = write_csv(tmp_path / "gauss.csv", rows)
        probs = []
        for extra in ([], ["--t", "0.3"]):
            assert main(["project", "--input", path, "--delta", "0.3", "--eps", "0.1",
                         "--trials", "3000", "--deterministic", *extra]) == 0
            rows_out = json.loads(capsys.readouterr().out)["results"]["rows"]
            probs.append([row["success_prob"] for row in rows_out])
        assert probs[0] == probs[1]
        assert all(0.0 < p < 1.0 for p in probs[0])


class TestJlCommand:
    def test_report_fields(self, tmp_path, capsys):
        basis = np.sqrt(16.0) * np.eye(16)
        path = write_csv(tmp_path / "basis.csv", basis)
        main(["jl", "--input", path, "--eps", "0.4", "--seed", "2"])
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["n"] == 16 and res["vectors"] == 16
        assert res["sigma_size"] == len(res["sigma"])
        assert isinstance(res["success"], bool)
        assert len(res["ratios"]) == 16

    def test_no_compression_flag(self, tmp_path, capsys):
        basis = np.sqrt(8.0) * np.eye(8)
        path = write_csv(tmp_path / "basis8.csv", basis)
        main(["jl", "--input", path, "--eps", "0.05", "--cfit", "2.0", "--seed", "2"])
        report = json.loads(capsys.readouterr().out)
        assert "NO_COMPRESSION" in report["flags"]


class TestShatterCommand:
    def test_sign_class_witness(self, sign_csv, capsys):
        main(["shatter", "--input", sign_csv, "--t", "0.25"])
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["dimension"] == 3
        w = res["witness"]
        assert w["sigma"] == [1, 2, 3]
        assert len(w["assignment"]) == 8
        patterns = {entry["pattern"] for entry in w["assignment"]}
        assert patterns == {"".join(p) for p in itertools.product("+-", repeat=3)}
        assert all(1 <= entry["function"] <= 8 for entry in w["assignment"])


    def test_levels_near_the_float_maximum(self, tmp_path, capsys):
        data = np.array([[1.7e308], [1.0e308]])
        path = write_csv(tmp_path / "huge.csv", data)
        assert main(["shatter", "--input", path, "--t", "1e307"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["dimension"] == 1
        w = res["witness"]
        witness = ShatterWitness(
            sigma=CoordinateSubset(tuple(w["sigma"]), 1),
            level=np.array(w["levels"]),
            assignment={tuple(1 if c == "+" else -1 for c in e["pattern"]): e["function"] - 1
                        for e in w["assignment"]},
            scale=w["scale"],
        )
        assert verify_witness(FunctionClass(data), witness)


class TestHullCommand:
    def test_agreement_both_sides(self, tmp_path, capsys):
        path = write_csv(tmp_path / "eye4.csv", np.eye(4))
        for t in ("0.2", "0.3"):
            main(["hull", "--input", path, "--t", t, "--seed", "1"])
            report = json.loads(capsys.readouterr().out)
            res = report["results"]
            assert res["epsilon_star"] == pytest.approx(0.25, abs=1e-9)
            assert res["hull_shattered"] == (float(t) <= 0.25)
            assert res["agreement"] is True

    def test_failed_lp_exits_with_certificate_error(self, tmp_path, capsys, monkeypatch):
        # HiGHS status 4: numerical difficulties
        monkeypatch.setattr(shatter, "linprog", lambda *a, **k: SimpleNamespace(status=4))
        path = write_csv(tmp_path / "eye2.csv", np.eye(2))
        assert main(["hull", "--input", path, "--t", "0.4"]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "CERTIFICATE"

    def test_hull_witness_has_weights(self, tmp_path, capsys):
        path = write_csv(tmp_path / "eye2.csv", np.eye(2))
        main(["hull", "--input", path, "--t", "0.4", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        w = report["results"]["hull_witness"]
        assert w is not None
        assert "margin" in w
        for entry in w["assignment"]:
            assert "weights" in entry
            assert sum(entry["weights"]) == pytest.approx(1.0, abs=1e-6)


class TestEntropyCommand:
    def test_constant_and_rows(self, sign_csv, capsys):
        main(["entropy", "--input", sign_csv, "--t-grid", "0.4,0.8", "--c-assumed", "0.25"])
        report = json.loads(capsys.readouterr().out)
        assert len(report["fitted_constants"]) == 1
        const = report["fitted_constants"][0]
        assert const["name"] == "K_entropy"
        assert const["protocol"]
        assert len(report["results"]["rows"]) == 2


class TestComplexityCommand:
    def test_both_kinds_with_t(self, sign_csv, capsys, tmp_path):
        csv_out = tmp_path / "perk.csv"
        main(["complexity", "--input", sign_csv, "--trials", "400", "--eps", "0.5",
              "--kmax", "3", "--seed", "4", "--csv-out", str(csv_out)])
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert "gaussian" in res and "rademacher" in res
        assert res["rademacher"]["mean"] == 3.0
        assert res["t_parameter"]["value"] == 3
        assert "CAPPED" in report["flags"]
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "k,mean,std_error"
        assert len(lines) == 4

    def test_ell_only(self, sign_csv, capsys):
        main(["complexity", "--input", sign_csv, "--kind", "gaussian",
              "--trials", "400", "--k", "2", "--seed", "4"])
        report = json.loads(capsys.readouterr().out)
        assert "ell" in report["results"]
        assert "rademacher" not in report["results"]
        assert report["results"]["ell"]["support"]


class TestTypecmpCommand:
    def test_rows_and_norm_parse(self, tmp_path, capsys):
        path = write_csv(tmp_path / "eye6.csv", np.eye(6))
        main(["typecmp", "--input", path, "--norm", "2", "--delta-grid", "0.5,1.0",
              "--trials", "300", "--seed", "6"])
        report = json.loads(capsys.readouterr().out)
        rows = report["results"]["rows"]
        assert [r["subset_size"] for r in rows] == [3, 6]
        assert all(r["m_emp"] == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_bad_norm(self, tmp_path, capsys):
        path = write_csv(tmp_path / "eye3.csv", np.eye(3))
        code = main(["typecmp", "--input", path, "--norm", "euclidean"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "BAD_NORM"


class TestAuditCommand:
    def test_constant_and_curve(self, sign_csv, capsys):
        main(["audit", "--input", sign_csv, "--trials", "400", "--grid-points", "9",
              "--seed", "8"])
        report = json.loads(capsys.readouterr().out)
        assert report["fitted_constants"][0]["name"] == "K_complexity"
        res = report["results"]
        assert len(res["grid"]) == 9 and len(res["vc_curve"]) == 9
        assert res["vc_curve"][0] == 3


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0])))
        commands = set(sub.choices)
        assert commands == {"psi", "project", "jl", "shatter", "hull",
                            "entropy", "complexity", "typecmp", "audit"}


class TestArgumentContract:
    @pytest.mark.parametrize("argv", [
        [cmd, "--t", value] + extra
        for cmd, extra in (("shatter", []), ("hull", []),
                           ("project", ["--delta", "0.5", "--trials", "10"]))
        for value in ("nan", "inf")
    ] + [
        ["entropy", "--c-assumed", "nan"], ["entropy", "--c-assumed", "inf"],
        ["jl", "--eps", "0.5", "--cfit", "nan"], ["jl", "--eps", "0.5", "--cfit", "inf"],
        ["typecmp", "--subsets", "0", "--trials", "100"],
        ["typecmp", "--subsets", "-1", "--trials", "100"],
        ["shatter", "--t", "0.5", "--max-sigma", "0"],
        ["shatter", "--t", "0.5", "--max-sigma", "-1"],
        ["hull", "--t", "0.5", "--mode", "sampled", "--samples", "-1"],
        ["hull", "--t", "0.5", "--max-sigma", "0"],
        ["hull", "--t", "0.5", "--max-sigma", "-1"],
    ])
    def test_invalid_scale_or_count_exits_2(self, tmp_path, capsys, argv):
        # unit rows: a sign class for the others, points of the unit ball for typecmp
        data = np.eye(4) if argv[0] == "typecmp" else np.array(
            [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        path = write_csv(tmp_path / "data.csv", data)
        assert main([argv[0], "--input", path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] in ("BAD_INPUT", "BAD_CONSTANT")

    def _project(self, tmp_path, capsys, weights, t):
        path = write_csv(tmp_path / "w.csv", weights)
        code = main(["project", "--input", path, "--delta", "0.3", "--t", t,
                     "--trials", "200", "--deterministic"])
        assert code == 0, capsys.readouterr().err
        return json.loads(capsys.readouterr().out)

    def test_project_on_huge_weights(self, tmp_path, capsys):
        report = self._project(tmp_path, capsys, np.full((1, 20), 1e200), "0.1")
        tail = report["results"]["rows"][0]["tail"]
        assert tail["chernoff_bound"] == 1.0
        assert tail["psi1"] > 1e199

    def test_project_at_an_underflowing_scale(self, tmp_path, capsys):
        report = self._project(tmp_path, capsys, np.ones((1, 20)), "1e-320")
        assert report["results"]["rows"][0]["tail"]["fitted_c"] is None
        assert "UNRESOLVED_TAIL" in report["flags"]

    def test_project_on_tiny_weights_matches_unit_weights(self, tmp_path, capsys):
        weights = np.linspace(0.5, 1.0, 20)[None, :]
        unit = self._project(tmp_path, capsys, weights, "0.1")["results"]["rows"][0]
        tiny = self._project(tmp_path, capsys, 1e-300 * weights, "0.1")["results"]["rows"][0]
        assert tiny["success_prob"] == unit["success_prob"]

    @pytest.mark.parametrize("argv, rows", [
        (["project", "--delta", "0.5", "--t", "0.5", "--trials", "100"], [[1e308, 1e308, -1e308]]),
        (["shatter", "--t", "0.5"], [[1e308, 1.0, -1.0], [-1e308, -1.0, 1.0]]),
        (["jl", "--eps", "0.5"], [[1e308, 1e308, -1e308, 1e308]]),
        (["typecmp", "--trials", "100"], [[1e308, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
    ], ids=["project", "shatter", "jl", "typecmp"])
    def test_weights_near_the_float_maximum_raise_no_warning(self, tmp_path, argv, rows):
        # a fresh interpreter that turns every numpy RuntimeWarning into a traceback
        path = write_csv(tmp_path / "huge.csv", np.array(rows))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "coordproj", argv[0],
             "--input", path, *argv[1:], "--deterministic"],
            capture_output=True, text=True)
        if argv[0] in ("jl", "typecmp"):
            # off the unit sphere, outside the unit ball: stderr holds the JSON error alone
            assert proc.returncode == 2
            assert json.loads(proc.stderr)["error"]["code"] == "BAD_INPUT"
            return
        assert (proc.returncode, proc.stderr) == (0, "")
        results = json.loads(proc.stdout)["results"]
        if argv[0] == "project":
            # Z > 0.75 is Z > 0 at this scale, as for the weights (1, 1, -1)
            assert abs(results["rows"][0]["tail"]["exact_prob"] - 0.5) <= 2**-52
        else:
            assert results["dimension"] == 1

    def test_jl_huge_constant_keeps_every_coordinate(self, tmp_path, capsys):
        path = write_csv(tmp_path / "basis8.csv", np.sqrt(8.0) * np.eye(8))
        assert main(["jl", "--input", path, "--eps", "0.25", "--cfit", "1e200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "NO_COMPRESSION" in report["flags"]
        assert report["results"]["target_cardinality"] == 8


# runs in a fresh interpreter: the subcommands of argv[1:] in order, each
# printing the scipy modules loaded so far
_SCIPY_PROBE = """
import contextlib, io, json, sys
import coordproj
from coordproj import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps([argv[0], code, scipy]))
"""


def test_scipy_is_loaded_only_by_hull(tmp_path, sign_csv):
    eye = write_csv(tmp_path / "eye.csv", np.eye(4))
    ones = write_csv(tmp_path / "ones.csv", np.ones((1, 6)))
    calls = [
        ["psi", "--input", sign_csv],
        ["jl", "--input", sign_csv, "--eps", "0.5"],
        ["complexity", "--input", sign_csv, "--trials", "100", "--k", "1", "--eps", "0.5",
         "--kmax", "2"],
        ["typecmp", "--input", eye, "--trials", "100"],
        ["shatter", "--input", sign_csv, "--t", "0.5"],
        ["entropy", "--input", sign_csv],
        ["audit", "--input", sign_csv, "--trials", "100", "--grid-points", "3"],
        # equal weights: the exact tail is a binomial tail
        ["project", "--input", ones, "--delta", "0.5", "--t", "0.1", "--trials", "100"],
        ["hull", "--input", eye, "--t", "0.3"],
    ]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line[:2] for line in lines] == [[argv[0], 0] for argv in calls]
    *scipy_free, hull = lines
    assert all(not loaded for _, _, loaded in scipy_free)
    assert "scipy.optimize" in hull[2]


# half the draws are ordinary, so that runs get past the first check
def _real(ordinary):
    return st.one_of(st.just(ordinary),
                     st.sampled_from(("nan", "inf", "0", "-1", "1e-320", "1e308")))


def _count(smallest):
    # argparse turns non-integers away before the program runs, and a large
    # count is work rather than bad input, so counts stay small
    return st.one_of(st.just(smallest), st.sampled_from(("0", "-1")))


_CELL = st.one_of(st.sampled_from(("1", "-1", "0.5")),
                  st.sampled_from(("nan", "inf", "-inf", "1e308", "1e-320", "0")))


_FLAGS = {
    "psi": {"--p": _real("2"), "--tol": _real("1e-10")},
    "project": {"--delta": _real("0.5"), "--eps": _real("0.25"), "--t": _real("0.5"),
                "--trials": _count("1")},
    "jl": {"--eps": _real("0.5"), "--cfit": _real("0.5")},
    "shatter": {"--t": _real("0.5"), "--max-sigma": _count("2")},
    "hull": {"--t": _real("0.3"), "--norm": _real("sup"),
             "--mode": st.sampled_from(("exact", "sampled")), "--samples": _count("4"),
             "--max-sigma": _count("4")},
    "entropy": {"--t-grid": _real("0.5"), "--c-assumed": _real("0.25")},
    "complexity": {"--kind": st.sampled_from(("gaussian", "rademacher", "both")),
                   "--trials": _count("100"), "--k": _count("2"), "--eps": _real("0.5"),
                   "--kmax": _count("2")},
    "typecmp": {"--norm": _real("2"), "--delta-grid": _real("0.5"), "--trials": _count("100"),
                "--subsets": _count("1")},
    "audit": {"--trials": _count("100"), "--grid-points": _count("2")},
}


@st.composite
def _csv_text(draw):
    width = draw(st.integers(1, 4))
    cells = st.lists(_CELL, min_size=width, max_size=width)
    lines = [",".join(row) for row in draw(st.lists(cells, max_size=4))]
    # a blank line, or a one-cell row that is ragged when the width exceeds 1
    extra = draw(st.sampled_from((None, "", "1")))
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        argv += [flag, draw(values)]
    return argv, draw(_csv_text())


@given(case=_invocations())
def test_cli_fuzz_exits_with_a_code_and_json(tmp_path_factory, case):
    argv, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--input", str(path), *argv[1:], "--deterministic"])
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        json.loads(out.getvalue())
    else:
        error = json.loads(err.getvalue())["error"]
        assert set(error) == {"code", "message"}
