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

from coordproj import __version__, cli, complexity, core, selector, shatter
from coordproj.cli import (
    DEFAULT_SEED,
    build_parser,
    main,
    read_matrix,
    render_report,
    write_matrix,
)
from coordproj.core import CoordinateSubset, FunctionClass, InputError
from coordproj.selector import exact_success_prob
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


def reference_read(path):
    """The per-line parser read_matrix must agree with: the array, or the error's (code, message)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [s for s in (raw.strip() for raw in fh) if s and not s.startswith("#")]
    rows = []
    for i, line in enumerate(lines):
        parts = line.split(",")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            numeric = []
            for p in parts:
                try:
                    numeric.append(float(p))
                except ValueError:
                    pass
            if i > 0 or numeric:
                return ("BAD_CSV", f"unparseable row: {line!r}")
    if not rows:
        return ("EMPTY_CSV", f"no numeric rows in {path}")
    for i, r in enumerate(rows):
        if len(r) != len(rows[0]):
            return ("RAGGED_CSV", f"row {i + 1} has {len(r)} fields, expected {len(rows[0])}")
    return np.array(rows)


_CSV_PLAIN = ("1", "-2.5", "0.1", "3e-7", "+.5")
_CSV_ODD = (" 1 ", "\t2", "\xa03", "1_0", "\u0661\u0662", "nan", "-nan", "inf", "-Infinity",
            "1e500", "-1e-400", "", "x", "2#c", "0x1p3")


@st.composite
def _csv_files(draw):
    """CSV text: rows of plain and odd cells, with blank lines, comments, trailing
    commas, ragged rows, a header and a byte order mark, each drawn or not."""
    width = draw(st.integers(1, 3))
    cell = st.sampled_from(_CSV_PLAIN * 6 + _CSV_ODD)
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.lists(cell, min_size=width, max_size=width))
        if draw(st.integers(0, 7)) == 0:  # ragged
            row = row + [draw(cell)] if draw(st.booleans()) or width == 1 else row[1:]
        lines.append(",".join(row) + ("," if draw(st.integers(0, 9)) == 0 else ""))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(("", "   ", "# note", "#1,2"))))
    if draw(st.booleans()):
        lines.insert(0, ",".join(["a"] * width))
    return ("\ufeff" if draw(st.booleans()) else "") + "\n".join(lines) + "\n"


class TestReadMatrixAgainstReference:
    @given(text=_csv_files())
    def test_matches_the_per_line_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "prop.csv"
        path.write_text(text, encoding="utf-8")
        expected = reference_read(str(path))
        try:
            got = read_matrix(str(path))
        except InputError as exc:
            assert (exc.code, str(exc)) == expected
            return
        assert isinstance(expected, np.ndarray), expected
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeff1,2\n3,4\n", encoding="utf-8")
        assert np.array_equal(read_matrix(str(p)), np.array([[1.0, 2.0], [3.0, 4.0]]))
        p.write_text("\ufeffx,y\n1,2\n", encoding="utf-8")
        assert np.array_equal(read_matrix(str(p)), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("text, shape", [("1\n2\n3\n", (3, 1)), ("5\n", (1, 1)),
                                             ("1_0,\u0661\n", (1, 2))])
    def test_shapes_and_float_spellings(self, tmp_path, text, shape):
        p = tmp_path / "s.csv"
        p.write_text(text, encoding="utf-8")
        assert read_matrix(str(p)).shape == shape


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
        assert report["schema"] == 12
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
        monkeypatch.setattr(shatter, "_gaps_clear", lambda *a: False)
        code = main(["shatter", "--input", sign_csv, "--t", "0.5"])
        assert code == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "CERTIFICATE"

    def test_corrupted_solvers_exit_5(self, tmp_path, capsys, monkeypatch):
        # swapped carriers fail their gaps, and a doubled domination value fails at the
        # unit peak though at the data's scale 1e-8 it is off by only 5e-9
        search, solve = shatter._least_carriers, shatter._vertex_domination
        monkeypatch.setattr(shatter, "_least_carriers",
                            lambda *a: [first[::-1] for first in search(*a)])
        monkeypatch.setattr(shatter, "_vertex_domination",
                            lambda x: (2.0 * solve(x)[0], solve(x)[1]))
        signs = write_csv(tmp_path / "signs.csv", np.array([[1.0], [-1.0]]))
        tiny = write_csv(tmp_path / "tiny.csv", 1e-8 * np.array([[1.0, 0.3], [0.2, -1.0]]))
        for argv in (["shatter", "--input", signs, "--t", "0.5"],
                     ["hull", "--input", tiny, "--t", "1e-9"]):
            assert main(argv) == 5
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"]["code"] == "CERTIFICATE"

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
        code = main(["hull", "--input", path, "--t", "0.5", "--norm", "2",
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

    def test_exact_success_prob_sits_next_to_the_frequency(self, tmp_path, capsys):
        # 2^40 count vectors for 40 distinct weights: past the cap, so None and a nan cell
        rows = np.vstack([np.r_[np.zeros(10), np.ones(30)], np.arange(1.0, 41.0)])
        path = write_csv(tmp_path / "two.csv", rows)
        csv_out = tmp_path / "project.csv"
        assert main(["project", "--input", path, "--delta", "0.3", "--eps", "0.2",
                     "--trials", "20000", "--seed", "3", "--csv-out", str(csv_out)]) == 0
        grouped, distinct = json.loads(capsys.readouterr().out)["results"]["rows"]
        exact = grouped["exact_success_prob"]
        assert exact == exact_success_prob(rows[0], 0.3, 0.2)
        assert abs(grouped["success_prob"] - exact) <= 5.0 * math.sqrt(exact * (1 - exact) / 20000)
        assert distinct["exact_success_prob"] is None
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "index,success_prob,exact_success_prob"
        assert lines[2].split(",")[2] == "NaN"

    def test_count_vectors_are_enumerated_once_per_row(self, tmp_path, capsys, monkeypatch):
        # the exact success probability is summed on the histogram's own count vectors
        rows = np.vstack([np.r_[np.zeros(10), np.ones(30)],
                          np.r_[np.zeros(5), np.full(10, 0.5), np.ones(25)]])
        path = write_csv(tmp_path / "two.csv", rows)
        enumerated, count_vectors = [], selector._count_vectors
        monkeypatch.setattr(selector, "_count_vectors",
                            lambda *args: enumerated.append(args) or count_vectors(*args))
        assert main(["project", "--input", path, "--delta", "0.3", "--eps", "0.2",
                     "--trials", "1000", "--seed", "3"]) == 0
        got = [row["exact_success_prob"] for row in
               json.loads(capsys.readouterr().out)["results"]["rows"]]
        assert len(enumerated) == 2
        assert got == [exact_success_prob(row, 0.3, 0.2) for row in rows]

    @pytest.mark.parametrize("t", ["0.025", "0.024999999999999988"])
    def test_tie_row_frequency_meets_its_exact_tail(self, tmp_path, capsys, t):
        # three selections give Z = t delta n in exact arithmetic: the exact tail must
        # put them on the side where a trillion trials put them
        path = write_csv(tmp_path / "tie.csv", np.array([[0.8, -0.9, 0.1, -0.1]]))
        assert main(["project", "--input", path, "--delta", "0.2", "--t", t,
                     "--trials", str(10**12), "--deterministic"]) == 0
        tail = json.loads(capsys.readouterr().out)["results"]["rows"][0]["tail"]
        p = tail["exact_prob"]
        assert abs(tail["empirical_prob"] - p) <= 5.0 * math.sqrt(p * (1.0 - p) / 10**12)

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

    def test_rows_past_the_substream_span_exit_3(self, tmp_path, capsys, monkeypatch):
        # row i takes substream label 2i + 1: with a span of 5 labels two rows fit, and
        # three or four are refused before any row runs
        calls = []
        monkeypatch.setattr(core, "_SUBSTREAM_SPAN", 5)
        monkeypatch.setattr(cli, "selector_experiment",
                            lambda *a, **k: calls.append(a) or selector.selector_experiment(*a, **k))
        for count, code in ((2, 0), (3, 3), (4, 3)):
            path = write_csv(tmp_path / "rows.csv", np.ones((count, 4)))
            calls.clear()
            assert main(["project", "--input", path, "--delta", "0.5", "--trials", "100"]) == code
            captured = capsys.readouterr()
            assert len(calls) == (count if code == 0 else 0)
            if code == 3:
                assert captured.out == ""
                assert json.loads(captured.err)["error"]["code"] == "SIZE_CAP"


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
    def test_mode_flag_is_rejected(self, tmp_path, capsys):
        # the points pick the exact or sampled path; there is no switch for it
        path = write_csv(tmp_path / "eye4.csv", np.eye(4))
        for mode in ("exact", "sampled"):
            with pytest.raises(SystemExit) as exc:
                main(["hull", "--input", path, "--t", "0.2", "--mode", mode])
            assert exc.value.code == 2
            assert "--mode" in capsys.readouterr().err

    def test_agreement_both_sides(self, tmp_path, capsys):
        path = write_csv(tmp_path / "eye4.csv", np.eye(4))
        for t in ("0.2", "0.3"):
            main(["hull", "--input", path, "--t", t, "--seed", "1"])
            report = json.loads(capsys.readouterr().out)
            res = report["results"]
            assert res["epsilon_star"] == pytest.approx(0.25, abs=1e-9)
            assert res["hull_shattered"] == (float(t) <= 0.25)
            assert res["agreement"] is True

    @pytest.mark.parametrize("scale, t", [(1e-6, "4e-7"), (1e-300, "1e-290")])
    def test_no_shattering_below_t_at_small_scales(self, tmp_path, capsys, scale, t):
        # epsilon_star is scale / 3 < t; an absolute LP tolerance of 1e-7 accepted
        # the LP margin (3.33e-7, and -0 at 1e-300) as reaching t
        path = write_csv(tmp_path / "eye3.csv", scale * np.eye(3))
        assert main(["hull", "--input", path, "--t", t, "--seed", "1"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["epsilon_star"] == pytest.approx(scale / 3.0, rel=1e-9)
        assert res["hull_shattered"] is False
        assert res["hull_witness"] is None
        assert res["agreement"] is True

    def test_shattering_found_at_tiny_scale(self, tmp_path, capsys):
        # epsilon_star is 3.3e-301 >= t; at the data's scale the LP's absolute
        # tolerances gave margin 0, and the report said false with agreement false
        path = write_csv(tmp_path / "eye3.csv", 1e-300 * np.eye(3))
        assert main(["hull", "--input", path, "--t", "1e-301", "--seed", "1"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["hull_shattered"] is True
        assert res["agreement"] is True
        assert res["hull_witness"]["margin"] == pytest.approx(1e-300 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("scale, t", [(1.0, "1e-17"), (1e-200, "1e-217")])
    def test_dependent_points_agree_at_small_scales(self, tmp_path, capsys, scale, t):
        # four points in R^2: epsilon_star is 0, not the float residue of a null
        # vector (2.99e-16, 3.07e-216), which passed t while the hull margin is 0
        rows = scale * np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        path = write_csv(tmp_path / "dependent.csv", rows)
        assert main(["hull", "--input", path, "--t", t, "--seed", "1"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["domination_method"] == "exact-rank"
        assert res["epsilon_star"] == 0.0
        assert res["hull_shattered"] is False
        assert res["agreement"] is True

    def test_failed_lp_exits_with_certificate_error(self, tmp_path, capsys, monkeypatch):
        # HiGHS status 4: numerical difficulties. Two points in R^200 with 200 distinct
        # nonzero coordinate pairs are past the vertex gate, so the joint LP decides the
        # hull; under the Euclidean norm domination is sampled and runs no LP of its own
        monkeypatch.setattr(shatter, "linprog", lambda *a, **k: SimpleNamespace(status=4))
        points = np.vstack([np.ones(200), np.linspace(-1.0, 1.0, 200)]) / 16.0
        path = write_csv(tmp_path / "two200.csv", points)
        assert main(["hull", "--input", path, "--t", "0.02", "--norm", "2"]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "CERTIFICATE"
        assert "hull shattering LP failed with status 4" in err["error"]["message"]

    def test_minimizer_off_its_value_exits_with_certificate_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        # a solved LP whose minimizer a = (1, 0) has sup norm 1, not the reported 0.25;
        # two points in R^200 pass the vertex gate, so the orthant LPs run
        monkeypatch.setattr(shatter, "linprog", lambda *a, **k: SimpleNamespace(
            status=0, fun=0.25, x=np.array([1.0, 0.0, 0.25])))
        path = write_csv(tmp_path / "eye2x200.csv", np.eye(2, 200))
        assert main(["hull", "--input", path, "--t", "0.4"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "CERTIFICATE"

    def test_vertex_minimizer_off_its_value_exits_with_certificate_error(self, tmp_path, capsys,
                                                                         monkeypatch):
        # the vertex value 1/2 stays, its minimizer becomes a = (1, 0), whose sup norm is 1
        solve = shatter._vertex_domination
        monkeypatch.setattr(shatter, "_vertex_domination",
                            lambda x: (solve(x)[0], np.array([1.0, 0.0])))
        path = write_csv(tmp_path / "eye2.csv", np.eye(2))
        assert main(["hull", "--input", path, "--t", "0.4"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["code"] == "CERTIFICATE"
        assert "exact-vertex minimizer attains 1.0" in err["message"]

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

    def test_flags_are_a_sorted_set(self, tmp_path, capsys):
        # two distinct rows cover apart at t = 0.1 and 0.2 with no shattering at c t,
        # which flags each scale; the report names the flag once
        path = write_csv(tmp_path / "pair.csv", np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert main(["entropy", "--input", path, "--t-grid", "0.1,0.2", "--c-assumed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["vc"] for row in report["results"]["rows"]] == [0, 0]
        assert report["flags"] == ["VC_ZERO_ANOMALY"]


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

    @pytest.mark.parametrize("extra", [[], ["--eps", "0.5"]], ids=["alone", "with-eps"])
    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_kmax_out_of_range_exits_2(self, sign_csv, capsys, extra, kmax):
        # no flag is accepted and then ignored: --kmax is checked without --eps too
        assert main(["complexity", "--input", sign_csv, "--trials", "100", "--kmax", kmax,
                     *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "BAD_K"

    @pytest.mark.parametrize("extra", [[], ["--eps", "0.5"]], ids=["alone", "with-eps"])
    def test_kmax_past_the_substream_span_exits_3(self, sign_csv, capsys, monkeypatch, extra):
        # ell_k reads substream label k: with a span of 5 labels --kmax 4 fits, and 5 or 6
        # are refused before any average is drawn
        monkeypatch.setattr(core, "_SUBSTREAM_SPAN", 5)
        argv = ["complexity", "--input", sign_csv, "--trials", "100", *extra]
        assert main(argv + ["--kmax", "4"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "gaussian_complexity", None)
        monkeypatch.setattr(cli, "rademacher_complexity", None)
        monkeypatch.setattr(complexity, "ell_parameter", None)
        for kmax in ("5", "6"):
            assert main(argv + ["--kmax", kmax]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"]["code"] == "SIZE_CAP"

    @pytest.mark.parametrize("k", ["1", "2", "3"])
    def test_ell_is_the_t_parameters_estimate(self, tmp_path, capsys, k):
        # with --eps, an ell_k with k <= --kmax is read off t_parameter, bit for bit
        path = write_csv(tmp_path / "class.csv", np.random.default_rng(7).uniform(-1, 1, (6, 5)))
        assert main(["complexity", "--input", path, "--kind", "gaussian", "--trials", "200",
                     "--k", k, "--eps", "0.5", "--kmax", "3", "--seed", "4"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["ell"] == res["t_parameter"]["per_k"][int(k) - 1]

    @pytest.mark.parametrize("extra", [[], ["--eps", "0.5"]], ids=["alone", "with-eps"])
    def test_ell_past_kmax_reads_label_k_of_substream_3(self, tmp_path, capsys, extra):
        data = np.random.default_rng(8).uniform(-1, 1, (6, 5))
        path = write_csv(tmp_path / "class.csv", data)
        assert main(["complexity", "--input", path, "--kind", "gaussian", "--trials", "200",
                     "--k", "3", "--kmax", "2", "--seed", "4", *extra]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        direct = complexity.ell_parameter(FunctionClass(data), 3, trials=200,
                                          rng=core.RngStream(4).substream(3).substream(3))
        assert res["ell"] == cli._estimate_json(direct)
        assert ("t_parameter" in res) == bool(extra)

    @pytest.mark.parametrize("extra", [[], ["--eps", "0.5"]], ids=["alone", "with-eps"])
    def test_k_past_the_substream_span_exits_3(self, sign_csv, capsys, monkeypatch, extra):
        # ell_k reads label k of substream 3: with a span of 5 labels --k 4 fits, and 5
        # or 6 are refused before any average is drawn, whatever --kmax
        monkeypatch.setattr(core, "_SUBSTREAM_SPAN", 5)
        argv = ["complexity", "--input", sign_csv, "--trials", "100", "--kmax", "2", *extra]
        assert main(argv + ["--k", "4"]) == 0
        capsys.readouterr()
        for name in ("gaussian_complexity", "rademacher_complexity", "ell_parameter", "t_parameter"):
            monkeypatch.setattr(cli, name, None)
        for k in ("5", "6"):
            assert main(argv + ["--k", k]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"]["code"] == "SIZE_CAP"

    def test_csv_out_without_eps_exits_2(self, sign_csv, capsys, tmp_path, monkeypatch):
        # the plot-ready curve is t(F, eps): refused before any average is drawn
        monkeypatch.setattr(cli, "gaussian_complexity", None)
        monkeypatch.setattr(cli, "rademacher_complexity", None)
        csv_out = tmp_path / "curve.csv"
        assert main(["complexity", "--input", sign_csv, "--trials", "100",
                     "--csv-out", str(csv_out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "BAD_INPUT"
        assert not csv_out.exists()


class TestTypecmpCommand:
    def test_rows_and_norm_parse(self, tmp_path, capsys):
        path = write_csv(tmp_path / "eye6.csv", np.eye(6))
        main(["typecmp", "--input", path, "--norm", "2", "--delta-grid", "0.5,1.0",
              "--trials", "300", "--seed", "6"])
        report = json.loads(capsys.readouterr().out)
        rows = report["results"]["rows"]
        assert [r["subset_size"] for r in rows] == [3, 6]
        assert all(r["m_emp"] == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_subsets_past_the_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # with a span of 12 substream labels, labels 2..11 hold 10 subsets of one size;
        # 11 are refused before the Gaussian average runs
        monkeypatch.setattr(core, "_SUBSTREAM_SPAN", 12)
        path = write_csv(tmp_path / "eye6.csv", np.eye(6))
        argv = ["typecmp", "--input", path, "--delta-grid", "0.5", "--trials", "100"]
        assert main(argv + ["--subsets", "10"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(complexity, "monte_carlo", None)
        assert main(argv + ["--subsets", "11"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "SIZE_CAP"


class TestAuditCommand:
    def test_constant_and_curve(self, sign_csv, capsys):
        main(["audit", "--input", sign_csv, "--trials", "400", "--grid-points", "9",
              "--seed", "8"])
        report = json.loads(capsys.readouterr().out)
        assert report["fitted_constants"][0]["name"] == "K_complexity"
        res = report["results"]
        assert len(res["grid"]) == 9 and len(res["vc_curve"]) == 9
        assert res["vc_curve"][0] == 3

    def test_grid_points_past_the_cap_exit_3(self, sign_csv, capsys, monkeypatch):
        # refused before the grid is built: np.linspace must not run
        def no_linspace(*args, **kwargs):
            raise AssertionError("np.linspace ran")

        monkeypatch.setattr(np, "linspace", no_linspace)
        code = main(["audit", "--input", sign_csv, "--trials", "100",
                     "--grid-points", str(core._BLOCK_SCALARS + 1)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "SIZE_CAP"


@pytest.mark.parametrize("argv", [["hull", "--t", "0.1"], ["typecmp"]],
                         ids=["hull", "typecmp"])
def test_bad_norm(tmp_path, capsys, argv):
    path = write_csv(tmp_path / "eye3.csv", np.eye(3))
    code = main([argv[0], "--input", path, *argv[1:], "--norm", "euclidean"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "BAD_NORM"


@pytest.mark.parametrize("argv", [
    ["entropy", "--t-grid", "0.4,0.8"],
    ["audit", "--trials", "100", "--grid-points", "3"],
])
def test_audits_share_one_bounded_class_rule(tmp_path, capsys, argv):
    # exactly 1 is bounded by 1; one ulp above it is not, with one code for both audits
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    assert main([argv[0], "--input", write_csv(tmp_path / "one.csv", rows), *argv[1:]]) == 0
    capsys.readouterr()
    rows[2, 1] = 1.0 + 2.0**-52
    assert main([argv[0], "--input", write_csv(tmp_path / "above.csv", rows), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "BAD_INPUT"


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
        ["hull", "--t", "0.5", "--samples", "-1"],
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
        (["project", "--delta", "0.5", "--trials", "100", "--t", "1e308"],
         [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]),
        (["shatter", "--t", "0.5"], [[1e308, 1.0, -1.0], [-1e308, -1.0, 1.0]]),
        (["jl", "--eps", "0.5"], [[1e308, 1e308, -1e308, 1e308]]),
        (["typecmp", "--trials", "100"], [[1e308, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
        (["hull", "--t", "0.1", "--norm", "2"], [[1e308, 1e308], [0.5, 0.1]]),
    ], ids=["project", "project-huge-t", "shatter", "jl", "typecmp", "hull"])
    def test_weights_near_the_float_maximum_raise_no_warning(self, tmp_path, argv, rows):
        # a fresh interpreter that turns every numpy RuntimeWarning into a traceback
        path = write_csv(tmp_path / "huge.csv", np.array(rows))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "coordproj", argv[0],
             "--input", path, *argv[1:], "--deterministic"],
            capture_output=True, text=True)
        if argv[0] in ("jl", "typecmp", "hull"):
            # off the unit sphere, outside the unit ball: stderr holds the JSON error alone
            assert proc.returncode == 2
            assert json.loads(proc.stderr)["error"]["code"] == "BAD_INPUT"
            return
        assert (proc.returncode, proc.stderr) == (0, "")
        results = json.loads(proc.stdout)["results"]
        if argv[-1] == "1e308":
            # no sum of the sign rows comes near t delta n
            assert all(row["tail"]["exact_prob"] == row["tail"]["chernoff_bound"] == 0.0
                       for row in results["rows"])
        elif argv[0] == "project":
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


# the joint LP of an asymmetric class is what still needs scipy: the row (0.5, 0.5)
# has no negation in the class
_HULL_LP_PROBE = """
import sys
import numpy as np
from coordproj.core import CoordinateSubset, FunctionClass
from coordproj.shatter import vc_convex_hull
rows = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [0.5, 0.5]]
vc_convex_hull(FunctionClass(np.array(rows)), CoordinateSubset.full(2), 0.5)
print("scipy.optimize" in sys.modules)
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
    assert all(not loaded for _, _, loaded in lines)
    proc = subprocess.run([sys.executable, "-c", _HULL_LP_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


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
    "hull": {"--t": _real("0.3"), "--norm": st.one_of(_real("sup"), st.just("euclidean")),
             "--samples": _count("4"),
             "--max-sigma": _count("4")},
    "entropy": {"--t-grid": _real("0.5"), "--c-assumed": _real("0.25")},
    "complexity": {"--kind": st.sampled_from(("gaussian", "rademacher", "both")),
                   "--trials": _count("100"), "--k": _count("2"), "--eps": _real("0.5"),
                   "--kmax": _count("2")},
    "typecmp": {"--norm": st.one_of(_real("2"), st.just("euclidean")),
                "--delta-grid": _real("0.5"), "--trials": _count("100"), "--subsets": _count("1")},
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
