import inspect
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cmc_annuli import (
    Annulus,
    OuterBoundaryData,
    boundary_radius,
    bounding_box,
    cli,
    euclidean_to_hyperbolic,
    height,
    param_large,
    solve_radial,
)
from cmc_annuli.cli import main
from cmc_annuli.svgfig import family_figure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline, \n endings
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def per_field_csv(header, *columns):
    """The CSV text written field by field: each value as f"{v:.17g}", a NaN as an empty field."""
    rows = (",".join("" if math.isnan(v) else f"{v:.17g}" for v in row) for row in zip(*columns))
    return "".join(line + "\n" for line in (header, *rows))


def polylines(path):
    root = ET.parse(path).getroot()
    out = []
    for node in root.iter("{http://www.w3.org/2000/svg}polyline"):
        points = [tuple(map(float, pair.split(","))) for pair in node.attrib["points"].split()]
        out.append((node.attrib.get("data-label", ""), points))
    return out


class TestWriteCsv:
    """One format over a whole row writes the bytes of the field-by-field format."""

    SPECIAL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.8e308, -1.8e308, 1.0, 0.1]

    def test_rows_match_per_field_formatting(self, tmp_path):
        rng = random.Random(20)
        bits = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(3000)]
        first = self.SPECIAL * 30 + bits  # random bit patterns hold NaNs of every payload
        second = first[::-1]
        third = [rng.choice(self.SPECIAL) if rng.random() < 0.1 else rng.uniform(-1e3, 1e3) for _ in first]
        out = tmp_path / "table.csv"
        for columns in ((first, second, third), (np.array(first), second, np.array(third)), (first,)):
            header = ",".join("xyz"[: len(columns)])
            cli._write_csv(str(out), header, *columns)
            assert out.read_text() == per_field_csv(header, *columns)

    def test_bounds_lower_column_of_nans(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        code, _, _ = run(capsys, "bounds", "--h", "0.4", "--a", "1.2", "--b", "2", "--m", "0", "--M", "0.5",
                         "--n", "33", "--out", str(out))
        assert code == 0
        table = bounding_box(0.4, Annulus(1.2, 2.0), OuterBoundaryData(0.0, 0.5)).sample(33)
        assert np.isnan(table[:, 1]).all()
        assert out.read_text() == per_field_csv("rho,lower,upper", *table.T)


class TestProfileCommand:
    def test_closed_form_table(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        code, _, _ = run(
            capsys, "profile", "--h", "0.5", "--alpha", "1", "--rho-max", "2", "--n", "5",
            "--out", str(out),
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["rho", "height", "slope"]
        assert len(rows) == 5
        for rho_s, height_s, slope_s in rows:
            rho = float(rho_s)
            assert float(height_s) == pytest.approx(2 * (math.cosh(rho / 2) - 1), abs=1e-9)
            assert float(slope_s) == pytest.approx(math.sinh(rho / 2), abs=1e-9)

    def test_vertical_start_prints_inf(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        run(capsys, "profile", "--h", "0.4", "--alpha", "0.5", "--rho-max", "2", "--n", "4",
            "--out", str(out))
        _, rows = read_csv(out)
        assert rows[0][2] == "inf"
        assert float(rows[0][0]) == pytest.approx(boundary_radius(0.4, 0.5), abs=1e-12)
        out2 = tmp_path / "large.csv"
        run(capsys, "profile", "--h", "0.4", "--alpha", "3", "--rho-max", "4", "--n", "6",
            "--out", str(out2))
        _, rows2 = read_csv(out2)
        assert rows2[0][2] == "-inf"
        assert float(rows2[1][1]) < 0.0  # dips below zero near its circle

    def test_neck_starts_at_origin(self, capsys, tmp_path):
        out = tmp_path / "neck.csv"
        run(capsys, "profile", "--h", "0.4", "--alpha", "0.8", "--rho-max", "1", "--n", "3",
            "--out", str(out))
        _, rows = read_csv(out)
        assert float(rows[0][0]) == 0.0

    def test_bad_input_exit_2(self, capsys, tmp_path):
        out = tmp_path / "nope.csv"
        code, _, err = run(
            capsys, "profile", "--h", "0.7", "--alpha", "1", "--rho-max", "2", "--out", str(out)
        )
        assert code == 2
        assert "mean curvature" in err
        code, _, err = run(
            capsys, "profile", "--h", "0.4", "--alpha", "0.5", "--rho-max", "0.1",
            "--out", str(out),
        )
        assert code == 2
        assert "starting radius" in err

    def test_missing_required_flag_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "profile", "--h", "0.5", "--rho-max", "2",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--alpha" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "profile", "--h", "0.4", "--alpha", "1.7", "--rho-max", "3", "--n", "20",
            "--out", str(first))
        run(capsys, "profile", "--h", "0.4", "--alpha", "1.7", "--rho-max", "3", "--n", "20",
            "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_euclidean_radius_flag(self, capsys, tmp_path):
        hyp, euc = tmp_path / "h.csv", tmp_path / "e.csv"
        r = math.tanh(1.0)  # euclidean radius of hyperbolic 2.0
        run(capsys, "profile", "--h", "0.5", "--alpha", "1", "--rho-max", "2", "--n", "4",
            "--out", str(hyp))
        run(capsys, "profile", "--h", "0.5", "--alpha", "1", "--rho-max", str(r), "--n", "4",
            "--euclidean", "--out", str(euc))
        _, rows_h = read_csv(hyp)
        _, rows_e = read_csv(euc)
        assert float(rows_e[-1][0]) == pytest.approx(float(rows_h[-1][0]), rel=1e-12)


class TestBoundsCommand:
    def test_table_and_summary(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        code, stdout, _ = run(
            capsys, "bounds", "--h", "0.5", "--a", "1", "--b", "2", "--m", "-1", "--M", "1",
            "--n", "8", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["hole_ok"] is True
        assert summary["beta"] == pytest.approx(math.e, rel=1e-14)
        assert summary["alpha"] == pytest.approx(math.exp(-1), rel=1e-14)
        header, rows = read_csv(out)
        assert header == ["rho", "lower", "upper"]
        assert float(rows[-1][2]) == 1.0  # upper anchored to M at rho = b
        assert float(rows[-1][1]) == -1.0
        assert all(float(r[1]) <= float(r[2]) for r in rows)

    def test_hole_too_large_leaves_lower_empty(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        code, stdout, _ = run(
            capsys, "bounds", "--h", "0.4", "--a", "1.2", "--b", "2", "--m", "0", "--M", "0",
            "--n", "6", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["hole_ok"] is False
        assert summary["alpha"] is None
        assert summary["lower_at_a"] is None
        _, rows = read_csv(out)
        assert all(r[1] == "" for r in rows)

    @pytest.mark.parametrize("h, a", [(0.35, 0.6), (0.5, 1.0), (0.25, 0.3), (0.4, 1.2)])
    def test_summary_equals_check_thresholds(self, capsys, tmp_path, h, a):
        # the table's row at a and the point thresholds are one number, bit for bit
        annulus = ["--h", repr(h), "--a", repr(a), "--b", "2"]
        outer = tmp_path / "outer.csv"
        outer.write_text("theta,u\n0,-0.3\n3,0.7\n")
        _, stdout, _ = run(capsys, "bounds", *annulus, "--m", "-0.3", "--M", "0.7", "--n", "4",
                           "--out", str(tmp_path / "bounds.csv"))
        summary = json.loads(stdout)
        code, stdout, _ = run(capsys, "check", *annulus, "--inner", "0", "--outer", str(outer))
        assert code == 0
        verdict = json.loads(stdout)
        assert summary["upper_at_a"] == verdict["threshold_upper"]
        assert summary["lower_at_a"] == verdict["threshold_lower"]

    def test_invalid_annulus_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bounds", "--h", "0.4", "--a", "2", "--b", "1", "--m", "0", "--M", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "annulus" in err

    @pytest.mark.parametrize("a", ["1e-77", "1e-85"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_inner_radius_below_the_floor_exit_2(self, capsys, tmp_path, command, a):
        data = ["--inner", "0", "--outer", "0"] if command == "check" else [
            "--u-a", "0", "--u-b", "0", "--out", str(tmp_path / "x.csv")]
        code, stdout, err = run(capsys, command, "--h", "0.4", "--a", a, "--b", "1", *data)
        assert code == 2
        assert stdout == "" and "1e-70 <= a < b" in err
        assert not (tmp_path / "x.csv").exists()


class TestCheckCommand:
    def threshold(self, c):
        beta = param_large(0.4, 0.5)
        return -height(0.4, beta, 2.0) + c

    def test_epsilon_above_threshold(self, capsys):
        inner = self.threshold(0.0) + 1e-3
        code, stdout, _ = run(
            capsys, "check", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--inner", repr(inner), "--outer", "0",
        )
        assert code == 0
        verdict = json.loads(stdout)
        assert verdict["verdict"] == "violates_upper"
        assert verdict["margin"] == pytest.approx(1e-3, abs=1e-7)

    def test_inside_box_inconclusive(self, capsys):
        code, stdout, _ = run(
            capsys, "check", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--inner", repr(self.threshold(0.0) - 1.0), "--outer", "0",
        )
        assert code == 0
        verdict = json.loads(stdout)
        assert verdict["verdict"] == "inconclusive"
        assert verdict["margin"] < 0

    def test_shift_invariance(self, capsys):
        reports = []
        for shift in (0.0, 10.0):
            _, stdout, _ = run(
                capsys, "check", "--h", "0.4", "--a", "0.5", "--b", "2",
                "--inner", repr(self.threshold(shift) + 0.25), "--outer", repr(shift),
            )
            reports.append(json.loads(stdout))
        assert reports[0]["verdict"] == reports[1]["verdict"] == "violates_upper"
        assert reports[0]["margin"] == pytest.approx(reports[1]["margin"], abs=1e-9)

    def test_per_theta_table_input(self, capsys, tmp_path):
        table = tmp_path / "outer.csv"
        table.write_text(
            "theta,value\n" + "\n".join(
                f"{t},{0.1 * math.cos(t)}" for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
            ) + "\n"
        )
        code, stdout, _ = run(
            capsys, "check", "--h", "0.5", "--a", "1", "--b", "2",
            "--inner", "0", "--outer", str(table),
        )
        assert code == 0
        verdict = json.loads(stdout)
        assert verdict["verdict"] == "inconclusive"
        assert verdict["threshold_lower"] is not None

    def test_nan_inner_value_exit_2(self, capsys):
        code, stdout, stderr = run(
            capsys, "check", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--inner", "nan", "--outer", "0",
        )
        assert code == 2
        assert stdout == ""
        assert "finite" in stderr

    @pytest.mark.parametrize("bad_row", ["1,oops", "1,nan"])
    def test_bad_csv_row_exit_2(self, capsys, tmp_path, bad_row):
        # only the first line may be a header; a later bad row must not be
        # skipped into a verdict computed from partial data
        table = tmp_path / "inner.csv"
        table.write_text(f"theta,u\n0,1\n{bad_row}\n2,9\n")
        code, stdout, stderr = run(
            capsys, "check", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--inner", str(table), "--outer", "0",
        )
        assert code == 2
        assert stdout == ""
        assert f"{table}:3" in stderr

    def test_csv_without_numeric_rows_exit_2(self, capsys, tmp_path):
        table = tmp_path / "inner.csv"
        table.write_text("theta,u\n# no rows yet\n\n")
        code, stdout, stderr = run(
            capsys, "check", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--inner", str(table), "--outer", "0",
        )
        assert code == 2
        assert stdout == ""
        assert "no numeric values found" in stderr



BAD_TOLS = ["nan", "inf", "0", "-1"]
_ANNULUS = ["--h", "0.4", "--a", "0.5", "--b", "2"]


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize(
    "argv",
    [
        ["check", *_ANNULUS, "--inner", "0.1", "--outer", "0"],
        ["solve", *_ANNULUS, "--u-a", "0.1", "--u-b", "0"],
        ["solve", *_ANNULUS, "--u-a", "5", "--u-b", "0"],  # outside the drop interval
        ["solve", *_ANNULUS, "--u-a", "0.1", "--u-b", "0", "--two-d", "--n-rho", "8", "--n-theta", "8"],
        ["bounds", *_ANNULUS, "--m", "0", "--M", "0", "--n", "4"],
        ["profile", "--h", "0.4", "--alpha", "0.5", "--rho-max", "2", "--n", "4"],
        ["figure", "box", *_ANNULUS, "--m", "0", "--M", "0", "--n", "4"],
    ],
    ids=["check", "solve", "solve-infeasible", "solve-two-d", "bounds", "profile", "figure"],
)
def test_bad_tol_exit_2(capsys, tmp_path, argv, tol):
    # no verdict, solution or table comes from a tolerance that is not a
    # finite positive number; --tol inf once reported the extremal graph as
    # solved. Only solve stops on a tolerance: verdicts, tables and figures are
    # closed forms, so there --tol is an unknown argument.
    out = tmp_path / "out"
    needs_out = argv[0] != "check"
    cli_args = [*argv, *(["--out", str(out)] if needs_out else []), f"--tol={tol}"]
    code, stdout, stderr = run(capsys, *cli_args)
    if argv[0] == "solve":
        assert "tolerance must be finite and positive" in stderr
    else:
        assert f"unrecognized arguments: --tol={tol}" in stderr
    assert code == 2
    assert stdout == ""
    assert not out.exists()


# A valid invocation of each command, as flag -> value; every flag named here
# but --out is numeric. check writes no file, and the two-d solve's --n is
# unused but parsed.
NUMERIC_FLAGS = {
    "profile": (["profile"], {"--h": "0.4", "--alpha": "1", "--rho-max": "2", "--n": "5"}),
    "bounds": (["bounds"], {"--h": "0.4", "--a": "0.5", "--b": "2", "--m": "0", "--M": "0", "--n": "5"}),
    "check": (["check"], {"--h": "0.4", "--a": "0.5", "--b": "2", "--inner": "0.1", "--outer": "0"}),
    "solve": (
        ["solve"],
        {"--h": "0.4", "--a": "0.5", "--b": "2", "--u-a": "0.1", "--u-b": "0", "--n": "5", "--tol": "1e-10"},
    ),
    "solve-two-d": (
        ["solve", "--two-d"],
        {
            "--h": "0.4", "--a": "0.5", "--b": "1.5", "--u-a": "0.1", "--u-b": "0", "--n": "5",
            "--n-rho": "8", "--n-theta": "8", "--tol": "1e-8",
        },
    ),
    "figure-family": (["figure", "family"], {"--h": "0.5", "--alphas": "0.3,1", "--rho-max": "3", "--n": "5"}),
    "figure-box": (
        ["figure", "box"], {"--h": "0.5", "--a": "1", "--b": "2", "--m": "0", "--M": "0", "--n": "5"}
    ),
}


def _numeric_argv(command, out, replace=None):
    words, flags = NUMERIC_FLAGS[command]
    argv = [*words, *(f"{flag}={value}" for flag, value in {**flags, **(replace or {})}.items())]
    return argv if command == "check" else [*argv, "--out", str(out)]


@pytest.mark.parametrize("command", NUMERIC_FLAGS)
def test_numeric_flag_base_runs(capsys, tmp_path, command):
    code, _, stderr = run(capsys, *_numeric_argv(command, tmp_path / "out"))
    assert code == 0, stderr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, flags) in NUMERIC_FLAGS.items() for flag in flags],
)
def test_bad_numeric_flag_exit_2(capsys, tmp_path, monkeypatch, command, flag, bad):
    # --inner x and --outer x name a CSV file that is not there
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *_numeric_argv(command, out, {flag: bad}))
    assert code == 2
    assert stdout == ""
    assert stderr
    assert not out.exists()


class TestSolveCommand:
    def test_radial_solve(self, capsys, tmp_path):
        out = tmp_path / "radial.csv"
        code, stdout, _ = run(
            capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--u-a", "0.1", "--u-b", "0", "--n", "9", "--out", str(out),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["status"] == "solved"
        assert report["drop"] == pytest.approx(0.1)
        header, rows = read_csv(out)
        assert header == ["rho", "u"]
        assert float(rows[0][1]) == pytest.approx(0.1, abs=1e-9)
        assert float(rows[-1][1]) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 256])
    @pytest.mark.parametrize(
        "h, a, b, u_a, flags",
        [(0.4, 0.5, 1.5, 0.1, []), (0.3, 0.2, 0.7, 0.05, ["--euclidean"]), (0.5, 10.0, 11.0, -14000.0, [])],
        ids=["hyperbolic", "euclidean", "far-annulus-at-half"],
    )
    def test_radial_table_is_linspace_at_point_values(self, capsys, tmp_path, n, h, a, b, u_a, flags):
        # the table is built on floats: its radii are np.linspace(a, b, n) and
        # its heights the evaluator's at each radius, both bit for bit
        out = tmp_path / "radial.csv"
        code, _, _ = run(capsys, "solve", "--h", repr(h), "--a", repr(a), "--b", repr(b), "--u-a", repr(u_a),
                         "--u-b", "0", "--n", str(n), *flags, "--out", str(out))
        assert code == 0
        if flags:
            a, b = euclidean_to_hyperbolic(a), euclidean_to_hyperbolic(b)
        evaluator = solve_radial(h, Annulus(a, b), u_a, 0.0).evaluator
        _, rows = read_csv(out)
        radii = np.linspace(a, b, n).tolist()
        assert [float(rho).hex() for rho, _ in rows] == [rho.hex() for rho in radii]
        assert [float(u).hex() for _, u in rows] == [evaluator.value(rho).hex() for rho in radii]

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_radial_table_needs_two_rows(self, capsys, tmp_path, n):
        out = tmp_path / "radial.csv"
        with mock.patch.object(cli, "solve_radial", side_effect=AssertionError("solved")):
            code, stdout, stderr = run(
                capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "1.5",
                "--u-a", "0.1", "--u-b", "0", "--n", n, "--out", str(out),
            )
        assert code == 2
        assert stdout == ""
        assert f"need at least 2 sample rows, got n = {n}" in stderr
        assert not out.exists()

    def test_tol_help_names_both_solver_defaults(self, capsys):
        from cmc_annuli.pde2d import solve_dirichlet_2d
        from cmc_annuli.profiles import DEFAULT_TOL

        two_d = inspect.signature(solve_dirichlet_2d).parameters["tol"].default
        code, stdout, _ = run(capsys, "solve", "--help")
        assert code == 0
        written = re.search(r"\(default (\S+) root find, (\S+) 2D Newton\)", " ".join(stdout.split()))
        assert written and tuple(map(float, written.groups())) == (DEFAULT_TOL, two_d)

    def test_far_annulus_at_half_solves(self, capsys, tmp_path):
        # the root lies closer to the small end than an ulp of the flux constant
        out = tmp_path / "radial.csv"
        code, stdout, _ = run(
            capsys, "solve", "--h", "0.5", "--a", "10", "--b", "11",
            "--u-a", "-14000", "--u-b", "0", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["status"] == "solved"
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(-14000.0, abs=1e-10)

    def test_infeasible_exit_3(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--u-a", "5", "--u-b", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        payload = json.loads(stdout)
        assert payload["status"] == "infeasible"
        assert payload["d_min"] < payload["d_max"] < 5.0

    def test_two_d_matches_radial(self, capsys, tmp_path):
        radial_out = tmp_path / "radial.csv"
        run(capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "1.5",
            "--u-a", "0.1", "--u-b", "0", "--n", "17", "--out", str(radial_out))
        field_out = tmp_path / "field.csv"
        code, stdout, _ = run(
            capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "1.5",
            "--u-a", "0.1", "--u-b", "0", "--two-d", "--n-rho", "17", "--n-theta", "8",
            "--out", str(field_out),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["converged"] is True
        header, rows = read_csv(field_out)
        assert header == ["rho", "theta", "u"]
        assert len(rows) == 17 * 8
        _, radial_rows = read_csv(radial_out)
        radial_u = {r[0]: float(r[1]) for r in radial_rows}
        grid_tol = 10.0 * (1.0 / 16) ** 2
        for rho_s, _, u_s in rows:
            assert float(u_s) == pytest.approx(radial_u[rho_s], abs=grid_tol)

    @pytest.mark.parametrize("mode", [[], ["--two-d", "--n-rho", "12", "--n-theta", "12"]])
    def test_nan_boundary_value_exit_2(self, capsys, tmp_path, mode):
        out = tmp_path / "x.csv"
        code, stdout, _ = run(
            capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "1.5",
            "--u-a", "nan", "--u-b", "0", "--out", str(out), *mode,
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()

    def test_two_d_nonconvergence_exit_4(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "2",
            "--u-a", "1.4", "--u-b", "0", "--two-d", "--n-rho", "24", "--n-theta", "12",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4
        payload = json.loads(stdout)
        assert payload["status"] == "non_convergence"
        assert payload["converged"] is False

    def test_two_d_file_does_not_depend_on_the_blas_threads(self, tmp_path):
        # the preconditioner's dense products and Newton's norms run on
        # numpy's BLAS, whose partial sums depend on its thread count. These
        # constant data start at the residual's own radial solution, whose
        # residual meets tol, so the solve builds no preconditioner, takes no
        # Newton step and reaches no BLAS call: the file cannot depend on the
        # thread count. From a start off by the discretization error, it
        # differed in one row (by 6.8e-21); theta-dependent data still do
        src = Path(__file__).resolve().parents[1] / "src"
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"field-{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "cmc_annuli.cli", "solve", "--h", "0.4", "--a", "0.5", "--b", "1.5",
                 "--u-a", "0.1", "--u-b", "0", "--two-d", "--n-rho", "256", "--n-theta", "256",
                 "--out", str(out)],
                env=env, capture_output=True, check=True, timeout=300,
            )
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_two_d_overflow_strict_json(self, capsys, tmp_path):
        # data steep enough to overflow W: the failure is reported as strict
        # JSON (non-finite floats as null) without numpy warnings
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(
                capsys, "solve", "--h", "0.4", "--a", "0.5", "--b", "2",
                "--u-a", "1e8", "--u-b", "0", "--two-d", "--n-rho", "24", "--n-theta", "12",
                "--out", str(tmp_path / "x.csv"),
            )
        assert code == 4
        payload = json.loads(stdout, parse_constant=reject)
        assert payload["status"] == "non_convergence"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err


class TestFigureCommand:
    def test_family_svg(self, capsys, tmp_path):
        out = tmp_path / "family.svg"
        code, _, _ = run(
            capsys, "figure", "family", "--h", "0.5", "--alphas", "0.3,1,3",
            "--rho-max", "4.5", "--out", str(out),
        )
        assert code == 0
        curves = dict(polylines(out))
        assert len(curves) == 3
        small = curves["α = 0.3"]
        assert small[0][1] == 0.0  # zero on its starting circle
        assert all(y >= -1e-12 for _, y in small)
        large = curves["α = 3"]
        assert large[0][1] == 0.0
        assert min(y for _, y in large) < -0.1  # dips below zero nearby
        assert large[-1][1] > 0.0  # positive far out
        # signed vertical start: rising on the small branch, falling on the large
        def first_slope(points):
            (x0, y0), (x1, y1) = points[:2]
            return (y1 - y0) / (x1 - x0)

        assert first_slope(small) > 0 > first_slope(large)

    def test_family_svg_vertical_start_under_refinement(self, capsys, tmp_path):
        # sqrt-type start: halving the first step scales the secant slope by sqrt(2)
        slopes = []
        for n in (200, 800):
            out = tmp_path / f"family{n}.svg"
            run(capsys, "figure", "family", "--h", "0.5", "--alphas", "0.3",
                "--rho-max", "4.5", "--n", str(n), "--out", str(out))
            (x0, y0), (x1, y1) = dict(polylines(out))["α = 0.3"][:2]
            slopes.append((y1 - y0) / (x1 - x0))
        assert slopes[1] / slopes[0] == pytest.approx(2.0, abs=0.4)

    def test_box_svg(self, capsys, tmp_path):
        out = tmp_path / "box.svg"
        code, _, _ = run(
            capsys, "figure", "box", "--h", "0.5", "--a", "1", "--b", "2",
            "--m", "0", "--M", "0", "--out", str(out),
        )
        assert code == 0
        curves = dict(polylines(out))
        assert set(curves) == {"upper envelope", "lower envelope"}
        assert curves["upper envelope"][-1] == (2.0, 0.0)
        assert curves["lower envelope"][-1] == (2.0, 0.0)

    def test_family_requires_alphas(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "figure", "family", "--h", "0.5", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert "alphas" in err
        code, _, err = run(
            capsys, "figure", "family", "--h", "0.5", "--alphas", ",", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert "--alphas: expected a comma-separated list of numbers" in err
        assert not (tmp_path / "x.svg").exists()

    def test_box_requires_inner_radius(self, capsys, tmp_path):
        out = tmp_path / "box.svg"
        code, stdout, err = run(
            capsys, "figure", "box", "--h", "0.5", "--b", "2", "--m", "0", "--M", "0", "--out", str(out)
        )
        assert code == 2
        assert stdout == ""
        assert "figure box requires --a" in err
        assert not out.exists()

    def test_family_default_reach_and_empty_parameters(self):
        # without rho_max every curve ends 2 past the largest starting radius
        alphas = [0.3, 0.8, 3.0]
        reach = max(boundary_radius(0.4, alpha) for alpha in alphas) + 2.0
        assert family_figure(0.4, alphas) == family_figure(0.4, alphas, rho_max=reach)
        with pytest.raises(ValueError, match="need at least one profile parameter"):
            family_figure(0.4, [])

    def test_svg_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run(capsys, "figure", "box", "--h", "0.4", "--a", "0.5", "--b", "2",
                "--m", "0", "--M", "1", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\nh=0.5\nalpha=1\nrho-max=2\nn=5\n")
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "profile", "--config", str(cfg), "--out", str(out))
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 5

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h=0.5\nalpha=1\nrho_max=2\nn=5\n")
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "profile", "--config", str(cfg), "--n", "7", "--out", str(out))
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 7

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h 0.5\n")
        code, _, err = run(capsys, "profile", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_nested_config_key_exit_2(self, capsys, tmp_path, key):
        # argparse takes the key (abbreviated, too) as --config, which nothing reads
        (tmp_path / "ok.cfg").write_text("n=5\n")
        cfg = tmp_path / "nest.cfg"
        cfg.write_text(f"# nested\n{key}={tmp_path / 'ok.cfg'}\n")
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "profile", "--h", "0.5", "--alpha", "1", "--rho-max", "2",
                           "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert f"{cfg}:2:" in err and f"{key}=" in err
        assert not out.exists()

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        # a key that names no flag of the subcommand is rejected like the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=nan\nnn=5\n")
        out = tmp_path / "b.csv"
        code, stdout, err = run(capsys, "bounds", "--h", "0.4", "--a", "0.5", "--b", "2",
                                "--m", "0", "--M", "0", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "--tol=nan" in err and "--nn=5" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value, flags", [("yes", ["--euclidean"]), ("no", [])])
    def test_switch_key_matches_flag(self, capsys, tmp_path, value, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"euclidean={value}\n")
        base = ["profile", "--h", "0.4", "--alpha", "1.7", "--rho-max", "0.9", "--n", "5"]
        from_config, from_flags = tmp_path / "c.csv", tmp_path / "f.csv"
        assert run(capsys, *base, "--config", str(cfg), "--out", str(from_config))[0] == 0
        assert run(capsys, *base, *flags, "--out", str(from_flags))[0] == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_config_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h=0.5\nalpha=1\nrho_max=2\nn=5\n")
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "profile", f"--config={cfg}", "--out", str(out))
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 5

    def test_flag_before_config_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h=0.5\nalpha=1\nrho_max=2\nn=5\n")
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "profile", "--n", "7", "--config", str(cfg), "--out", str(out))
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 7
