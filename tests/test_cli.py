import errno
import itertools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
from conftest import bundled_path, proportional_triangle
from runoff import chainladder, cli
from runoff.cli import STATISTICS, _label, main
from runoff.impact import marginal_contributions
from runoff.oracle import _RESERVE, COLUMNS, _per_year, _Statistic, verify_mse_components
from runoff.triangle import Container, IncrementalTriangle, observed_mask
from test_oracle import OVERFLOWING_MSE_STEP, OVERFLOWING_STEP, near_proportional


NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)  # in a document of exit 0


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def rows_file(tmp_path, rows, name="rows.csv") -> str:
    """rows as a triangle file, each value written by repr."""
    p = tmp_path / name
    p.write_text(f"I={len(rows)}\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    return str(p)


def extreme_files(tmp_path):
    """(t, I, path) of 40 seeded triangle files, I = 2..8, of cells
    log-uniform over 1e-300..1e300 or drawn from {0, 1, 1e6, 5e-324, 1e308}."""
    rng = np.random.default_rng(40)
    for t in range(40):
        dim = int(rng.integers(2, 9))
        n = dim * (dim + 1) // 2
        cells = iter((10.0 ** rng.uniform(-300, 300, n) if rng.random() < 0.5
                      else rng.choice([0.0, 1.0, 1e6, 5e-324, 1e308], n)).tolist())
        yield t, dim, rows_file(tmp_path, [[next(cells) for _ in range(dim - i)] for i in range(dim)], f"t{t}.csv")


def proportional_file(tmp_path) -> str:
    """conftest.proportional_triangle as a triangle file: every sigma^2 is 0."""
    return rows_file(tmp_path, proportional_triangle().to_rows(), "proportional.csv")


class TestReservesCommand:
    def test_csv_summary(self, capsys):
        code, out, _ = run(capsys, "reserves", bundled_path())
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,latest,ultimate,reserve,rmse,bf_reserve"
        assert len(lines) == 12
        assert lines[-1].startswith("total,,,1463388942,45480913.96")

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "reserves", bundled_path(), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["I"] == 10
        assert abs(doc["summary"]["reserve_total"] - golden.RESERVE_TOTAL) <= 1.0
        assert len(doc["years"]) == 10

    def test_three_years_leave_rmse_empty(self, capsys, tmp_path):
        # sigma estimation needs I >= 4; the reserves need no sigmas
        p = tmp_path / "three.csv"
        p.write_text("I=3\n100,50,10\n120,60\n130\n")
        code, out, err = run(capsys, "reserves", str(p))
        assert code == 0
        assert out.splitlines()[-2:] == ["3,130,208,78,,78", "total,,,90,,90"]
        assert err.count("\n") == 1 and "rmse" in err
        code, out, _ = run(capsys, "reserves", str(p), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [y["rmse"] for y in doc["years"]] == [None, None, None]
        assert doc["summary"] == {"reserve_total": 90.0, "rmse_total": None, "bf_total": 90.0}

    def test_a_zero_cell_sigma_divides_by_leaves_rmse_empty(self, capsys, tmp_path):
        """Row 2 starts at 0, a C_{i,k} of sigma^2's ratios: the reserves
        need no sigmas and are printed; the Mack statistics are refused."""
        p = tmp_path / "zero.csv"
        p.write_text("I=4\n100,50,10,5\n0,60,12\n130,70\n140\n")
        cause = "zero cumulative cell (2, 1) in sigma estimation"
        assert run(capsys, "reserves", str(p)) == (0, (
            "i,latest,ultimate,reserve,rmse,bf_reserve\n"
            "1,165,165,0,,0\n"
            "2,72,74.25,2.25,,2.25\n"
            "3,200,227.8571429,27.85714286,,27.85714286\n"
            "4,140,284.326087,144.326087,,144.326087\n"
            "total,,,174.4332298,,174.4332298\n"
        ), f"note: rmse column left empty: {cause}\n")
        code, out, err = run(capsys, "reserves", str(p), "--format", "json")
        doc = json.loads(out)
        assert (code, err) == (0, f"note: rmse column left empty: {cause}\n")
        assert [y["rmse"] for y in doc["years"]] == [None] * 4 and doc["summary"]["rmse_total"] is None
        for stat in ("mse-total", "rmse-total", "quantile"):
            assert run(capsys, "impact", str(p), "--stat", stat) == (2, "", f"error: {cause}\n")


class TestImpactCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "impact", bundled_path(), "--stat", "reserve-ay", "--year", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,j,value"
        assert len(lines) == 56
        assert lines[1] == "1,1,-0.1761923462"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "impact",
            bundled_path(),
            "--stat",
            "reserve-ay",
            "--year",
            "8",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"statistic", "target", "I", "cells", "summary"}
        assert doc["statistic"] == "reserve-ay"
        assert doc["target"] == 8
        assert doc["I"] == 10
        assert len(doc["cells"]) == 55
        assert abs(doc["summary"]["value_of_statistic"] - golden.RESERVE_AY8) <= 1.0

    def test_quantile_stat(self, capsys):
        code, out, _ = run(
            capsys, "impact", bundled_path(), "--stat", "quantile", "--q", "0.995"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 56

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "impacts.csv"
        code, out, _ = run(
            capsys,
            "impact",
            bundled_path(),
            "--stat",
            "reserve-total",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k,j,value")

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "impact", bundled_path(), "--stat", "mse-total")
        _, second, _ = run(capsys, "impact", bundled_path(), "--stat", "mse-total")
        assert first == second


class TestMarginalCommand:
    def test_contributions_sum_to_reserve(self, capsys):
        code, out, _ = run(capsys, "marginal", bundled_path(), "--stat", "reserve-total")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert abs(total - golden.RESERVE_TOTAL) <= 200.0  # 10 significant digits per cell

    def test_non_order_one_statistic_still_allowed(self, capsys):
        code, out, _ = run(capsys, "marginal", bundled_path(), "--stat", "rmse-total")
        assert code == 0
        assert out.startswith("k,j,value")


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "reserve-total")
        assert code == 0
        assert "result: PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            bundled_path(),
            "--stat",
            "quantile",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["statistic"] == "quantile"

    def test_impossible_tolerance_exits_three(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            bundled_path(),
            "--stat",
            "reserve-total",
            "--tolerance",
            "1e-14",
        )
        assert code == 3
        assert "result: FAIL" in out

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tolerance):
        """A tolerance no check can meet is a bad flag value (exit 1), not
        a failed verification (exit 3)."""
        code, out, err = run(
            capsys, "verify", bundled_path(), "--stat", "reserve-total", "--tolerance", tolerance
        )
        assert code == 1
        assert out == ""
        assert err == f"usage error: --tolerance must be a number >= 0, got {float(tolerance)}\n"

    def test_mse_component_protocol(self, capsys):
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "mse-total")
        assert code == 0
        assert "direct_fd_max_rel" in out

    @pytest.mark.parametrize("stat", [["mse-total"], ["mse-ay", "--year", "5"], ["reserve-total"], ["quantile"]])
    def test_text_builds_no_cell_column(self, capsys, monkeypatch, stat):
        """The text report prints the verdict and the count of cells, and
        builds none of the report's cell columns nor its cells."""
        reports = []
        verify = cli._verify
        monkeypatch.setattr(cli, "_verify", lambda *a: reports.append(verify(*a)) or reports[-1])
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", *stat)
        assert code == 0 and len(reports) == 1
        assert not {*COLUMNS, "cells"} & set(vars(reports[0]))
        assert f"cells checked: {reports[0].k.size}\n" in out

    def test_per_year_protocol_checks_that_year(self, capsys):
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "mse-ay", "--year", "5")
        assert code == 0
        assert "cells checked: 55\n" in out

    def test_json_cells_of_one_year(self, capsys, belgian):
        code, out, _ = run(
            capsys, "verify", bundled_path(), "--stat", "mse-ay", "--year", "5", "--format", "json"
        )
        assert code == 0
        cells = json.loads(out)["cells"]
        assert len(cells) == 55
        assert all(type(c["k"]) is int and type(c["j"]) is int for c in cells)
        row_major = [(k, j) for k in range(1, 11) for j in range(1, 12 - k)]
        assert [(c["k"], c["j"]) for c in cells] == row_major
        assert cells == verify_mse_components(belgian, year=5).cells

    @pytest.mark.parametrize(
        "proportional, stat",
        [(False, ["rmse-ay", "--year", "1"]), (True, ["rmse-total"])],
        ids=["rmse-ay-year-1", "rmse-total-proportional"],
    )
    def test_refuses_what_impact_refuses(self, capsys, tmp_path, proportional, stat):
        path = proportional_file(tmp_path) if proportional else bundled_path()
        impact_code, _, impact_err = run(capsys, "impact", path, "--stat", *stat)
        code, out, err = run(capsys, "verify", path, "--stat", *stat)
        assert code == impact_code == 2
        assert err == impact_err and "undefined" in err
        assert out == ""

    @pytest.mark.parametrize("stat", ["reserve-total", "bf-total"])
    def test_a_complex_step_that_overflows_exits_two(self, capsys, tmp_path, stat):
        """impact computes finite cells; verify refuses the step that
        overflows, naming the statistic, and writes no report."""
        path = rows_file(tmp_path, OVERFLOWING_STEP)
        assert run(capsys, "impact", path, "--stat", stat)[0] == 0
        code, out, err = run(capsys, "verify", path, "--stat", stat)
        assert (code, out) == (2, "")
        assert err == f"error: {stat}: the complex step is not finite where the analytic gradient is\n"

    @pytest.mark.parametrize("stat", [["mse-total"], ["rmse-total"], ["mse-ay", "--year", "4"], ["rmse-ay", "--year", "4"]])
    def test_an_mse_step_that_overflows_names_the_given_stat(self, capsys, tmp_path, stat):
        """The MSE verifier's refusal names the --stat given, not the label
        of its report."""
        code, out, err = run(capsys, "verify", rows_file(tmp_path, OVERFLOWING_MSE_STEP), "--stat", *stat)
        assert (code, out) == (2, "")
        assert err == f"error: {stat[0]}: the complex step is not finite where the analytic gradient is\n"

    def test_a_statistic_of_the_component_protocol_goes_to_the_mse_verifier(self, capsys, monkeypatch):
        """The route is the entry's components field of _STATISTICS, not the name."""
        monkeypatch.setitem(cli._STATISTICS, "quantile", cli._STATISTICS["quantile"]._replace(components=True))
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "quantile")
        assert code == 0 and out.startswith("statistic: mse-components\n")

    def test_no_extreme_triangle_reads_a_nan_verdict(self, capsys, tmp_path):
        """The triangles of extreme_files through verify for every --stat, in
        text and JSON: a verification may fail (exit 3), but never on a NaN
        max relative error, which is a step that overflowed and is refused by
        the --stat given; a pass (exit 0) writes no NaN and no infinity."""
        for t, dim, path in extreme_files(tmp_path):
            for stat, fmt in itertools.product(STATISTICS, ("text", "json")):
                year = ["--year", str(dim)] if _per_year(stat) else []
                code, out, err = run(capsys, "verify", path, "--stat", stat, *year, "--format", fmt)
                nan_verdict = "max relative error: nan" in out or '"max_rel_error": NaN' in out
                assert not (code == 3 and nan_verdict), (t, stat, fmt)
                assert not (code == 0 and NOT_FINITE.search(out)), (t, stat, fmt)
                assert "mse-components" not in err, (t, stat, fmt)

    @pytest.mark.parametrize("stat", ["bf-total", "bf-ay"])
    def test_piped_priors_read_as_a_file(self, capsys, tmp_path, stat):
        """verify reads the priors once, so a stream that can be read only
        once gives what the same priors from a file give."""
        priors = "".join(f"{i},6.0e8\n" for i in range(1, 11))
        p = tmp_path / "priors.csv"
        p.write_text(priors)
        argv = ["verify", bundled_path(), "--stat", stat, *(["--year", "6"] if stat == "bf-ay" else [])]
        want = run(capsys, *argv, "--priors", str(p))
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "w") as fh:
                fh.write(priors)
            got = run(capsys, *argv, "--priors", f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert want[0] == 0 and "result: PASS" in want[1]
        assert got == want


def test_no_extreme_triangle_breaks_a_command(capsys, tmp_path):
    """The triangles of extreme_files through `reserves --format json`, and
    for every --stat `impact` and `marginal --format json` and `heatmap`:
    each exits 0 or refuses the data (exit 2), none raises, and a document
    of exit 0 holds no NaN and no infinity."""
    for t, dim, path in extreme_files(tmp_path):
        argvs = [["reserves", path, "--format", "json"]]
        for stat in STATISTICS:
            target = [path, "--stat", stat, *(["--year", str(dim)] if _per_year(stat) else [])]
            argvs += [["impact", *target, "--format", "json"], ["marginal", *target, "--format", "json"],
                      ["heatmap", *target]]
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code in (0, 2), (t, argv)
            assert not (code == 0 and NOT_FINITE.search(out)), (t, argv)


ONE_FIT_COMMANDS = [
    *(["verify", "--stat", stat] for stat in ("reserve-total", "bf-total", "quantile", "mse-total")),
    ["verify", "--stat", "rmse-ay", "--year", "5"],
    ["impact", "--stat", "reserve-total"],
    ["impact", "--stat", "quantile"],
    ["reserves"],
]


@pytest.mark.parametrize("argv", ONE_FIT_COMMANDS, ids=" ".join)
def test_each_command_fits_the_triangle_once(capsys, monkeypatch, fit_builds, argv):
    """A command reads one baseline fit of its triangle: one real Fit built
    (the oracle's complex stack aside) and at most one sigma estimation, so
    verify steps the very fit its impacts were computed from."""
    sigma_fits = []
    estimate = chainladder.sigma2_values
    monkeypatch.setattr(chainladder, "sigma2_values", lambda *a: sigma_fits.append(a) or estimate(*a))
    code, _, _ = run(capsys, argv[0], bundled_path(), *argv[1:])
    assert code == 0
    assert len([args for args in fit_builds if not np.iscomplexobj(args[0])]) == 1
    assert len(sigma_fits) <= 1


class TestHeatmapCommand:
    def test_svg_structure(self, capsys, tmp_path):
        target = tmp_path / "map.svg"
        code, _, _ = run(
            capsys,
            "heatmap",
            bundled_path(),
            "--stat",
            "reserve-ay",
            "--year",
            "8",
            "--out",
            str(target),
        )
        assert code == 0
        svg = target.read_text()
        assert svg.startswith("<svg ")
        assert "-0.1762" in svg
        assert "min " in svg and "max " in svg

    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            run(
                capsys,
                "heatmap",
                bundled_path(),
                "--stat",
                "quantile",
                "--out",
                str(target),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_alias_of_impact_svg(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = [bundled_path(), "--stat", "mse-ay", "--year", "6"]
        assert run(capsys, "heatmap", *argv, "--out", str(a))[0] == 0
        assert run(capsys, "impact", *argv, "--format", "svg", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_zero_impacts_are_white(self, capsys):
        """Year 1's MSE impacts are all zero on the bundled triangle: with no
        scale, every cell and both legend swatches are filled white."""
        code, out, _ = run(capsys, "heatmap", bundled_path(), "--stat", "mse-ay", "--year", "1")
        assert code == 0
        fills = re.findall(r'<rect x="[^>]*fill="([^"]*)"', out)
        assert len(fills) == 55 + 2 and set(fills) == {"#ffffff"}

    def test_takes_no_format(self, capsys):
        code, _, err = run(capsys, "heatmap", bundled_path(), "--format", "csv")
        assert code == 1
        assert "--format" in err

    def test_label_keeps_four_decimals_within_a_doubles_digits(self):
        below = np.nextafter(1e13, 0.0)
        assert _label(below) == "9999999999999.9980" and _label(-below) == "-9999999999999.9980"
        assert _label(1e13) == "1.0000e+13" and _label(-1.8e15) == "-1.8000e+15"
        assert _label(-0.17624) == "-0.1762" and _label(0.0) == "0.0000"

    @pytest.mark.parametrize("command", ["impact", "marginal"])
    def test_no_label_holds_more_digits_than_a_double(self, capsys, command):
        """Every cell and legend label of every statistic's heatmap on the
        bundled triangle (the MSE ones reach 1.8e15) holds at most 17
        significant digits."""
        for stat in STATISTICS:
            for year in (2, 5, 10) if _per_year(stat) else (None,):
                argv = [command, bundled_path(), "--stat", stat, "--format", "svg"]
                code, out, _ = run(capsys, *argv, *(["--year", str(year)] if year else []))
                assert code == 0
                labels = re.findall(r">([^<]*)</text>", out)
                numbers = [n for label in labels for n in re.findall(r"-?[\d.]+(?:e[+-]\d+)?", label)]
                digits = [len(n.lstrip("-").split("e")[0].replace(".", "").lstrip("0")) for n in numbers]
                assert len(numbers) > 55 and max(digits) <= 17, (stat, year)


class TestUsageErrors:
    def test_missing_year(self, capsys):
        code, _, err = run(capsys, "impact", bundled_path(), "--stat", "reserve-ay")
        assert code == 1
        assert "requires --year" in err

    def test_year_on_total_statistic(self, capsys):
        code, _, err = run(
            capsys, "impact", bundled_path(), "--stat", "reserve-total", "--year", "3"
        )
        assert code == 1
        assert "does not take --year" in err

    def test_year_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "impact", bundled_path(), "--stat", "reserve-ay", "--year", "11"
        )
        assert code == 1

    def test_bad_quantile_level(self, capsys):
        code, _, err = run(
            capsys, "impact", bundled_path(), "--stat", "quantile", "--q", "1.5"
        )
        assert code == 1
        assert "--q" in err

    @pytest.mark.parametrize("command", ["impact", "marginal", "verify", "heatmap"])
    @pytest.mark.parametrize("stat", ["reserve-total", "mse-total", "rmse-ay", "quantile"])
    def test_priors_on_a_statistic_that_reads_none(self, capsys, command, stat):
        """Refused like --year on a total, before the file is opened."""
        year = ["--year", "3"] if _per_year(stat) else []
        got = run(capsys, command, bundled_path(), "--stat", stat, *year, "--priors", "/nonexistent.csv")
        assert got == (1, "", f"usage error: --stat {stat} does not take --priors\n")

    @pytest.mark.parametrize("command", ["impact", "marginal", "verify", "heatmap"])
    @pytest.mark.parametrize("stat", ["reserve-total", "bf-ay", "mse-total", "rmse-total"])
    @pytest.mark.parametrize("q", ["0.5", "2"])
    def test_q_on_a_statistic_other_than_the_quantile(self, capsys, command, stat, q):
        """A level nothing reads is refused, in range or not."""
        year = ["--year", "3"] if _per_year(stat) else []
        got = run(capsys, command, bundled_path(), "--stat", stat, *year, "--q", q)
        assert got == (1, "", f"usage error: --stat {stat} does not take --q\n")

    def test_the_defaults_of_q_and_priors_are_the_given_ones(self, capsys):
        for argv in (["--stat", "quantile", "--q", "0.995"], ["--stat", "bf-ay", "--year", "4", "--priors", "cl"]):
            want = run(capsys, "verify", bundled_path(), *argv[:-2], "--format", "json")
            assert want[0] == 0 and run(capsys, "verify", bundled_path(), *argv, "--format", "json") == want

    def test_unknown_statistic(self, capsys):
        code, _, err = run(capsys, "impact", bundled_path(), "--stat", "nope")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unwritable_output(self, capsys):
        code, _, err = run(
            capsys,
            "impact",
            bundled_path(),
            "--stat",
            "reserve-total",
            "--out",
            "/nonexistent-dir/x.csv",
        )
        assert code == 1
        assert "cannot write" in err


class TestANewEntry:
    """Entries added to the oracle's _STATISTICS run through main with no
    other edit, each as its fields and its name say: the choices, the flag
    checks and the verifier all read the table."""

    @pytest.fixture(autouse=True)
    def table(self, monkeypatch):
        monkeypatch.setitem(cli._STATISTICS, "q-alias", cli._STATISTICS["quantile"])
        monkeypatch.setitem(cli._STATISTICS, "alias-ay", cli._STATISTICS["reserve-ay"])
        monkeypatch.setitem(cli._STATISTICS, "stepped-total", _Statistic(_RESERVE.value, _RESERVE.grad))

    def same_as(self, capsys, stat, like, *flags):
        """impact of stat writes what like's does, and verify's report is
        like's under stat's label; both exit 0."""
        for command in ("impact", "verify"):
            got = run(capsys, command, bundled_path(), "--stat", stat, *flags)
            want = run(capsys, command, bundled_path(), "--stat", like, *flags)
            assert got == (0, want[1].replace(f"statistic: {like}\n", f"statistic: {stat}\n"), ""), command

    def test_an_alias_of_the_quantile_takes_q(self, capsys):
        self.same_as(capsys, "q-alias", "quantile", "--q", "0.9")
        got = run(capsys, "impact", bundled_path(), "--stat", "stepped-total", "--q", "0.9")
        assert got == (1, "", "usage error: --stat stepped-total does not take --q\n")

    def test_an_alias_named_per_year_requires_year(self, capsys):
        self.same_as(capsys, "alias-ay", "reserve-ay", "--year", "3")
        got = run(capsys, "impact", bundled_path(), "--stat", "alias-ay")
        assert got == (1, "", "usage error: --stat alias-ay requires --year\n")

    def test_an_entry_of_value_and_grad_is_verified_by_the_step_of_its_value(self, capsys):
        self.same_as(capsys, "stepped-total", "reserve-total")
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "stepped-total")
        assert code == 0 and out.startswith("statistic: stepped-total\n") and out.endswith("result: PASS\n")

    def test_an_alias_of_the_reserve_is_euler_checked(self, capsys, monkeypatch):
        """marginal runs the Euler check from the entry (order_one), not
        from the name, and marginal_contributions accepts it by its label."""
        seen = []

        def spy(impacts, inc, expected_total=None):
            seen.append(expected_total)
            return marginal_contributions(impacts, inc, expected_total)

        monkeypatch.setattr(cli, "marginal_contributions", spy)
        got = run(capsys, "marginal", bundled_path(), "--stat", "alias-ay", "--year", "3")
        assert got == run(capsys, "marginal", bundled_path(), "--stat", "reserve-ay", "--year", "3")
        assert seen[0] is not None and seen[0] == seen[1]  # the value of reserve-ay at year 3
        inc = cli.ingest(bundled_path())
        impacts, value, _ = cli.compute("alias-ay", inc, 3, 0.995, "cl")
        assert impacts.statistic == "alias-ay"
        assert marginal_contributions(impacts, inc, value).statistic == "alias-ay-contribution"


class TestDataErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "reserves", "/no/such/file.csv")
        assert code == 2
        assert "cannot read" in err

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "empty input file" in err

    def test_bad_header(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dim=3\n1,2,3\n4,5\n6\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "first line must be I=" in err

    def test_ragged_row(self, capsys, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("I=3\n1,2,3\n4,5,6\n7\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "row 2: expected 2 values, got 3" in err

    def test_non_numeric_cell(self, capsys, tmp_path):
        p = tmp_path / "alpha.csv"
        p.write_text("I=3\n1,x,3\n4,5\n6\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "row 1, column 2" in err

    @pytest.mark.parametrize("rows, message", [
        ("1, x ,3\n4,5\n6,7", "row 1, column 2: not a number: 'x'"),
        ("1,2,3\n4,0x10\n6,7", "row 2, column 2: not a number: '0x10'"),
        ("1,2\n4,1.5e\n6", "row 1: expected 3 values, got 2"),
        ("1,2,3\n4,5\n", "expected 3 data rows after the header, got 2"),
        ("1,2,3\n4,,\n6", "row 2: expected 2 values, got 3"),
        ("1,2,3\n4,\n6", "row 2, column 2: not a number: ''"),
        ("1,2,3\n4,5\n6y", "row 3, column 1: not a number: '6y'"),
    ], ids=["token", "hex", "count-first", "rows", "count-after-empty", "empty", "last-row"])
    def test_the_first_bad_row_is_named(self, capsys, tmp_path, rows, message):
        """The first row in file order with a wrong count of values or a
        token float() refuses is named, by column for a token, and later
        rows are not read for it."""
        p = tmp_path / "bad.csv"
        p.write_text(f"I=3\n{rows}\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert (code, err) == (2, f"error: {p}: {message}\n")

    def test_every_value_reads_as_float_reads_it(self, tmp_path):
        tokens = ["1_000", " 2.5 ", "\u0661\u0662", "-0.0", "1e-400", "+.5"]
        p = tmp_path / "float.csv"
        p.write_text("I=3\n" + ",".join(tokens[:3]) + "\n" + ",".join(tokens[3:5]) + "\n" + tokens[5] + "\n")
        got = cli.ingest(str(p)).values[observed_mask(3)]
        assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_ingest_builds_its_triangle_in_place(self, monkeypatch, belgian):
        """The parsed numbers are written once, onto the triangle's own
        array: no public constructor copies them (Container.__post_init__)."""
        def copy(self):
            raise AssertionError("a public constructor copied the triangle")

        monkeypatch.setattr(Container, "__post_init__", copy)
        inc = cli.ingest(bundled_path())
        assert type(inc) is IncrementalTriangle and inc.values.tobytes() == belgian.values.tobytes()
        assert inc.values.flags.owndata and not inc.values.flags.writeable

    def test_negative_cell_rejected(self, capsys, tmp_path):
        """A negative cumulative cell is refused by name; a negative
        increment whose row stays >= 0 is not."""
        p = tmp_path / "neg.csv"
        p.write_text("I=3\n1,2,3\n4,-5\n6\n")
        assert run(capsys, "reserves", str(p)) == (2, "", f"error: {p}: negative cumulative cell (2, 2): -1.0\n")
        p.write_text("I=3\n1,2,3\n4,-3\n6\n")
        assert run(capsys, "reserves", str(p))[0] == 0

    def test_non_finite_cell_rejected(self, capsys, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("I=4\ninf,2,3,4\n4,5,6\n6,7\n8\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "non-finite cell (1, 1): inf" in err

    @pytest.mark.parametrize(
        "stat",
        [["quantile"], ["rmse-total"], ["rmse-ay", "--year", "3"]],
        ids=["quantile", "rmse-total", "rmse-ay"],
    )
    def test_zero_mse_quantile_names_the_cause(self, capsys, tmp_path, stat):
        code, _, err = run(capsys, "impact", proportional_file(tmp_path), "--stat", *stat)
        assert code == 2
        assert "all development ratios are proportional, every sigma^2 is 0" in err

    def test_wrong_row_count(self, capsys, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("I=3\n1,2,3\n4,5\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "expected 3 data rows" in err

    @pytest.mark.parametrize(
        "header, message",
        [("I=abc", "bad dimension 'abc'"), ("I=1", "dimension must be at least 2, got 1")],
        ids=["not-a-number", "too-small"],
    )
    def test_bad_dimension(self, capsys, tmp_path, header, message):
        p = tmp_path / "dim.csv"
        p.write_text(f"{header}\n1\n")
        code, out, err = run(capsys, "reserves", str(p))
        assert (code, out, err) == (2, "", f"error: {p}: {message}\n")

    def test_missing_priors_file(self, capsys, tmp_path):
        p = tmp_path / "absent.csv"
        code, out, err = run(capsys, "impact", bundled_path(), "--stat", "bf-total", "--priors", str(p))
        cause = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(p))
        assert (code, out, err) == (2, "", f"error: cannot read priors {p}: {cause}\n")

    @pytest.mark.parametrize(
        "line, message",
        [("1,abc", "bad priors line '1,abc'"), ("11,5", "accident year 11 out of range")],
        ids=["not-a-number", "year-out-of-range"],
    )
    def test_bad_priors_line(self, capsys, tmp_path, line, message):
        p = tmp_path / "priors.csv"
        p.write_text(f"{line}\n")
        code, out, err = run(capsys, "impact", bundled_path(), "--stat", "bf-total", "--priors", str(p))
        assert (code, out, err) == (2, "", f"error: {p}: {message}\n")

    def test_bad_priors_file(self, capsys, tmp_path):
        p = tmp_path / "priors.csv"
        p.write_text("1;5e8\n")
        code, _, err = run(
            capsys,
            "impact",
            bundled_path(),
            "--stat",
            "bf-total",
            "--priors",
            str(p),
        )
        assert code == 2
        assert "bad priors line" in err

    def test_priors_file_naming_a_year_twice_is_refused(self, capsys, tmp_path):
        tri = tmp_path / "tri.csv"
        tri.write_text("I=3\n100,50,10\n120,60\n130\n")
        p = tmp_path / "priors.csv"
        p.write_text("1,1000\n2,2000\n3,3000\n\n2,9000\n")
        code, out, err = run(capsys, "impact", str(tri), "--stat", "bf-ay", "--year", "2", "--priors", str(p))
        assert code == 2 and out == ""
        assert f"{p}: line 5: accident year 2 given twice, first on line 2" in err

    def test_priors_file_happy_path(self, capsys, tmp_path):
        p = tmp_path / "priors.csv"
        p.write_text("".join(f"{i},6.0e8\n" for i in range(1, 11)))
        code, out, _ = run(
            capsys,
            "impact",
            bundled_path(),
            "--stat",
            "bf-total",
            "--priors",
            str(p),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["statistic"] == "bf-total"
        assert doc["summary"]["value_of_statistic"] > 0.0


class TestNotUtf8:
    """A triangle or priors file that is not UTF-8 (here Latin-1, its
    \xe9 an 'e' with an acute accent) is bad data, refused by its role and
    name with the decoder's cause, as a file that cannot be read is."""

    @pytest.mark.parametrize("command", [["reserves"], ["impact"], ["verify", "--stat", "quantile"]], ids=" ".join)
    def test_triangle(self, capsys, tmp_path, command):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"I=2\n1,2\n3\xe9\n")
        cause = "'utf-8' codec can't decode byte 0xe9 in position 9: invalid continuation byte"
        assert run(capsys, command[0], str(p), *command[1:]) == (2, "", f"error: cannot read {p}: {cause}\n")

    @pytest.mark.parametrize("command", [["reserves"], ["impact", "--stat", "bf-total"]], ids=" ".join)
    def test_priors(self, capsys, tmp_path, command):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"1,6.0e8\xe9\n")
        cause = "'utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte"
        got = run(capsys, command[0], bundled_path(), *command[1:], "--priors", str(p))
        assert got == (2, "", f"error: cannot read priors {p}: {cause}\n")


class TestByteOrderMark:
    """A file saved with a UTF-8 byte-order mark, as spreadsheet "CSV
    UTF-8" exports are, reads as the same file without it."""

    def test_triangle(self, capsys, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + Path(bundled_path()).read_bytes())
        for command in (["reserves"], ["impact", "--format", "json"]):
            want = run(capsys, command[0], bundled_path(), *command[1:])
            assert want[0] == 0
            assert run(capsys, command[0], str(p), *command[1:]) == want, command

    def test_priors(self, capsys, tmp_path):
        priors = "".join(f"{i},6.0e8\n" for i in range(1, 11))
        plain, bom = tmp_path / "priors.csv", tmp_path / "bom.csv"
        plain.write_text(priors, encoding="utf-8")
        bom.write_text(priors, encoding="utf-8-sig")
        argv = ["impact", bundled_path(), "--stat", "bf-total", "--format", "json", "--priors"]
        want = run(capsys, *argv, str(plain))
        assert want[0] == 0
        assert run(capsys, *argv, str(bom)) == want


# Two triangles whose numbers overflow double precision: in the column
# partial sums, which validate refuses, and in the Mack MSE alone.
OVERFLOWING_SUMS = "I=4\n1e308,1e308,1,1\n1,1,1\n1,1\n1\n"
OVERFLOWING_MSE = "I=4\n1e200,2e200,1e200,1e199\n1.1e200,2e200,1e200\n1.2e200,2.1e200\n1.3e200\n"
STAT_COMMANDS = [
    [command, "--stat", stat, *(["--year", "3"] if _per_year(stat) else [])]
    for command in ("impact", "marginal", "verify", "heatmap")
    for stat in STATISTICS
]

SQUARES_COMMANDS = [  # year 6, whose ultimate squares past the largest double
    [command, "--stat", stat, *(["--year", "6"] if _per_year(stat) else [])]
    for command in ("impact", "verify")
    for stat in ("mse-ay", "mse-total", "rmse-ay", "rmse-total", "quantile")
]


# An I = 4 triangle whose first factor overflows (f_1 ~ 3e599), so year
# 4's ultimate is infinite; and one whose ultimates are finite but whose
# reserves (1.2e308 for each of years 2 to 4) sum past the largest double.
OVERFLOWING_ULTIMATE = "I=4\n1e-300,1e300,1,1\n1e-300,1e-300,1\n1e-300,1e-300\n1e100\n"
OVERFLOWING_RESERVE_TOTAL = "I=4\n1,1,1,1.2e308\n1,1,1\n1,1\n1\n"
# An I = 4 triangle whose sigma^2_1 overflows to inf, so year 4's MSE is
# inf and the total's inf * 0 = NaN (and where one complex step h for
# every fitted sum misreads B_1, far below it: verify --stat reserve-ay
# --year 4 exits 3 on impacts that are right).
OVERFLOWING_SIGMA = (
    "I=4\n3.317885548114321e+68,2.458815192647783e+116,1.9397754402600403e+51,5.390711814568673e+139\n"
    "1035510060857.5759,5.256364548785121e-23,1.1516467043564973e-128\n"
    "3.0974335492989166e-163,1.517971630576952e+117\n2.671847629323428e+117\n"
)


class TestOverflow:
    @pytest.mark.parametrize("argv", [["reserves"], *STAT_COMMANDS], ids=" ".join)
    def test_overflowing_column_sums_are_refused(self, capsys, tmp_path, argv):
        p = tmp_path / "sums.csv"
        p.write_text(OVERFLOWING_SUMS)
        code, out, err = run(capsys, *argv, str(p))
        assert code == 2 and out == ""
        assert "overflowing column partial sum: column 2, rows 1..1" in err

    @pytest.mark.parametrize("argv", STAT_COMMANDS, ids=" ".join)
    def test_an_overflowing_statistic_is_refused(self, capsys, tmp_path, argv):
        """Every Mack statistic of the triangle overflows; its reserves and
        BF reserves do not, and are computed."""
        p = tmp_path / "mse.csv"
        p.write_text(OVERFLOWING_MSE)
        code, out, err = run(capsys, *argv, str(p))
        stat = argv[2]
        if stat.startswith(("reserve", "bf")):
            assert code == 0 and err == ""
            assert "nan" not in out.lower() and "inf" not in out.lower()
        else:
            assert code == 2 and out == ""
            assert err == f"error: {p}: --stat {stat} overflows double precision\n"

    @pytest.mark.parametrize("argv", SQUARES_COMMANDS, ids=" ".join)
    def test_a_statistic_whose_squares_alone_overflow_is_computed(self, capsys, tmp_path, argv):
        """A near proportional triangle times 2^500: its ultimates square
        past the largest double, its MSE (3.5e283) does not, so every Mack
        statistic is computed and verified, not refused as an overflow."""
        rows = near_proportional(6, 1e-12).to_rows()
        p = tmp_path / "p500.csv"
        p.write_text("I=6\n" + "".join(",".join(repr(x * 2.0**500) for x in row) + "\n" for row in rows))
        code, out, err = run(capsys, *argv, str(p))
        assert code == 0 and err == ""
        assert out.endswith("result: PASS\n") if argv[0] == "verify" else "nan" not in out and "inf" not in out

    def test_reserves_leave_an_overflowing_rmse_empty(self, capsys, tmp_path):
        """Year 1 has no development ahead, so its MSE is exactly 0 and
        does not overflow; every other year's does, and the total's."""
        p = tmp_path / "mse.csv"
        p.write_text(OVERFLOWING_MSE)
        code, out, err = run(capsys, "reserves", str(p))
        assert code == 0
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["0"] + [""] * 4
        assert err == "note: rmse left empty where the MSE overflows double precision\n"
        code, out, _ = run(capsys, "reserves", str(p), "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["summary"]["rmse_total"] is None
        assert [y["rmse"] for y in doc["years"]] == [0.0] + [None] * 3

    @pytest.mark.parametrize("year", ["1", "2"])
    def test_a_year_with_no_development_ahead_reads_a_zero_mse(self, capsys, tmp_path, year):
        """Year 4's ultimate is inf, so years 3 and 4 overflow. Year 1, with
        no development ahead, and year 2, whose sigma^2 ahead is 0, read an
        MSE of 0: its impacts are 0, and the RMSE is refused by its own rule.
        Year 1 once read NaN here, and was refused as an overflow. Their
        verification reads a verdict of 0, but the building blocks' steps
        overflow, so a note is NaN and the verification is refused; it
        once passed with that NaN note."""
        p = tmp_path / "t.csv"
        p.write_text(OVERFLOWING_ULTIMATE)
        code, out, err = run(capsys, "impact", str(p), "--stat", "mse-ay", "--year", year)
        cells = [f"{k},{j},0" for k in range(1, 5) for j in range(1, 6 - k)]
        assert code == 0 and err == "" and out.splitlines()[1:] == cells
        got = run(capsys, "verify", str(p), "--stat", "mse-ay", "--year", year)
        assert got == (2, "", "error: mse-ay: the note d_ultimate_max_rel is not finite\n")
        for command in ("impact", "verify"):
            got = run(capsys, command, str(p), "--stat", "rmse-ay", "--year", year)
            assert got == (2, "", "error: rmse-ay impact undefined: mse = 0.0\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("priors", [False, True], ids=["cl-priors", "priors-file"])
    @pytest.mark.parametrize("triangle", [OVERFLOWING_ULTIMATE, OVERFLOWING_RESERVE_TOTAL], ids=["ultimate", "total"])
    def test_reserves_refuse_overflowing_reserves(self, capsys, tmp_path, triangle, priors, fmt):
        p = tmp_path / "t.csv"
        p.write_text(triangle)
        argv = ["reserves", str(p), "--format", fmt]
        if priors:
            (tmp_path / "priors.csv").write_text("".join(f"{i},1\n" for i in range(1, 5)))
            argv += ["--priors", str(tmp_path / "priors.csv")]
        assert run(capsys, *argv) == (2, "", f"error: {p}: the chain-ladder reserves overflow double precision\n")

    @pytest.mark.parametrize("command", ["impact", "verify"])
    @pytest.mark.parametrize("target", [["quantile"], ["rmse-total"], ["mse-total"], ["rmse-ay", "--year", "4"],
                                        ["mse-ay", "--year", "4"]], ids=" ".join)
    @pytest.mark.parametrize("triangle", [OVERFLOWING_ULTIMATE, OVERFLOWING_SIGMA], ids=["ultimate", "sigma"])
    def test_a_mack_statistic_whose_mse_overflows_names_the_overflow(self, capsys, tmp_path, triangle, target,
                                                                     command):
        """The total MSE of both triangles is NaN, and year 4's MSE NaN on
        the first and inf on the second: on a triangle validate accepts,
        only an overflow makes an MSE so, and every Mack statistic that
        reads it is refused as one, the quantile and the RMSE as the MSE."""
        p = tmp_path / "t.csv"
        p.write_text(triangle)
        want = f"error: {p}: --stat {target[0]} overflows double precision\n"
        assert run(capsys, command, str(p), "--stat", *target) == (2, "", want)

    @pytest.mark.parametrize("command", ["impact", "marginal", "verify", "heatmap"])
    @pytest.mark.parametrize("target", [["bf-total"], ["bf-ay", "--year", "2"]], ids=" ".join)
    def test_an_infinite_ultimate_is_no_prior(self, capsys, tmp_path, command, target):
        """Year 2's BF reserve needs year 2's prior alone, but the priors
        are the chain-ladder ultimates, refused as a whole."""
        p = tmp_path / "t.csv"
        p.write_text(OVERFLOWING_ULTIMATE)
        assert run(capsys, command, str(p), "--stat", *target) == (
            2, "", "error: chain-ladder ultimate of accident year 4 overflows double precision\n"
        )


OUT_COMMANDS = [
    ["reserves"],
    ["reserves", "--format", "json"],
    *(["impact", "--stat", "reserve-ay", "--year", "8", "--format", fmt] for fmt in ("csv", "json", "svg")),
    ["marginal", "--stat", "bf-total"],
    ["heatmap", "--stat", "mse-total"],
    ["verify"],
    ["verify", "--stat", "mse-ay", "--year", "4", "--format", "json"],
    ["verify", "--tolerance", "0"],  # fails, exit 3, and still writes its report
]


class TestOutputFile:
    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=" ".join)
    def test_out_holds_what_stdout_would(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, argv[0], bundled_path(), *argv[1:])
        assert code == (3 if "--tolerance" in argv else 0) and out
        target = tmp_path / "out"
        assert run(capsys, argv[0], bundled_path(), *argv[1:], "--out", str(target)) == (code, "", err)
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("command", ["reserves", "verify"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "out"
        code, out, err = run(capsys, command, bundled_path(), "--out", str(target))
        assert (code, out) == (1, "") and err.startswith(f"usage error: cannot write {target}: ")


class TestNoStderr:
    """Where there is no stderr (sys.stderr is None, as in an embedding
    host or under pythonw), a note or an error goes nowhere, and never
    into the document on stdout."""

    @pytest.mark.parametrize("argv, code", [
        (["reserves", "<zero>"], 0),  # the zero-cell note: rmse column left empty
        (["impact", bundled_path(), "--stat", "reserve-ay"], 1),
        (["reserves", "<missing>"], 2),
    ], ids=["note", "usage-error", "data-error"])
    def test_a_note_or_an_error_goes_nowhere(self, capsys, monkeypatch, tmp_path, argv, code):
        zero = rows_file(tmp_path, [[100, 50, 10, 5], [0, 60, 12], [130, 70], [140]], "zero.csv")
        argv = [zero if a == "<zero>" else str(tmp_path / "missing.csv") if a == "<missing>" else a for a in argv]
        got, document, err = run(capsys, *argv)
        assert got == code and err
        monkeypatch.setattr(sys, "stderr", None)
        assert run(capsys, *argv) == (code, document, "")


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert "reserves" in out and "heatmap" in out

    def test_help_describes_the_commands_and_exit_codes_alone(self, capsys):
        """The description is the module docstring's first two paragraphs,
        not what it says of main and run."""
        with pytest.raises(SystemExit):
            main(["--help"])
        words = " ".join(capsys.readouterr()[0].split())
        assert " ".join(" ".join(cli.__doc__.split("\n\n")[:2]).split()) in words
        assert "Exit codes: 0 success" in words and "process entry" not in words
