import json

import numpy as np
import pytest

from conftest import bundled_path, proportional_triangle
from runoff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def proportional_file(tmp_path) -> str:
    """conftest.proportional_triangle as a triangle file: every sigma^2 is 0."""
    p = tmp_path / "proportional.csv"
    rows = proportional_triangle().to_rows()
    p.write_text(f"I={len(rows)}\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    return str(p)


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
        assert abs(doc["summary"]["reserve_total"] - 1_463_388_942) <= 1.0
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
        assert abs(doc["summary"]["value_of_statistic"] - 226_403_952) <= 1.0

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
        assert abs(total - 1_463_388_942) <= 200.0  # 10 significant digits per cell

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

    def test_mse_component_protocol(self, capsys):
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "mse-total")
        assert code == 0
        assert "direct_fd_max_rel" in out

    def test_per_year_protocol_checks_that_year(self, capsys):
        code, out, _ = run(capsys, "verify", bundled_path(), "--stat", "mse-ay", "--year", "5")
        assert code == 0
        assert "cells checked: 55\n" in out

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

    def test_takes_no_format(self, capsys):
        code, _, err = run(capsys, "heatmap", bundled_path(), "--format", "csv")
        assert code == 1
        assert "--format" in err


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

    def test_negative_cell_rejected(self, capsys, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("I=3\n1,2,3\n-4,5\n6\n")
        code, _, err = run(capsys, "reserves", str(p))
        assert code == 2
        assert "negative cell" in err

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


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert "reserves" in out and "heatmap" in out
