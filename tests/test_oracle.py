import math

import numpy as np
import pytest

import golden
from conftest import build_corpus, proportional_triangle, random_triangle
from runoff.chainladder import Fit, estimate_development_factors, estimate_sigmas
from runoff.impact import impact_reserve_total
from runoff.oracle import (
    FdScheme,
    VerificationReport,
    _assemble_mse_from_blocks,
    _fd_blocks,
    fd_derivative,
    relative_error,
    verify_mse_components,
    verify_quantile_impacts,
    verify_reserve_impacts,
)
from runoff.triangle import IncrementalTriangle, cumulate
from test_acceptance import TABLE_TOL


class TestRelativeError:
    def test_zero_vs_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_tiny_values_use_floor(self):
        assert relative_error(0.0, 1e-14) == pytest.approx(0.01)

    def test_symmetric(self):
        assert relative_error(2.0, 1.0) == relative_error(1.0, 2.0) == 0.5


class TestFdDerivative:
    def test_identity_statistic(self, belgian):
        got = fd_derivative(lambda t: t.cell(3, 2), belgian, 3, 2)
        assert abs(got - 1.0) <= 1e-10

    def test_constant_statistic(self, belgian):
        got = fd_derivative(lambda t: 42.0, belgian, 3, 2)
        assert abs(got) <= 1e-10

    def test_total_reserve_cornerpoint(self, belgian):
        def total(t):
            c = cumulate(t)
            from runoff.chainladder import reserves

            return reserves(c, estimate_development_factors(c))[1]

        assert abs(fd_derivative(total, belgian, 1, 1) - (-1.3875)) <= 5e-4

    def test_forward_fallback_near_zero(self):
        tri = IncrementalTriangle.from_rows(
            [[0.005, 1.0, 1.0], [1.0, 1.0], [1.0]]
        )
        # the default floor step would push 0.005 negative, so a forward
        # difference of a linear statistic must still be exact
        got = fd_derivative(lambda t: 3.0 * t.cell(1, 1), tri, 1, 1)
        assert math.isclose(got, 3.0, rel_tol=1e-9)

    def test_step_halving_converges_quadratically(self, belgian):
        def total(t):
            c = cumulate(t)
            from runoff.chainladder import reserves

            return reserves(c, estimate_development_factors(c))[1]

        cum = cumulate(belgian)
        exact = impact_reserve_total(cum, estimate_development_factors(cum)).cell(2, 3)
        errors = []
        for rel in (4e-3, 2e-3, 1e-3):
            got = fd_derivative(total, belgian, 2, 3, FdScheme(relative_step=rel))
            errors.append(abs(got - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_does_not_mutate_input(self, belgian):
        before = np.array(belgian.values)
        fd_derivative(lambda t: t.cell(1, 1) ** 2, belgian, 1, 1)
        assert np.array_equal(
            np.nan_to_num(before), np.nan_to_num(belgian.values)
        )


class TestVerificationReport:
    def test_empty_report(self):
        report = VerificationReport(statistic="x", tolerance=1e-5)
        assert report.max_rel_error == 0.0
        assert report.worst_cell is None
        assert report.passed

    def test_to_dict_shape(self):
        report = VerificationReport(statistic="x", tolerance=1e-5)
        report.add(1, 1, 1.0, 1.0)
        doc = report.to_dict()
        assert doc["statistic"] == "x"
        assert doc["passed"] is True
        assert doc["cells"][0]["rel_error"] == 0.0


class TestVerifyReserveImpacts:
    def test_bundled_total(self, belgian):
        report = verify_reserve_impacts(belgian, "reserve-total")
        assert report.passed, report.worst_cell

    def test_bundled_year8_with_exact_zeros(self, belgian):
        report = verify_reserve_impacts(belgian, "reserve-ay", year=8)
        assert report.passed
        zero_cells = {(9, 1), (9, 2), (10, 1)}
        for cell in report.cells:
            if (cell["k"], cell["j"]) in zero_cells:
                assert cell["analytic"] == 0.0
                assert cell["numeric"] == 0.0

    def test_bf_variants(self, belgian):
        for stat, year in (("bf-total", None), ("bf-ay", 6)):
            report = verify_reserve_impacts(belgian, stat, year)
            assert report.passed, (stat, report.max_rel_error)

    def test_year_required_for_per_year(self, belgian):
        with pytest.raises(ValueError, match="needs an accident year"):
            verify_reserve_impacts(belgian, "reserve-ay")

    def test_proportional_triangle(self):
        report = verify_reserve_impacts(proportional_triangle(), "reserve-total")
        assert report.passed

    def test_purity(self, belgian):
        before = np.nan_to_num(np.array(belgian.values))
        verify_reserve_impacts(belgian, "reserve-ay", year=3)
        assert np.array_equal(before, np.nan_to_num(belgian.values))


class TestVerifyMseComponents:
    def test_bundled(self, belgian):
        report = verify_mse_components(belgian)
        assert report.passed, (report.max_rel_error, report.worst_cell)

    def test_building_block_notes(self):
        tri = build_corpus(count=1, seed=99)[0]
        report = verify_mse_components(tri)
        assert report.passed
        assert report.notes["d_ln_f_max_rel"] <= 1e-5
        assert report.notes["d_ultimate_max_rel"] <= 1e-5
        assert report.notes["d_colsum_fsq_max_rel"] <= 1e-5

    def test_direct_fd_documented_not_asserted(self, belgian):
        # the raw derivative of the plug-in estimator is a different object;
        # the report records how far it sits from the impact formula
        report = verify_mse_components(belgian)
        assert "direct_fd_max_rel" in report.notes
        assert report.notes["direct_fd_max_rel"] > report.tolerance

    def test_all_sigma_zero_assemblies_vanish(self):
        report = verify_mse_components(proportional_triangle())
        assert report.passed
        assert all(c["analytic"] == 0.0 and c["numeric"] == 0.0 for c in report.cells)

    def test_year_checks_that_triangle_alone(self, belgian):
        full = verify_mse_components(belgian)
        one = verify_mse_components(belgian, year=5)
        n = 55
        assert len(full.cells) == 10 * n
        assert one.cells == full.cells[3 * n : 4 * n]
        assert one.passed

    def test_year_out_of_range(self, belgian):
        with pytest.raises(ValueError, match="out of range"):
            verify_mse_components(belgian, year=11)


def loop_assembly(inc, blocks, per_year=False):
    """The per-cell (i, k, j, r, n) loop the one-pass assembly replaced,
    kept as its reference, on a dense dC[n, r][k, j] rebuilt from dcrow."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    dim = inc.dimension
    fit = Fit.build(cum, factors, estimate_sigmas(cum, factors))
    ult = fit.ult
    dlnf, dult = blocks["dlnf"], blocks["dult"]
    dc = np.zeros((dim, dim, dim, dim))
    for n in range(dim):
        dc[n, :, n, :] = blocks["dcrow"][:, n, :]
    yearly = {}
    total = np.zeros((dim, dim))
    for i in range(2, dim + 1):
        latest = fit.latest[i - 1]
        fprod = fit.fprod[i - 1]
        w = fit.w[i - 1]
        proc = fit.process[i - 1]
        m_i = np.zeros((dim, dim))
        shrink = -2.0 * latest * fprod * math.sqrt(w) if w > 0.0 else 0.0
        for k in range(1, i + 1):
            for j in range(1, dim - k + 2):
                if k == i:
                    dlatest = dc[i - 1, dim - i, k - 1, j - 1]
                    m_i[k - 1, j - 1] = (proc + 2.0 * latest * fprod**2 * w) * dlatest
                else:
                    if_res = ult[i - 1] * float(
                        np.sum(dlnf[dim - i : dim - 1, k - 1, j - 1])
                    )
                    m_i[k - 1, j - 1] = shrink * if_res
        yearly[i] = m_i
        u_i = ult[i - 1] * float(np.sum(ult[i:]))
        v_i = 2.0 * w
        cross = np.zeros((dim, dim))
        for k in range(1, dim + 1):
            for j in range(1, dim - k + 2):
                dv = 0.0
                for r in range(dim - i + 1, dim):
                    s_r = fit.den[r - 1]
                    f_r2 = fit.factors[r - 1] ** 2
                    inner = 0.0
                    for n in range(1, dim - r + 1):
                        c_nr = cum.cell(n, r)
                        dln_c = dc[n - 1, r - 1, k - 1, j - 1] / c_nr
                        inner += f_r2 * c_nr * (dln_c + 2.0 * dlnf[r - 1, k - 1, j - 1])
                    dv += -2.0 * fit.sigma2[r - 1] * inner / (s_r * f_r2) ** 2
                later_d = float(np.sum(dult[i:dim, k - 1, j - 1]))
                du = ult[i - 1] * later_d + float(np.sum(ult[i:])) * dult[
                    i - 1, k - 1, j - 1
                ]
                cross[k - 1, j - 1] = u_i * dv + v_i * du
        total += m_i + cross
    return yearly if per_year else total


@pytest.mark.parametrize("dim", [4, 7, 12])
def test_assembly_matches_the_loop_reference(dim):
    inc = random_triangle(np.random.default_rng([4, dim]), dim)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    fit = Fit.build(cum, factors, estimate_sigmas(cum, factors))
    blocks = _fd_blocks(inc, FdScheme())
    yearly, total = _assemble_mse_from_blocks(fit, blocks)
    rows = np.arange(dim)
    observed = rows[:, None] + rows <= dim - 1

    def close(got, want):
        scale = np.max(np.abs(want[observed]))
        assert scale > 0.0
        assert np.max(np.abs(got - want)[observed]) <= 1e-13 * scale

    assert not np.any(yearly[0])
    for i, want in loop_assembly(inc, blocks, per_year=True).items():
        close(yearly[i - 1], want)
    close(total, loop_assembly(inc, blocks))


class TestVerifyQuantileImpacts:
    def test_bundled(self, belgian):
        report = verify_quantile_impacts(belgian, 0.995)
        assert report.passed, (report.max_rel_error, report.worst_cell)
        # the golden quantile table is this report's numeric column
        off = [
            (c["k"], c["j"], c["numeric"])
            for c in report.cells
            if abs(c["numeric"] - golden.IMPACT_QUANTILE_995[c["k"] - 1][c["j"] - 1])
            > TABLE_TOL
        ]
        assert not off, off

    def test_q_sweep_on_random_triangle(self):
        tri = build_corpus(count=4, seed=5)[3]
        for q in (0.75, 0.9, 0.99):
            report = verify_quantile_impacts(tri, q)
            assert report.passed, (q, report.max_rel_error)

    def test_median_sigma_contribution_absent(self, belgian):
        report = verify_quantile_impacts(belgian, 0.5)
        assert report.passed
