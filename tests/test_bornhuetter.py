import math

import numpy as np
import pytest

from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.chainladder import estimate_development_factors, project_ultimates, reserves
from runoff.impact import impact_bf_ay, impact_bf_total
from runoff.oracle import verify_reserve_impacts
from runoff.triangle import IncrementalTriangle, cumulate


class TestPriors:
    def test_default_priors_are_ultimates(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        priors = default_priors(cum, factors)
        assert np.allclose(priors.values, project_ultimates(cum, factors), rtol=0)

    def test_priors_are_a_snapshot(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        source = project_ultimates(cum, factors)
        priors = PriorUltimates(10, np.array(source))
        source[:] = 0.0
        assert priors.prior(1) > 0.0

    def test_an_overflowing_ultimate_is_refused_by_year(self):
        """f_1 ~ 3e599, so year 4's ultimate is infinite; the verifier's
        default priors are refused the same way."""
        inc = IncrementalTriangle.from_rows([[1e-300, 1e300, 1, 1], [1e-300, 1e-300, 1], [1e-300, 1e-300], [1e100]])
        cum = cumulate(inc)
        message = "chain-ladder ultimate of accident year 4 overflows double precision"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            default_priors(cum, estimate_development_factors(cum))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            verify_reserve_impacts(inc, "bf-total")

    def test_prior_bounds(self):
        priors = PriorUltimates(3, np.array([1.0, 2.0, 3.0]))
        assert priors.prior(2) == 2.0
        with pytest.raises(IndexError, match="accident year 4"):
            priors.prior(4)


class TestBfReserves:
    def test_cl_priors_reproduce_cl_reserves(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        priors = default_priors(cum, factors)
        bf_by_year, bf_total = bf_reserves(cum, factors, priors)
        cl_by_year, cl_total = reserves(cum, factors)
        assert np.allclose(bf_by_year, cl_by_year, rtol=1e-12, atol=1e-6)
        assert math.isclose(bf_total, cl_total, rel_tol=1e-12)

    def test_custom_priors_formula(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        mu = np.full(10, 5.0e8)
        by_year, total = bf_reserves(cum, factors, PriorUltimates(10, mu))
        for i in range(1, 11):
            fprod = factors.product(11 - i, 9)
            assert math.isclose(by_year[i - 1], 5.0e8 * (1.0 - 1.0 / fprod), rel_tol=1e-14)
        assert math.isclose(total, float(np.sum(by_year)), rel_tol=1e-14)

    def test_first_year_needs_no_prior(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        mu = np.full(10, 5.0e8)
        mu[0] = np.nan
        by_year, _ = bf_reserves(cum, factors, PriorUltimates(10, mu))
        assert by_year[0] == 0.0

    def test_first_year_needs_no_prior_in_the_impacts(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        priors = default_priors(cum, factors)
        mu = priors.values.copy()
        mu[0] = np.nan
        given = PriorUltimates(10, mu)
        assert impact_bf_total(cum, factors, given).values.tobytes() == \
            impact_bf_total(cum, factors, priors).values.tobytes()
        for i in (1, 2, 10):
            assert impact_bf_ay(cum, factors, given, i).values.tobytes() == \
                impact_bf_ay(cum, factors, priors, i).values.tobytes()

    @staticmethod
    def refused_by_every_bf_statistic(belgian, year, prior, want):
        """The five BF callables refuse the chain-ladder priors with year's
        prior replaced, each with the message want."""
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        mu = default_priors(cum, factors).values.copy()
        mu[year - 1] = prior
        priors = PriorUltimates(10, mu)
        for call in (
            lambda: bf_reserves(cum, factors, priors),
            lambda: impact_bf_total(cum, factors, priors),
            lambda: impact_bf_ay(cum, factors, priors, year),
            lambda: verify_reserve_impacts(belgian, "bf-total", priors=priors),
            lambda: verify_reserve_impacts(belgian, "bf-ay", year, priors),
        ):
            with pytest.raises(ValueError, match=want):
                call()

    def test_missing_prior_rejected(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        mu = np.full(10, 5.0e8)
        mu[4] = np.nan
        with pytest.raises(ValueError, match="missing or non-positive prior for accident year 5"):
            bf_reserves(cum, factors, PriorUltimates(10, mu))
        self.refused_by_every_bf_statistic(belgian, 5, np.nan, "missing or non-positive prior for accident year 5")

    def test_negative_prior_rejected(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        mu = np.full(10, 5.0e8)
        mu[9] = -1.0
        with pytest.raises(ValueError, match="accident year 10"):
            bf_reserves(cum, factors, PriorUltimates(10, mu))
        self.refused_by_every_bf_statistic(belgian, 5, -1e8, "missing or non-positive prior for accident year 5")

    def test_zero_prior_rejected(self, belgian):
        self.refused_by_every_bf_statistic(belgian, 5, 0.0, "missing or non-positive prior for accident year 5")

    def test_dimension_mismatch(self, belgian):
        """Every BF statistic refuses priors for another number of years,
        where one prior would otherwise broadcast over all ten."""
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        for count in (1, 3):
            priors = PriorUltimates(count, np.full(count, 1e6))
            for call in (
                lambda: bf_reserves(cum, factors, priors),
                lambda: impact_bf_total(cum, factors, priors),
                lambda: impact_bf_ay(cum, factors, priors, 6),
                lambda: verify_reserve_impacts(belgian, "bf-total", priors=priors),
                lambda: verify_reserve_impacts(belgian, "bf-ay", 6, priors),
            ):
                with pytest.raises(ValueError, match=f"priors cover {count} accident years, triangle has 10"):
                    call()
