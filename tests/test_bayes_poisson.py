import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divkit.bayes_poisson as bp
from divkit import (
    DivkitError,
    DomainError,
    PoissonModel,
    poisson_bound_report,
    poisson_degroot_exact,
    poisson_divergences,
    poisson_k0,
    poisson_pmf,
)
from helpers import (
    MINSUM_MAX_RATE,
    degroot_oracle,
    poisson_degroot_minsum,
    truncation_index,
)


class TestPmf:
    def test_unit_rate(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1), rel=1e-14)
        assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_against_factorial_oracle(self):
        for lam in (0.5, 1.0, 3.0, 20.0):
            for k in range(0, 21):
                oracle = math.exp(-lam) * lam**k / math.factorial(k)
                assert poisson_pmf(lam, k) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 10.0, 200.0])
    def test_normalization(self, lam):
        model = PoissonModel(lam)
        total = math.fsum(model.pmf(k) for k in range(truncation_index(model) + 1))
        assert total >= 1.0 - 1e-12

    def test_domains(self):
        with pytest.raises(DomainError):
            poisson_pmf(0.0, 1)
        with pytest.raises(DomainError):
            poisson_pmf(1.0, -1)


class TestDivergences:
    def test_equal_rates(self):
        assert poisson_divergences(7.0, 7.0) == (0.0, 0.0)

    def test_example_rates(self):
        kl, chi2 = poisson_divergences(101.0, 99.0)
        assert kl == pytest.approx(101 * math.log(101 / 99) - 2.0, rel=1e-12)
        assert kl == pytest.approx(0.0200677, abs=1e-6)
        assert chi2 == pytest.approx(math.expm1(4.0 / 99.0), rel=1e-12)
        assert chi2 == pytest.approx(0.0412314, abs=1e-6)

    def test_asymmetry(self):
        kl_fwd, _ = poisson_divergences(101.0, 99.0)
        kl_rev, _ = poisson_divergences(99.0, 101.0)
        assert kl_rev == pytest.approx(99 * math.log(99 / 101) + 2.0, rel=1e-12)
        assert kl_fwd != kl_rev

    @pytest.mark.parametrize("mu,lam", [(0.5, 2.0), (3.0, 1.0), (101.0, 99.0), (150.0, 200.0)])
    def test_closed_form_matches_truncated_sums(self, mu, lam):
        pm = PoissonModel(mu)
        pl = PoissonModel(lam)
        top = max(truncation_index(pm), truncation_index(pl))
        log_ratio = math.log(mu / lam)
        kl_sum = math.fsum(
            pm.pmf(k) * (k * log_ratio + lam - mu) for k in range(top + 1)
        )
        chi_sum = math.fsum(
            (pm.pmf(k) - pl.pmf(k)) ** 2 / pl.pmf(k)
            for k in range(top + 1)
            if pl.pmf(k) > 0.0
        )
        kl, chi2 = poisson_divergences(mu, lam)
        assert kl == pytest.approx(kl_sum, rel=1e-9, abs=1e-12)
        assert chi2 == pytest.approx(chi_sum, rel=1e-9, abs=1e-12)


class TestThreshold:
    def test_paper_example(self):
        assert poisson_k0(99.0, 101.0, 0.1) == 209

    def test_unit_slope(self):
        assert poisson_k0(1.0, math.e, 0.5) == math.floor(math.e - 1.0) == 1

    def test_even_prior_example(self):
        # floor(2 / ln(101/99)) evaluated by the formula itself
        expected = math.floor(2.0 / math.log(101.0 / 99.0))
        assert expected == 99
        assert poisson_k0(99.0, 101.0, 0.5) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_k0(101.0, 99.0, 0.1)
        with pytest.raises(DomainError):
            poisson_k0(99.0, 101.0, 0.0)

    def test_threshold_splits_weighted_likelihoods(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            lam = float(rng.uniform(0.5, 60.0))
            mu = lam + float(rng.uniform(0.1, 30.0))
            omega = float(rng.uniform(0.05, 0.95))
            k0 = poisson_k0(lam, mu, omega)
            pm = PoissonModel(mu)
            pl = PoissonModel(lam)

            def weighted_log_diff(k):
                return (math.log(omega) + pm.log_pmf(k)) - (
                    math.log(1 - omega) + pl.log_pmf(k)
                )

            if k0 >= 0:
                assert weighted_log_diff(k0) <= 0.0
            assert weighted_log_diff(max(k0, -1) + 1) > 0.0


class TestDegrootExact:
    def test_equal_rates(self):
        assert poisson_degroot_exact(5.0, 5.0, 0.3) == 0.0

    def test_example_sandwich(self):
        val = poisson_degroot_exact(101.0, 99.0, 0.1)
        chi = math.expm1(4.0 / 99.0)
        chi_bound = -0.4 + math.sqrt(0.25 - 0.09 / (1 + 0.1 * chi))
        assert val > 0.0
        assert val <= chi_bound

    def test_half_prior_is_quarter_tv(self):
        # independent oracle: quarter of the truncated direct TV sum
        mu, lam = 4.0, 1.0
        pm = PoissonModel(mu)
        pl = PoissonModel(lam)
        top = max(truncation_index(pm), truncation_index(pl))
        tv = math.fsum(abs(pm.pmf(k) - pl.pmf(k)) for k in range(top + 1))
        assert poisson_degroot_exact(mu, lam, 0.5) == pytest.approx(
            0.25 * tv, abs=1e-10
        )

    def test_swapped_rates_symmetry(self):
        assert poisson_degroot_exact(2.0, 6.0, 0.3) == pytest.approx(
            poisson_degroot_exact(6.0, 2.0, 0.7), abs=1e-14
        )

    def test_minsum_agrees(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            lam = float(rng.uniform(0.5, 40.0))
            mu = lam + float(rng.uniform(0.2, 20.0))
            omega = float(rng.uniform(0.1, 0.9))
            a = poisson_degroot_exact(mu, lam, omega)
            b = poisson_degroot_minsum(mu, lam, omega)
            assert abs(a - b) <= 10.0 * 1e-12

    def test_operational_range(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            lam = float(rng.uniform(0.5, 50.0))
            mu = float(rng.uniform(0.5, 50.0))
            omega = float(rng.uniform(0.05, 0.95))
            val = poisson_degroot_exact(mu, lam, omega)
            assert 0.0 <= val <= min(omega, 1.0 - omega)


class TestBoundReport:
    def test_example_two_significant_figures(self):
        reports = poisson_bound_report(101.0, 99.0, 0.1)
        by_name = {r.name: r for r in reports}
        assert f"{by_name['degroot_ub_from_chi2'].bound_value:.1e}" == "4.6e-04"
        assert f"{by_name['degroot_ub_kl_line'].bound_value:.1e}" == "5.8e-04"
        assert f"{by_name['degroot_ub_kl_bh'].bound_value:.1e}" == "2.2e-03"

    def test_every_bound_certifies(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            lam = float(rng.uniform(0.5, 40.0))
            mu = float(rng.uniform(0.5, 40.0))
            if mu == lam:
                continue
            omega = float(rng.uniform(0.05, 0.95))
            for report in poisson_bound_report(mu, lam, omega):
                assert report.direction == "upper"
                assert report.slack is not None and report.slack >= 0.0

    def test_slack_sweep(self):
        # at mu = 0.1, lam = 99, omega = 1e-6 the information reads m = 1e-6,
        # and the saturated chi2 and kl_bh bounds read 9.999999999999997e-07
        # before they were exact at saturation and rounded up
        rates = (0.1, 0.5, 1.0, 3.0, 10.0, 99.0, 101.0, 1e3, 1e4, 1e5)
        priors = (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-6)
        for mu in rates:
            for lam in rates:
                if mu == lam:
                    continue
                for omega in priors:
                    for report in poisson_bound_report(mu, lam, omega):
                        assert report.slack >= 0.0, (mu, lam, omega, report)

    def test_equal_rates_all_zero(self):
        for report in poisson_bound_report(7.0, 7.0, 0.5):
            assert report.bound_value >= 0.0
            assert report.certified_quantity == 0.0

    @pytest.mark.parametrize("omega", [1e-300, 1e-304, 1e-306, 1e-308, 5e-324])
    def test_tiny_prior(self, omega):
        # the straight-line constant at odds (1 - omega)/omega past 1e300,
        # and at inf once the odds overflow
        for mu, lam in ((1.0, 2.0), (2.0, 1.0), (101.0, 99.0)):
            for report in poisson_bound_report(mu, lam, omega):
                assert math.isfinite(report.bound_value), report
                assert report.slack >= 0.0, report


def _oracle_cases():
    rng = np.random.default_rng(113)
    cases = []
    for _ in range(30):
        lam = float(10.0 ** rng.uniform(-1.0, 4.0))
        if rng.uniform() < 0.75:
            mu = lam * (1.0 + float(10.0 ** rng.uniform(-4.0, 0.5)))
        else:
            mu = float(10.0 ** rng.uniform(-1.0, 4.0))
        omega = float(rng.uniform(0.01, 0.99))
        cases.append((mu, lam, omega) if rng.uniform() < 0.5 else (lam, mu, omega))
    return cases


class TestDegrootOracle:
    def test_paper_example(self):
        val = poisson_degroot_exact(101.0, 99.0, 0.1)
        assert val > 0.0
        assert val == pytest.approx(degroot_oracle(101.0, 99.0, 0.1), rel=1e-12)
        assert val == pytest.approx(4.0824100341660e-24, rel=1e-12)

    @pytest.mark.parametrize("mu,lam,omega", _oracle_cases())
    def test_seeded_rates(self, mu, lam, omega):
        # measured: within 7e-16 (1 + |ln I|); the |ln I| part is the
        # rounding of Loader's exponent at a tail mass
        expected = degroot_oracle(mu, lam, omega)
        val = poisson_degroot_exact(mu, lam, omega)
        if expected == 0.0:
            assert val == 0.0
        else:
            assert val == pytest.approx(expected, rel=2e-15 * (1.0 - math.log(expected)))

    def test_rate_one_million(self):
        # I = 1.3e-3 is a bulk value, so 12 standard deviations hold all of it
        mu, lam, omega = 1.001e6, 1e6, 0.1
        expected = degroot_oracle(mu, lam, omega, sigmas=12)
        assert poisson_degroot_exact(mu, lam, omega) == pytest.approx(expected, rel=1e-13)


PAPER = (101.0, 99.0, 0.1)


@pytest.fixture
def walks(monkeypatch):
    """The number of terms each ``_walk`` call returns (two calls per sum),
    from an empty slot, so that no earlier test's kept triple is read."""
    calls = []
    walk = bp._walk

    def counting_walk(*args):
        out = walk(*args)
        calls.append(len(out))
        return out

    monkeypatch.setattr(bp, "_walk", counting_walk)
    poisson_degroot_exact.cache_clear()
    return calls


class TestDegrootCost:
    @pytest.mark.parametrize(
        "mu,lam,omega",
        [(1.001e6, 1e6, 0.1), (1.01e6, 1e6, 0.5), (1e6, 1.0001e6, 0.3), (1e6, 0.5e6, 0.999)],
    )
    def test_terms_grow_like_sqrt_rate(self, walks, mu, lam, omega):
        # the fixture clears the slot: test_rate_one_million keeps the first triple
        poisson_degroot_exact(mu, lam, omega)
        terms = 1 + sum(walks)  # the first term, at the start count
        assert 1 < terms <= 30 * math.sqrt(max(mu, lam))


class TestDegrootSlot:
    def test_report_after_exact_sums_nothing(self, walks):
        exact = poisson_degroot_exact(*PAPER)
        assert len(walks) == 2
        reports = poisson_bound_report(*PAPER)
        assert len(walks) == 2
        assert [r.certified_quantity.hex() for r in reports] == [exact.hex()] * 3

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_one_ulp_off_sums_again(self, walks, which):
        poisson_degroot_exact(*PAPER)
        off = list(PAPER)
        off[which] = math.nextafter(off[which], math.inf)
        poisson_degroot_exact(*off)
        assert len(walks) == 4

    def test_swapped_rates_sum_again(self, walks):
        # at the even prior both orders sum, to values one ulp apart
        a = poisson_degroot_exact(101.0, 99.0, 0.5)
        b = poisson_degroot_exact(99.0, 101.0, 0.5)
        assert len(walks) == 4
        assert a == pytest.approx(b, rel=1e-15)

    @pytest.mark.parametrize(
        "triple", [(0.0, 99.0, 0.1), (math.nan, 99.0, 0.1), (101.0, 99.0, 1.5)]
    )
    def test_refused_triple_is_never_kept(self, walks, triple):
        kept = poisson_degroot_exact(*PAPER)
        for _ in range(2):
            with pytest.raises(DomainError):
                poisson_degroot_exact(*triple)
        assert poisson_degroot_exact.cache_info().currsize == 1
        assert poisson_degroot_exact(*PAPER) == kept
        assert len(walks) == 2

    @pytest.mark.parametrize(
        "triple",
        [PAPER]
        + [(rate * 1.01, rate, 0.3) for rate in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)],
    )
    def test_values_bit_identical_without_the_slot(self, triple):
        poisson_degroot_exact.cache_clear()
        first = poisson_degroot_exact(*triple)
        kept = poisson_degroot_exact(*triple)
        poisson_degroot_exact.cache_clear()
        again = poisson_degroot_exact(*triple)
        assert first.hex() == kept.hex() == again.hex()
        assert again.hex() == poisson_degroot_exact.__wrapped__(*triple).hex()


_SPECIAL_RATES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1.5e9, 1e300]
_RATES = st.one_of(st.floats(min_value=0.0, max_value=1e6), st.sampled_from(_SPECIAL_RATES))
_PRIORS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([math.nan, math.inf, -0.5, 1.5, 5e-324, 1.0 - 2.0**-53]),
)


class TestInputBoundary:
    @given(mu=_RATES, lam=_RATES, omega=_PRIORS, equal=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_value_or_divkit_error(self, mu, lam, omega, equal):
        if equal:
            lam = mu
        try:
            val = poisson_degroot_exact(mu, lam, omega)
        except DivkitError:
            val = None
        else:
            assert 0.0 <= val <= min(omega, 1.0 - omega)
        try:
            reports = poisson_bound_report(mu, lam, omega)
        except DivkitError:
            return
        assert [r.certified_quantity for r in reports] == [val] * 3

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, bp.MAX_RATE * 1.5, 1e300])
    def test_rate_outside_the_domain(self, rate):
        for call in (
            lambda: poisson_degroot_exact(rate, 2.0, 0.5),
            lambda: poisson_divergences(2.0, rate),
            lambda: poisson_k0(2.0, rate, 0.5),
            lambda: PoissonModel(rate),
        ):
            with pytest.raises(DomainError):
                call()

    def test_minsum_has_its_own_cap(self):
        with pytest.raises(DomainError):
            poisson_degroot_minsum(MINSUM_MAX_RATE * 2.0, 1.0, 0.5)

    def test_rate_ratio_past_the_float_range(self):
        # mu / lam underflows to 0; ln mu - ln lam keeps the KL finite
        kl, chi2 = poisson_divergences(5e-324, 1e3)
        assert kl == pytest.approx(1e3, rel=1e-12)
        assert poisson_degroot_exact(5e-324, 1e3, 0.5) == 0.5
