import math

import mpmath
import numpy as np
import pytest

from divkit import (
    CapabilityError,
    DomainError,
    chi2_mixture_scaling,
    chi2_mixture_three,
    chis_mixture_scaling,
    conjugate,
    divergence,
    f_divergence,
    generator,
    local_limit_estimate,
    make_distribution,
    mixture,
    ratio_limit_pair,
    renyi_local_estimate,
)
from helpers import random_pair, random_triple

LAM_GRID = [round(0.1 * k, 1) for k in range(11)]
SMOOTH = [
    ("kl", {}),
    ("jeffreys", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 2.5}),
    ("hellinger", {"alpha": 117.0}),
    ("chi_squared", {}),
    ("chi_s", {"s": 2.5}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("jensen_shannon", {}),
]


def _past_the_float_range():
    # every D(lam)/lam^2 of Hellinger order 117 on this pair passes the float
    # range, while the predicted limit is ~39.65
    p = make_distribution([1e-300, 1e-300, 1.0])
    q = make_distribution([0.404, 6.0e-311, 0.596])
    return p, q


class TestChi2MixtureScaling:
    def test_endpoints(self, bern_pair):
        p, q = bern_pair
        assert chi2_mixture_scaling(p, q, 0.0) == 0.0
        assert chi2_mixture_scaling(p, q, 1.0) == pytest.approx(0.16, abs=1e-15)

    def test_halfway(self, bern_pair):
        assert chi2_mixture_scaling(*bern_pair, 0.5) == pytest.approx(0.04, abs=1e-15)

    def test_quadratic_scaling_exact(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            chi = float(divergence("chi2", p, q))
            for lam in LAM_GRID:
                lhs = chi2_mixture_scaling(p, q, lam)
                assert abs(lhs - lam * lam * chi) <= 1e-12


class TestChisMixtureScaling:
    def test_tv_scales_linearly(self, bern_pair):
        assert chis_mixture_scaling(*bern_pair, 1.0, 0.5) == pytest.approx(
            0.2, abs=1e-15
        )

    def test_cubic_case(self, bern_pair):
        p, q = bern_pair
        # oracle: chi^3 = sum |p-q|^3 / q^2 = 2 * 0.008 / 0.25
        chi3 = float(divergence("chi_s", p, q, s=3.0))
        assert chi3 == pytest.approx(0.064, abs=1e-15)
        assert chis_mixture_scaling(p, q, 3.0, 0.5) == pytest.approx(
            0.125 * 0.064, abs=1e-15
        )

    def test_zero_weight(self, bern_pair):
        for s in (1.0, 1.5, 2.0, 3.0):
            assert chis_mixture_scaling(*bern_pair, s, 0.0) == 0.0

    def test_power_scaling_exact(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            for s in (1.0, 1.5, 2.0, 3.0):
                chi_s = float(divergence("chi_s", p, q, s=s))
                for lam in LAM_GRID:
                    lhs = chis_mixture_scaling(p, q, s, lam)
                    assert abs(lhs - lam**s * chi_s) <= 1e-12 * max(1.0, chi_s)


class TestMixtureIdentityExact:
    """The mixture-path sums hold lam^s chi^s(P||Q) to rounding down to
    lam = 1e-10, where the mixture's rounded masses would keep only ~7
    digits of it; so does the three-measure value at R = Q."""

    @pytest.mark.parametrize("case", ["chi2", "chi3", "three_at_r_equal_q"])
    def test_small_weights(self, case):
        rng = np.random.default_rng(211)
        s = 3.0 if case == "chi3" else 2.0
        for _ in range(30):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            if case == "chi3":
                chi_s = float(divergence("chi_s", p, q, s=s))
            else:
                chi_s = float(divergence("chi2", p, q))
            scaled = {
                "chi2": lambda lam: chi2_mixture_scaling(p, q, lam),
                "chi3": lambda lam: chis_mixture_scaling(p, q, s, lam),
                "three_at_r_equal_q": lambda lam: chi2_mixture_three(p, q, q, lam)[0],
            }[case]
            for k in range(2, 11):
                lam = 10.0**-k
                want = lam**s * chi_s
                assert abs(scaled(lam) - want) <= 1e-14 * want, (case, lam)


class TestChi2MixtureThree:
    def test_reference_equals_second(self):
        rng = np.random.default_rng(131)
        p, q = random_pair(rng, 4)
        _, c = chi2_mixture_three(p, q, q, 0.3)
        assert c == pytest.approx(0.0, abs=1e-14)

    def test_equal_p_q(self):
        rng = np.random.default_rng(137)
        q, r = random_pair(rng, 3)
        base = float(divergence("chi2", q, r))
        for lam in LAM_GRID:
            value, c = chi2_mixture_three(q, q, r, lam)
            assert value == pytest.approx(base, abs=1e-13)
            assert c == pytest.approx(0.0, abs=1e-14)

    def test_worked_three_atom_example(self):
        p = make_distribution([0.7, 0.3])
        q = make_distribution([0.5, 0.5])
        r = make_distribution([0.6, 0.4])
        value, c = chi2_mixture_three(p, q, r, 0.3)
        # cross-term coefficient (finite-difference oracle below confirms)
        assert c == pytest.approx(2 * (0.2 * 0.5 / 0.6 - 0.2 * 0.5 / 0.4), abs=1e-14)
        chi_pr = float(divergence("chi2", p, r))
        chi_qr = float(divergence("chi2", q, r))
        rhs = chi_qr + c * 0.3 + (chi_pr - chi_qr - c) * 0.09
        assert value == pytest.approx(rhs, abs=1e-14)

    def test_c_is_slope_at_zero(self):
        # finite-difference oracle for the lam -> 0 derivative
        rng = np.random.default_rng(151)
        for _ in range(10):
            p, q, r = random_triple(rng, int(rng.integers(2, 6)))
            base = float(divergence("chi2", q, r))
            eps = 1e-7
            val, c = chi2_mixture_three(p, q, r, eps)
            fd = (val - base) / eps
            assert fd == pytest.approx(c, rel=1e-5, abs=1e-6)

    def test_expansion_identity(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            p, q, r = random_triple(rng, int(rng.integers(2, 6)))
            chi_pr = float(divergence("chi2", p, r))
            chi_qr = float(divergence("chi2", q, r))
            for lam in LAM_GRID:
                value, c = chi2_mixture_three(p, q, r, lam)
                rhs = chi_qr + c * lam + (chi_pr - chi_qr - c) * lam * lam
                assert abs(value - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_support_violation(self):
        p = make_distribution([0.5, 0.5])
        r = make_distribution([1.0, 0.0])
        with pytest.raises(DomainError):
            chi2_mixture_three(p, p, r, 0.5)


class TestLocalLimit:
    def test_chi_squared_ratios_exact(self, bern_pair):
        est = local_limit_estimate(generator("chi_squared"), *bern_pair)
        for ratio in est.ratios:
            assert ratio == pytest.approx(0.16, rel=1e-10)

    def test_kl_limit(self, bern_pair):
        est = local_limit_estimate(generator("kl"), *bern_pair)
        assert est.target == pytest.approx(0.08, abs=1e-15)
        assert abs(est.extrapolated - est.target) <= 1e-5

    def test_jeffreys_limit(self, bern_pair):
        est = local_limit_estimate(generator("jeffreys"), *bern_pair)
        assert est.target == pytest.approx(0.16, abs=1e-15)
        assert abs(est.extrapolated - est.target) <= 1e-5

    def test_both_directions_agree(self, bern_pair):
        for fam, params in [("kl", {}), ("triangular", {}), ("hellinger", {"alpha": 0.5})]:
            f = generator(fam, **params)
            fwd = local_limit_estimate(f, *bern_pair, direction="mixture_first")
            rev = local_limit_estimate(f, *bern_pair, direction="mixture_second")
            tol = 2.0 * max(fwd.residual, rev.residual) + 1e-12
            assert abs(fwd.extrapolated - rev.extrapolated) <= tol

    def test_conjugate_reads_the_other_direction(self, bern_pair):
        # D_{f*}(M||Q) = D_f(Q||M): the mixture path sums the same terms
        rng = np.random.default_rng(151)
        pairs = [bern_pair, _past_the_float_range()]
        pairs += [random_pair(rng, int(rng.integers(2, 8))) for _ in range(6)]
        first, second = "mixture_first", "mixture_second"
        for fam, params in SMOOTH:
            f = generator(fam, **params)
            fc = conjugate(f)
            for p, q in pairs:
                for mine, other in (first, second), (second, first):
                    got = local_limit_estimate(fc, p, q, mine)
                    assert got == local_limit_estimate(f, p, q, other), (fam, params, mine)

    def test_first_derivative_vanishes(self, bern_pair):
        p, q = bern_pair
        chi = float(divergence("chi2", p, q))
        for fam in ("kl", "jeffreys", "triangular"):
            f = generator(fam)
            val = float(f_divergence(f, mixture(p, q, 1e-4), q))
            assert val / 1e-4 <= 1e-3 * chi

    def test_convexity_upper_bound(self):
        rng = np.random.default_rng(149)
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 6)))
            for fam in ("kl", "chi_squared", "js"):
                f = generator(fam) if fam != "js" else generator("jensen_shannon")
                full = float(f_divergence(f, p, q))
                for lam in LAM_GRID[1:]:
                    mixed = float(f_divergence(f, mixture(p, q, lam), q))
                    assert mixed <= lam * full + 1e-12

    def test_requires_support(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([1.0, 0.0])
        with pytest.raises(DomainError):
            local_limit_estimate(generator("kl"), p, q)

    def test_requires_second_derivative(self, bern_pair):
        with pytest.raises(CapabilityError):
            local_limit_estimate(generator("total_variation"), *bern_pair)

    def test_ratios_past_the_float_range_read_no_nan(self):
        # Richardson took inf - inf: extrapolated and residual were NaN
        p, q = _past_the_float_range()
        est = local_limit_estimate(generator("hellinger", alpha=117.0), p, q)
        assert est.ratios == (math.inf,) * 4
        assert est.extrapolated == math.inf and est.residual == math.inf
        assert est.target == pytest.approx(39.65436241610739, rel=1e-12)
        # the other direction stays finite, and keeps its residual
        est = local_limit_estimate(generator("hellinger", alpha=117.0), p, q, "mixture_second")
        assert math.isfinite(est.extrapolated) and est.residual < 0.01

    def test_target_is_zero_where_f2_is(self):
        # f''(1) = 0 against a chi^2 past the float range read 0 inf = NaN
        p, q = make_distribution([0.5, 0.5]), make_distribution([1e-310, 1.0])
        est = local_limit_estimate(generator("chi_s", s=3.0), p, q)
        assert est.target == 0.0 and est.residual == math.inf


class TestRenyiLocal:
    def test_order_one_matches_kl(self, bern_pair):
        est = renyi_local_estimate(1.0, *bern_pair)
        assert est.target == pytest.approx(0.08, abs=1e-15)
        assert abs(est.extrapolated - est.target) <= 1e-5

    def test_order_three(self, bern_pair):
        est = renyi_local_estimate(3.0, *bern_pair)
        assert est.target == pytest.approx(0.24, abs=1e-15)
        assert abs(est.extrapolated - est.target) <= 1e-4 * est.target

    def test_order_zero(self, bern_pair):
        est = renyi_local_estimate(0.0, *bern_pair)
        assert est.target == 0.0
        assert est.extrapolated == 0.0

    def test_order_infinity_diverges(self, bern_pair):
        est = renyi_local_estimate(math.inf, *bern_pair)
        assert est.target == math.inf
        assert est.ratios[-1] > est.ratios[0]

    def test_order_infinity_reads_its_direction(self, bern_pair):
        # both directions read D_inf(M||Q); mixture_second is D_inf(Q||M)
        first = renyi_local_estimate(math.inf, *bern_pair)
        second = renyi_local_estimate(math.inf, *bern_pair, direction="mixture_second")
        with mpmath.mp.workdps(40):
            for lam, r1, r2 in zip(first.lambdas, first.ratios, second.ratios):
                lam2 = mpmath.mpf(lam) ** 2
                # lam P + (1 - lam) Q on the atoms (0.7 | 0.5) and (0.3 | 0.5)
                m = [lam * mpmath.mpf(pm) + (1 - mpmath.mpf(lam)) * 0.5 for pm in (0.7, 0.3)]
                assert r1 == pytest.approx(float(mpmath.log(m[0] / 0.5) / lam2), rel=1e-12)
                assert r2 == pytest.approx(float(mpmath.log(0.5 / m[1]) / lam2), rel=1e-12)
        assert round(first.ratios[0], 3) == 39.920 and round(second.ratios[0], 3) == 40.080
        assert second.target == math.inf

    def test_domain(self, bern_pair):
        with pytest.raises(DomainError):
            renyi_local_estimate(-0.5, *bern_pair)

    @pytest.mark.parametrize("direction", ["bogus", None, "mixture"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, math.inf])
    def test_unknown_direction_refused(self, bern_pair, alpha, direction):
        with pytest.raises(DomainError, match="unknown direction"):
            renyi_local_estimate(alpha, *bern_pair, direction=direction)

    def test_ratios_past_the_float_range_read_no_nan(self):
        # it read extrapolated -inf and residual NaN
        est = renyi_local_estimate(117, *_past_the_float_range())
        assert est.extrapolated == math.inf and est.residual == math.inf


class TestRatioLimitPair:
    def test_identical_generators(self, bern_pair):
        assert ratio_limit_pair(
            generator("kl"), generator("kl"), *bern_pair
        ) == pytest.approx(1.0, abs=1e-12)

    def test_jeffreys_over_kl(self, bern_pair):
        got = ratio_limit_pair(generator("jeffreys"), generator("kl"), *bern_pair)
        assert got == pytest.approx(2.0, rel=1e-4)

    def test_triangular_over_chi2(self, bern_pair):
        got = ratio_limit_pair(
            generator("triangular"), generator("chi_squared"), *bern_pair
        )
        assert got == pytest.approx(0.5, rel=1e-4)

    def test_domain(self, bern_pair):
        with pytest.raises(DomainError):
            ratio_limit_pair(generator("kl"), generator("total_variation"), *bern_pair)

    def test_ratios_past_the_float_range_refused(self):
        # it returned NaN
        f = generator("hellinger", alpha=117.0)
        with pytest.raises(DomainError, match="float range"):
            ratio_limit_pair(f, generator("kl"), *_past_the_float_range())
