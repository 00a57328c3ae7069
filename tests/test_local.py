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
    affine_shift,
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


EPS = 2.0**-52


def _past_the_float_range():
    # every D(lam)/lam^2 of Hellinger order 117 on this pair passed the float
    # range on a grid of lam = 1e-2 .. 1e-5, while the predicted limit is
    # ~39.65; at lam* every term stays finite
    p = make_distribution([1e-300, 1e-300, 1.0])
    q = make_distribution([0.404, 6.0e-311, 0.596])
    return p, q


def _past_the_cap():
    # max |p - q|/q ~ 2^995 would take lam* to 2^-1061, past the cap of
    # 2^-500 that keeps Q's scaled masses in the float range
    return make_distribution([0.5, 0.5]), make_distribution([1e-300, 1.0])


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
        # Richardson took inf - inf on a grid whose ratios passed the float
        # range: extrapolated and residual were NaN.  lam* reads the target
        # in both directions; past the cap the residual is inf, never NaN
        f = generator("hellinger", alpha=117.0)
        for direction in ("mixture_first", "mixture_second"):
            est = local_limit_estimate(f, *_past_the_float_range(), direction)
            assert est.target == pytest.approx(39.65436241610739, rel=1e-12)
            assert abs(est.extrapolated - est.target) <= est.residual + 8 * EPS * est.target
            est = local_limit_estimate(f, *_past_the_cap(), direction)
            assert est.residual == math.inf and not math.isnan(est.extrapolated)

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
        # identically 0 along the path, an exact 0 also past the cap
        for pair in (bern_pair, _past_the_cap()):
            est = renyi_local_estimate(0.0, *pair)
            assert est.target == est.extrapolated == est.residual == 0.0

    def test_order_infinity_diverges(self, bern_pair):
        est = renyi_local_estimate(math.inf, *bern_pair)
        assert est.target == math.inf
        assert est.ratios[-1] > est.ratios[0]

    def test_order_infinity_reads_its_direction(self):
        # both directions read D_inf(M||Q); mixture_second is D_inf(Q||M).
        # On (0.7, 0.3) against (0.6, 0.4), (p - q)/q is 1/6 and -1/4, so
        # lam^2 times the ratio reads max ln(m/q) ~ lam/6, or max ln(q/m) ~ lam/4
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.6, 0.4])
        first = renyi_local_estimate(math.inf, p, q)
        second = renyi_local_estimate(math.inf, p, q, direction="mixture_second")
        with mpmath.mp.workdps(60):
            for lam, r1, r2 in zip(first.lambdas, first.ratios, second.ratios):
                lam = mpmath.mpf(lam)
                m = [lam * pm + (1 - lam) * qm for pm, qm in zip(p.masses, q.masses)]
                ln_mq = [mpmath.log(mm / qm) for mm, qm in zip(m, q.masses)]
                assert r1 == pytest.approx(float(ln_mq[0] / lam**2), rel=1e-12)
                assert r2 == pytest.approx(float(-ln_mq[1] / lam**2), rel=1e-12)
        for lam, r1, r2 in zip(first.lambdas, first.ratios, second.ratios):
            assert r1 * lam == pytest.approx(1 / 6, rel=1e-12)
            assert r2 * lam == pytest.approx(1 / 4, rel=1e-12)
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
        # it read extrapolated -inf and residual NaN; lam* reads the target,
        # and past the cap the residual is inf, never NaN
        est = renyi_local_estimate(117, *_past_the_float_range())
        assert abs(est.extrapolated - est.target) <= est.residual + 8 * EPS * est.target
        est = renyi_local_estimate(117, *_past_the_cap())
        assert est.residual == math.inf and not math.isnan(est.extrapolated)


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
        # it returned NaN; lam* keeps this pair's ratios finite, and reads
        # f''(1)/g''(1).  Past the cap the ratio is refused
        f = generator("hellinger", alpha=117.0)
        got = ratio_limit_pair(f, generator("kl"), *_past_the_float_range())
        assert got == pytest.approx(117.0, rel=4 * EPS)
        with pytest.raises(DomainError, match="float range"):
            ratio_limit_pair(f, generator("kl"), *_past_the_cap())


ONE_POINT_CASES = [
    *[
        pytest.param("kl", ([0.5, 0.5], [eps, 1.0 - eps]), False, id=f"kl-eps{eps:g}")
        for eps in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15)
    ],
    *[
        pytest.param(alpha, ([0.7, 0.3], [0.5, 0.5]), False, id=f"hellinger{alpha:g}")
        for alpha in (1e6, 1e9, 1e12, 1e16, 1e18, 1e20)
    ],
    pytest.param("kl", ([0.5, 0.5, 1e-300], [0.5, 0.5, 2e-300]), False, id="tiny-chi2"),
    pytest.param("kl", ([0.5, 0.5], [1e-300, 1.0]), True, id="past-the-cap"),
]


@pytest.mark.parametrize("direction", ["mixture_first", "mixture_second"])
@pytest.mark.parametrize("spec, masses, capped", ONE_POINT_CASES)
def test_one_point_estimate_within_its_residual(spec, masses, capped, direction):
    """Every estimate reads its target to within its residual and 8 ulps, a
    residual that is finite unless lam* passes the cap, and no NaN; a
    Hellinger order reads both its Hellinger and its Renyi limit."""
    p, q = map(make_distribution, masses)
    if spec == "kl":
        estimates = [local_limit_estimate(generator("kl"), p, q, direction)]
    else:
        estimates = [
            local_limit_estimate(generator("hellinger", alpha=spec), p, q, direction),
            renyi_local_estimate(spec, p, q, direction),
        ]
    for est in estimates:
        fields = (*est.lambdas, *est.ratios, est.extrapolated, est.target, est.residual)
        assert not any(map(math.isnan, fields))
        assert abs(est.extrapolated - est.target) <= est.residual + 8 * EPS * abs(est.target)
        assert (est.residual == math.inf) == capped
    if spec != "kl":
        return
    kl, chi2 = generator("kl"), generator("chi_squared")
    if capped:
        with pytest.raises(DomainError):
            ratio_limit_pair(kl, chi2, p, q)
    else:
        assert abs(ratio_limit_pair(kl, chi2, p, q) - 0.5) <= 1e-12


CUSTOM_KL = dict(
    eval=lambda t: t * math.log(t), f_at_zero=0.0, fstar_at_zero=math.inf,
    right_deriv_at_one=1.0, second_at_one=1.0,
)


@pytest.mark.parametrize("direction", ["mixture_first", "mixture_second"])
@pytest.mark.parametrize(
    "masses",
    [
        ([0.7, 0.3], [0.5, 0.5]),
        ([0.2, 0.3, 0.5], [0.3, 0.3, 0.4]),
        ([0.5, 0.5], [1e-6, 1.0 - 1e-6]),
        ([0.5 + 1e-7, 0.5 - 1e-7], [0.5, 0.5]),
    ],
    ids=["symmetric", "three-atom", "skewed", "near-equal"],
)
def test_custom_generator_within_its_residual(masses, direction):
    """A custom generator's term reads the masses alone, which carry no step
    at the lam* of a catalog term; it is read where they do.  A custom KL,
    its conjugate, a shift of it and (t - 1)^2 / 2 written to cancel to an
    ulp of 1 near t = 1 read KL's target within their residuals, which take
    in that rounding; D_KL/D_custom along the path reads 1, and
    D_custom/D_chi2 reads 1/2 within the residual of the custom reading."""
    p, q = map(make_distribution, masses)
    kl, custom = generator("kl"), generator("custom", **CUSTOM_KL)
    cancelling = generator(
        "custom", eval=lambda t: (t * t - 1.0) / 2.0 - (t - 1.0), f_at_zero=0.5,
        fstar_at_zero=math.inf, right_deriv_at_one=0.0, second_at_one=1.0,
    )
    target = local_limit_estimate(kl, p, q, direction).target
    for f in (custom, conjugate(custom), affine_shift(custom, 3.0), cancelling):
        est = local_limit_estimate(f, p, q, direction)
        assert est.target == target and 0.0 < est.residual < math.inf
        assert abs(est.extrapolated - target) <= est.residual + 8 * EPS * target
    assert abs(ratio_limit_pair(kl, custom, p, q) - 1.0) <= 1e-9
    slack = local_limit_estimate(custom, p, q).residual / (2.0 * target)
    assert abs(ratio_limit_pair(custom, generator("chi_squared"), p, q) - 0.5) <= slack + EPS
