import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DomainError,
    ValidationError,
    affine_shift,
    c_gamma,
    chi2_lower_from_tv,
    conjugate,
    crossover_d,
    degroot_upper,
    GeneratorFunction,
    divergence,
    egamma_upper,
    fdiv_lower_via_degroot,
    fdiv_lower_via_egamma,
    generator,
    hellinger_renyi_lower,
    kl_upper_log_chi2,
    lambert_w,
    make_distribution,
    make_report,
    pinsker_bh_switch,
    poisson_bound_report,
    renyi,
    straight_line_egamma_ub,
    tv_kl_frontier,
)
from divkit.cli import main
from helpers import (
    catalog_generators,
    conjugate_fdiv_lower_via_degroot,
    conjugate_fdiv_lower_via_egamma,
    fstar,
    fstar_fdiv_lower_via_degroot,
    fstar_fdiv_lower_via_egamma,
    outcome,
    random_pair,
    settles,
)


def bisect_t_gamma(gamma: float) -> float:
    """Independent oracle for the straight-line constant: the root > gamma
    of t - gamma ln t = 1."""
    lo, hi = gamma, 10.0 * gamma + 50.0
    while hi - gamma * math.log(hi) - 1.0 < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - gamma * math.log(mid) - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def c_gamma_by_bisection(gamma: float) -> float:
    t = bisect_t_gamma(gamma)
    return (t - gamma) / (t * math.log(t) + 1.0 - t)


class TestLambertW:
    def test_principal_at_zero(self):
        assert lambert_w("principal", 0.0) == 0.0

    def test_branch_point(self):
        bp = -math.exp(-1.0)
        assert lambert_w("principal", bp) == -1.0
        assert lambert_w("secondary", bp) == -1.0

    def test_principal_at_e(self):
        assert lambert_w("principal", math.e) == pytest.approx(1.0, abs=1e-15)

    def test_branch_constraints(self):
        assert lambert_w("principal", -0.2) >= -1.0
        assert lambert_w("secondary", -0.2) <= -1.0

    @pytest.mark.parametrize(
        "branch,x",
        [("principal", -0.5), ("secondary", 0.1), ("secondary", -0.5), ("secondary", 0.0)],
    )
    def test_domain_errors(self, branch, x):
        with pytest.raises(DomainError):
            lambert_w(branch, x)

    def test_principal_at_infinity(self):
        assert lambert_w("principal", math.inf) == math.inf

    @pytest.mark.parametrize(
        "branch,x",
        [
            ("secondary", -5e-324),
            ("secondary", -1e-310),
            ("principal", 3e307),
            ("principal", 1e308),
            ("principal", sys.float_info.max),
        ],
    )
    def test_past_the_float_range_against_mpmath(self, branch, x):
        # there e^w (secondary) or w e^w (principal) leaves the float range
        with mpmath.workdps(40):
            ref = mpmath.lambertw(mpmath.mpf(x), 0 if branch == "principal" else -1).real
        got = lambert_w(branch, x)
        assert abs((got - ref) / ref) <= 1e-15, (branch, x, got, ref)

    def test_tail_sweeps_against_mpmath(self):
        # across the switch to ln|w| + w = ln|x| at 1e300 and -1e-300
        for branch, exponents in (
            ("principal", np.linspace(290.0, 308.25, 150)),
            ("secondary", np.linspace(-323.3, -290.0, 150)),
        ):
            for e in exponents:
                x = float(10.0 ** mpmath.mpf(e))
                x = x if branch == "principal" else -x
                with mpmath.workdps(40):
                    ref = mpmath.lambertw(mpmath.mpf(x), 0 if branch == "principal" else -1).real
                got = lambert_w(branch, x)
                assert abs((got - ref) / ref) <= 1e-15, (branch, x, got, ref)

    def test_round_trip_sweeps(self):
        bp = -math.exp(-1.0)
        xs = list(np.linspace(bp + 1e-12, 10.0, 2000)) + list(
            np.logspace(1, 300, 500)
        )
        for x in xs:
            w = lambert_w("principal", float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(abs(x), 1e-300)
        for x in np.linspace(bp + 1e-12, -1e-12, 2000):
            w = lambert_w("secondary", float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)


class TestCGamma:
    def test_reference_value(self):
        # t_2 ~ 3.5129, c_2 ~ 0.7959 from the Lambert-branch solve
        z = -0.5 * math.exp(-0.5)
        t2 = -2.0 * lambert_w("secondary", z)
        assert t2 == pytest.approx(3.5129, abs=2e-4)
        assert c_gamma(2.0) == pytest.approx(0.7959, abs=2e-4)

    def test_halley_vs_bisection(self):
        for gamma in (1.1, 1.5, 2.0, 4.0, 9.0, 16.0):
            assert abs(c_gamma(gamma) - c_gamma_by_bisection(gamma)) <= 1e-10

    def test_monotone_sweep(self):
        # the computed sequence is monotone on the sampled grid
        vals = [c_gamma(g) for g in (2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_lambert_round_trip_of_t(self):
        for gamma in (1.5, 2.0, 9.0):
            t = -gamma * lambert_w("secondary", -math.exp(-1 / gamma) / gamma)
            lhs = (-t / gamma) * math.exp(-t / gamma)
            rhs = -(1 / gamma) * math.exp(-1 / gamma)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_gamma(1.0)
        with pytest.raises(DomainError):
            c_gamma(math.nan)

    @pytest.mark.parametrize(
        "gamma",
        [1.0 + 1e-8, 1.0001, 1.01, 1.5, 2.0, 3.0, 10.0, 1e6, 1e100, 1e300, 1e304,
         1e306, 1e308, 1.79e308],
    )
    def test_against_mpmath(self, gamma):
        # next to gamma = 1 the secondary Lambert root nears the branch
        # point; t ln t overflows from ~1e304 and t itself from ~3e305, and
        # the argument of W_{-1} is subnormal from ~4.5e307
        with mpmath.workdps(40):
            g = mpmath.mpf(gamma)
            w = mpmath.lambertw(-mpmath.exp(-1 / g) / g, -1).real
            t = -g * w
            ref = (t - g) / (t * mpmath.log(t) + 1 - t)
            assert abs((c_gamma(gamma) - ref) / ref) <= 1e-13

    def test_values(self):
        assert c_gamma(2.0) == pytest.approx(0.795905094631833, rel=1e-14)
        assert c_gamma(1e6) == pytest.approx(0.0601449168964478, rel=1e-14)

    def test_limit_at_infinity(self):
        assert c_gamma(math.inf) == 0.0
        assert 0.0 < c_gamma(1.7976931348623157e308) < c_gamma(1e300)


def assert_agrees_in_place(bound, reference, *args):
    """The bound and the reference, which builds a conjugate generator,
    agree bit for bit wherever the reference's f* is a number.  Where f*
    passes the float range the reference raises OverflowError or gives NaN;
    the bound then sums f's shifted terms, and must end in a number or a
    DivkitError."""
    ref = outcome(reference, *args)
    if ref == "nan" or ref[:2] == ("raised", "OverflowError"):
        assert settles(bound, *args), args
    else:
        assert outcome(bound, *args) == ref, args


class TestConjugateInPlace:
    """The bounds evaluate f*(t) = t f(1/t) in place; the reference builds
    a conjugate generator per call, and the two agree bit for bit wherever
    the reference evaluates."""

    def test_egamma_bit_equal_to_conjugate(self):
        rng = np.random.default_rng(601)
        points = [(0.0, 1.0), (0.0, 2.0), (0.5, 1.0), (0.999, 1e300)]
        for _ in range(60):
            e_val = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 1.0))
            points.append((e_val, float(10.0 ** rng.uniform(0.0, 6.0))))
        for f in catalog_generators():
            for e_val, gamma in points:
                assert_agrees_in_place(
                    fdiv_lower_via_egamma, conjugate_fdiv_lower_via_egamma, f, e_val, gamma
                )

    def test_degroot_bit_equal_to_conjugate(self):
        rng = np.random.default_rng(602)
        omegas = [0.5, 1e-300, 1.0 - 2.0**-53] + [
            float(rng.uniform(0.0, 1.0)) for _ in range(25)
        ]
        points = []
        for omega in omegas:
            top = min(omega, 1.0 - omega)
            # I = top puts the middle argument at 0: the f*(0) branch
            points += [(omega, 0.0), (omega, top), (omega, float(rng.uniform(0.0, top)))]
        for f in catalog_generators():
            for omega, i_val in points:
                assert_agrees_in_place(
                    fdiv_lower_via_degroot, conjugate_fdiv_lower_via_degroot, f, omega, i_val
                )

    # refused inputs: out of range, NaN, text, bool and an int past the float range
    _REFUSED = [(1.0, 2.0), (-0.1, 2.0), (0.3, 0.5), (math.nan, 2.0), (0.3, math.nan)] + [
        ("0.3", 2.0), (True, 2.0), (0.3, "2"), (0.3, True), (10**400, 2.0), (0.3, 10**400)
    ]

    @staticmethod
    def _route(f, up, down, base):
        """Which way the three f* values go: "in place" where their sum is a
        number, else "shifted" (the shifted-term fallback)."""
        try:
            value = fstar(f, up) + fstar(f, down) - fstar(f, base)
        except (OverflowError, ZeroDivisionError):
            return "shifted"
        return "in place" if value == value else "shifted"

    def test_egamma_bit_equal_to_three_fstar_calls(self):
        # the in-place sum against the earlier three calls of _fstar, over
        # every catalog generator, a custom and a conjugate one; gamma = inf
        # puts down = base = 0, and gamma past 1e300 sends f* past the float
        # range, into the shifted-term sum and its refusal
        rng = np.random.default_rng(603)
        gens = catalog_generators() + [conjugate(generator("hellinger", alpha=2.0))]
        points = [(0.0, math.inf), (0.3, math.inf), (0.999, 1e300), (0.5, 1.7e308)]
        points += [(1.0 - 2.0**-53, 1e300), (0.0, 1.0), (0.5, 1.0), (0.3, 2), (0, 2.0)]
        for _ in range(60):
            e_val = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 1.0))
            points.append((e_val, float(10.0 ** rng.uniform(0.0, 308.0))))
        routes, refusals = set(), set()
        for f in gens:
            for e_val, gamma in points + self._REFUSED:
                got = outcome(fdiv_lower_via_egamma, f, e_val, gamma)
                assert got == outcome(fstar_fdiv_lower_via_egamma, f, e_val, gamma), (f, e_val, gamma)
                if (e_val, gamma) in points:
                    args = 1.0 + e_val / gamma, (1.0 - e_val) / gamma, 1.0 / gamma
                    routes.add(self._route(f, *args))
                if got[0] == "raised":
                    refusals.add(got[2].split(":")[-1].split(" at ")[0])
        assert routes == {"in place", "shifted"}
        assert " f* passes the float range" in refusals
        assert "E_gamma value must lie in [0, 1)" in refusals

    def test_degroot_bit_equal_to_three_fstar_calls(self):
        rng = np.random.default_rng(604)
        gens = catalog_generators() + [conjugate(generator("hellinger", alpha=2.0))]
        omegas = [0.5, 0.25, 0.75, 1e-300, 5e-324, 1.0 - 2.0**-53, 0.5 + 2.0**-53]
        omegas += [float(rng.uniform(0.0, 1.0)) for _ in range(25)]
        points = []
        for omega in omegas:
            top = min(omega, 1.0 - omega)
            # I = top puts down at 0: the f*(0) branch
            points += [(omega, 0.0), (omega, top), (omega, float(rng.uniform(0.0, top)))]
        routes, refusals = set(), set()
        for f in gens:
            for omega, i_val in points + self._REFUSED + [(0.25, 0.3), (0.0, 0.0)]:
                got = outcome(fdiv_lower_via_degroot, f, omega, i_val)
                assert got == outcome(fstar_fdiv_lower_via_degroot, f, omega, i_val), (f, omega, i_val)
                if (omega, i_val) in points:
                    m, big = min(omega, 1.0 - omega), max(omega, 1.0 - omega)
                    routes.add(self._route(f, 1.0 + i_val / big, (m - i_val) / big, m / big))
                if got[0] == "raised":
                    refusals.add(got[1])
        assert routes == {"in place", "shifted"}
        assert refusals == {"DomainError"}

    def test_sweep_builds_no_generator(self, monkeypatch):
        gens = catalog_generators()
        built = [0]
        init = GeneratorFunction.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneratorFunction, "__init__", counting_init)
        affine_shift(generator("kl"), 1.0)
        assert built[0] == 1  # the counter sees every construction
        built[0] = 0
        for f in gens:
            for gamma in (1.0, 1.2, 2.0, 5.0):
                fdiv_lower_via_egamma(f, 0.3, gamma)
            for omega in (0.25, 0.5, 0.75):
                fdiv_lower_via_degroot(f, omega, 0.1)
        assert built[0] == 0


class TestNoSilentNan:
    """Every gamma-taking bound ends in a value, inf or a DivkitError, up to
    gamma = inf and for every catalog generator; so does the DeGroot bound
    at priors next to 0 and 1, where f* passes the float range the same
    way."""

    GAMMAS = (1.0, 2.0, 1e300, 1e308, math.inf)

    def test_fdiv_lower_bounds(self):
        for f in catalog_generators():
            for gamma in self.GAMMAS:
                for e_val in (0.0, 0.3, 0.999):
                    assert settles(fdiv_lower_via_egamma, f, e_val, gamma), (f, e_val, gamma)
            for omega in (1e-300, 0.5, 1.0 - 2.0**-53):
                top = min(omega, 1.0 - omega)
                for i_val in (0.0, 0.5 * top, top):
                    assert settles(fdiv_lower_via_degroot, f, omega, i_val), (f, omega, i_val)

    def test_scalar_bounds(self):
        for gamma in self.GAMMAS:
            assert settles(c_gamma, gamma) and settles(crossover_d, gamma), gamma
            for value in (0.0, 0.5, 1e300, math.inf):
                assert settles(straight_line_egamma_ub, gamma, value), (gamma, value)
                for kind in ("kl", "chi2"):
                    assert settles(egamma_upper, kind, gamma, value), (kind, gamma, value)
            for alpha in (0.5, 1.0, 2.0, 1e3):
                for e_val in (0.0, 0.3, 0.999):
                    for kind in ("hellinger", "renyi"):
                        assert settles(hellinger_renyi_lower, kind, alpha, gamma, e_val)

    def test_values_at_infinite_gamma(self):
        # the E_gamma upper bounds tend to the limit of the share under the root
        assert egamma_upper("kl", math.inf, 1.0) == -math.expm1(-1.0)
        assert egamma_upper("kl", 1e300, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-15)
        assert egamma_upper("chi2", math.inf, 1.0) == 0.0
        assert egamma_upper("chi2", math.inf, math.inf) == 1.0
        assert straight_line_egamma_ub(math.inf, math.inf) == math.inf
        # at gamma = inf the last two arguments of f* coincide at 0 and cancel
        for f in catalog_generators():
            assert fdiv_lower_via_egamma(f, 0.3, math.inf) == 0.0, f

    def test_kl_bound_where_f_star_passes_the_float_range(self):
        # f*(t) = -ln t for KL: the bound is -ln(1 - E) - ln(1 + E/gamma)
        kl = generator("kl")
        for gamma in (1e300, 1e308, 1.7976931348623157e308):
            got = fdiv_lower_via_egamma(kl, 0.3, gamma)
            assert got == pytest.approx(-math.log1p(-0.3), rel=1e-12), gamma


class TestFdivLowerViaEgamma:
    def test_kl_gamma_one_is_bh(self):
        got = fdiv_lower_via_egamma(generator("kl"), 0.2, 1.0)
        assert got == pytest.approx(-math.log(0.96), abs=1e-14)
        assert got == pytest.approx(0.040822, abs=1e-6)

    def test_vacuous_at_zero(self):
        for fam in ("kl", "chi_squared", "triangular"):
            assert fdiv_lower_via_egamma(generator(fam), 0.0, 1.0) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_chi_squared_closed_form(self):
        got = fdiv_lower_via_egamma(generator("chi_squared"), 0.2, 1.0)
        assert got == pytest.approx(2 * 0.16 / 3.84, abs=1e-12)

    def test_tv_tight_at_gamma_one(self):
        # equality case: the bound recovers TV itself from E_1
        got = fdiv_lower_via_egamma(generator("total_variation"), 0.2, 1.0)
        assert got == pytest.approx(0.4, abs=1e-14)

    def test_bh_algebraic_identity_on_grid(self):
        f = generator("kl")
        for tv in np.linspace(0.0, 1.98, 100):
            lhs = fdiv_lower_via_egamma(f, float(tv) / 2.0, 1.0)
            rhs = tv_kl_frontier("bh_lb_kl", float(tv))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


class TestEgammaUpper:
    def test_kl_zero(self):
        assert egamma_upper("kl", 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_kl_saturates_at_one(self):
        assert egamma_upper("kl", 1.0, math.inf) == pytest.approx(1.0, abs=1e-15)
        assert egamma_upper("kl", 1.0, 200.0) == pytest.approx(1.0, abs=1e-12)

    def test_chi2_saturation(self):
        assert egamma_upper("chi2", 2.0, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            egamma_upper("tv", 1.0, 0.1)


class TestHellingerRenyiLower:
    def test_renyi_order_one(self):
        got = hellinger_renyi_lower("renyi", 1.0, 1.0, 0.2)
        assert got == pytest.approx(-math.log(1.2 * 0.8), abs=1e-14)

    def test_hellinger_vacuous(self):
        assert hellinger_renyi_lower("hellinger", 2.0, 1.0, 0.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_renyi_order_two(self, bern_pair):
        got = hellinger_renyi_lower("renyi", 2.0, 1.0, 0.2)
        assert got == pytest.approx(math.log(1 / 1.2 + (1 / 0.8 - 1)), abs=1e-12)
        assert got <= float(renyi(2.0, *bern_pair))

    def test_consistent_with_hellinger_transform(self):
        # the Renyi form is the one-to-one transform of the Hellinger form
        for alpha in (0.5, 2.0, 3.0):
            for e in (0.1, 0.3):
                h = hellinger_renyi_lower("hellinger", alpha, 2.0, e)
                r = hellinger_renyi_lower("renyi", alpha, 2.0, e)
                assert r == pytest.approx(
                    math.log(1 + (alpha - 1) * h) / (alpha - 1), abs=1e-12
                )

    def test_grid_against_mpmath(self):
        # large orders, gamma up to 1e300 and E_gamma next to 1, where the
        # powers pass the float range: a value within 1e-12 max(1, |v|) of
        # the 40-digit one, or inf exactly where that passes the float range
        big = mpmath.mpf(sys.float_info.max)
        for kind in ("hellinger", "renyi"):
            for alpha in (0.01, 0.1, 0.5, 2, 3, 10, 50, 100, 1e3, 1e4):
                for gamma in (1.0, 10.0, 1e8, 1e100, 1e300):
                    for e in (0.0, 0.5, 1 - 1e-6, 1 - 1e-16):
                        got = hellinger_renyi_lower(kind, alpha, gamma, e)
                        ref = _hellinger_renyi_oracle(kind, alpha, gamma, e)
                        label = (kind, alpha, gamma, e, got)
                        if abs(ref) > big:
                            assert got == math.inf, label
                        else:
                            assert abs(got - ref) <= 1e-12 * max(1, abs(ref)), label

    def test_value_past_e300(self):
        # inf here would not be a lower bound: the bound is ~1e300
        got = hellinger_renyi_lower("hellinger", 3.0, 1e200, 1e-100)
        ref = _hellinger_renyi_oracle("hellinger", 3.0, 1e200, 1e-100)
        assert abs(got - ref) <= 1e-12 * ref
        assert hellinger_renyi_lower("hellinger", 3.0, 1e300, 0.0) == 0.0

    def test_order_one_small_e_gamma(self):
        # -ln((1 + E/gamma)(1 - E)), whose product rounds next to 1 for a
        # small E; the 40-digit value from -ln(1 - E (gamma - 1 + E)/gamma)
        for gamma in (1.0, 1.5, 2.0, 1e8):
            for e in (1e-12, 1e-10, 1e-6, 0.3, 1 - 1e-16):
                with mpmath.workdps(40):
                    g, x = mpmath.mpf(gamma), mpmath.mpf(e)
                    ref = -mpmath.log1p(-x * (g - 1 + x) / g)
                for kind in ("hellinger", "renyi"):
                    got = hellinger_renyi_lower(kind, 1.0, gamma, e)
                    assert abs(got - ref) <= 1e-14 * ref, (kind, gamma, e, got)

    def test_non_finite_order_or_gamma(self):
        for alpha, gamma in ((math.inf, 2.0), (math.nan, 2.0), (2.0, math.nan)):
            for kind in ("hellinger", "renyi"):
                with pytest.raises(DomainError):
                    hellinger_renyi_lower(kind, alpha, gamma, 0.5)


def _hellinger_renyi_oracle(kind, alpha, gamma, e):
    """The Hellinger and Renyi bounds in 40 digits, from
    up^(1-a) - 1 and down^(1-a) - 1 taken as expm1 of (1-a) log1p(.)."""
    with mpmath.workdps(40):
        a, g, e = mpmath.mpf(alpha), mpmath.mpf(gamma), mpmath.mpf(e)
        up_m1 = mpmath.expm1((1 - a) * mpmath.log1p(e / g))
        t = mpmath.expm1((1 - a) * mpmath.log1p(-e))
        if kind == "hellinger":
            return (up_m1 + g ** (a - 1) * t) / (a - 1)
        return mpmath.log1p(up_m1 + g ** (a - 1) * t) / (a - 1)


class TestTvKlFrontier:
    def test_pinsker(self):
        assert tv_kl_frontier("pinsker_lb_kl", 0.4) == pytest.approx(0.08, abs=1e-15)

    def test_bh(self):
        assert tv_kl_frontier("bh_lb_kl", 0.4) == pytest.approx(
            -math.log(0.96), abs=1e-15
        )

    def test_vajda(self):
        assert tv_kl_frontier("vajda_lb_kl", 1.0) == pytest.approx(
            math.log(3) - 2 / 3, abs=1e-14
        )
        assert tv_kl_frontier("vajda_lb_kl", 1.0) == pytest.approx(0.431946, abs=1e-6)

    def test_bh_ub_zero(self):
        assert tv_kl_frontier("bh_ub_tv", 0.0) == 0.0

    def test_vajda_ub_large_d(self):
        # bounds on TV at D = 4 nats: BH gives 1.982, Vajda-Lambert 1.973
        assert tv_kl_frontier("bh_ub_tv", 4.0) == pytest.approx(1.982, abs=5e-4)
        assert tv_kl_frontier("vajda_ub_tv", 4.0) == pytest.approx(1.973, abs=5e-4)

    def test_vajda_ub_inverts_vajda_lb(self):
        for tv in (0.2, 0.9, 1.5):
            d = tv_kl_frontier("vajda_lb_kl", tv)
            assert tv_kl_frontier("vajda_ub_tv", d) == pytest.approx(tv, abs=1e-9)

    def test_domains(self):
        with pytest.raises(DomainError):
            tv_kl_frontier("pinsker_lb_kl", 2.0)
        with pytest.raises(DomainError):
            tv_kl_frontier("bh_ub_tv", -0.1)
        with pytest.raises(DomainError):
            tv_kl_frontier("nope", 0.1)

    def test_pinsker_bh_switch(self):
        d = pinsker_bh_switch()
        assert d == pytest.approx(1.594, abs=0.005)
        # the positive root of 2(1 - e^-D) = D, at 40 digits
        with mpmath.workdps(40):
            root = 2 + mpmath.lambertw(-2 * mpmath.exp(-2))
            assert abs(d - root) <= 1e-15 * root
        # Pinsker wins below the switch, BH above (as TV upper bounds)
        for dd in (0.5, 1.0, 1.5):
            assert math.sqrt(2 * dd) <= tv_kl_frontier("bh_ub_tv", dd) + 1e-12
        for dd in (1.7, 2.5, 4.0):
            assert tv_kl_frontier("bh_ub_tv", dd) <= math.sqrt(2 * dd) + 1e-12

    def test_vajda_tighter_than_bh(self):
        for tv in np.arange(0.01, 2.0, 0.01):
            assert tv_kl_frontier("vajda_lb_kl", float(tv)) >= tv_kl_frontier(
                "bh_lb_kl", float(tv)
            ) - 1e-12


class TestStraightLine:
    def test_zero(self):
        assert straight_line_egamma_ub(3.0, 0.0) == 0.0

    def test_gamma_two(self):
        assert straight_line_egamma_ub(2.0, 1.0) == pytest.approx(
            c_gamma(2.0), abs=1e-15
        )


class TestDegrootUpper:
    def test_poisson_example_values(self):
        # oracle: closed forms evaluated inline
        chi = math.expm1(4.0 / 99.0)
        d = 101 * math.log(101 / 99) - 2.0
        got_chi = degroot_upper("chi2", 0.1, chi_pq=chi)
        assert got_chi == pytest.approx(
            -0.4 + math.sqrt(0.25 - 0.09 / (1 + 0.1 * chi)), abs=1e-15
        )
        assert f"{got_chi:.1e}" == "4.6e-04"
        got_line = degroot_upper("kl_line", 0.1, d_pq=d)
        assert got_line == pytest.approx(0.1 * c_gamma(9.0) * d, abs=1e-15)
        assert f"{got_line:.1e}" == "5.8e-04"
        got_bh = degroot_upper("kl_bh", 0.1, d_pq=d)
        assert got_bh == pytest.approx(
            -0.4 + math.sqrt(0.25 - 0.09 * math.exp(-d)), abs=1e-15
        )
        assert f"{got_bh:.1e}" == "2.2e-03"

    def test_kl_line_at_half_is_pinsker(self):
        got = degroot_upper("kl_line", 0.5, d_pq=0.08, d_qp=0.08)
        assert got == pytest.approx(0.1, abs=1e-15)

    def test_saturation(self):
        for kind in ("chi2", "kl_bh"):
            kwargs = dict(d_pq=1e6, d_qp=1e6, chi_pq=math.inf, chi_qp=math.inf)
            assert degroot_upper(kind, 0.3, **kwargs) == pytest.approx(0.3, abs=1e-9)
            assert degroot_upper(kind, 0.8, **kwargs) == pytest.approx(0.2, abs=1e-9)

    def test_symmetry_of_chi2_form(self):
        # I_w(P||Q) = I_{1-w}(Q||P) carries over to the bound
        a = degroot_upper("chi2", 0.3, chi_pq=0.7, chi_qp=0.2)
        b = degroot_upper("chi2", 0.7, chi_pq=0.2, chi_qp=0.7)
        assert a == pytest.approx(b, abs=1e-15)

    def test_missing_inputs(self):
        with pytest.raises(ValidationError):
            degroot_upper("chi2", 0.3, d_pq=1.0)
        with pytest.raises(DomainError):
            degroot_upper("chi2", 1.5, chi_pq=1.0)


class TestFdivLowerViaDegroot:
    def test_vacuous(self):
        assert fdiv_lower_via_degroot(generator("kl"), 0.3, 0.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_consistent_with_egamma_route(self):
        # omega = 0.45 maps to gamma = 11/9 with E = I/omega
        f = generator("kl")
        got = fdiv_lower_via_degroot(f, 0.45, 0.04)
        expected = fdiv_lower_via_egamma(f, 0.04 / 0.45, 11.0 / 9.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_half_reduces_to_bh(self):
        got = fdiv_lower_via_degroot(generator("kl"), 0.5, 0.1)
        assert got == pytest.approx(-math.log(0.96), abs=1e-12)

    def test_above_half_branch(self, bern_pair):
        p, q = bern_pair
        f = generator("kl")
        i_qp = float(divergence("degroot", q, p, omega=0.7))
        bound = fdiv_lower_via_degroot(f, 0.7, i_qp)
        assert bound <= float(divergence("kl", p, q)) + 1e-12

    def test_range(self):
        with pytest.raises(DomainError):
            fdiv_lower_via_degroot(generator("kl"), 0.3, 0.5)


class TestChi2LowerFromTv:
    def test_values(self):
        assert chi2_lower_from_tv("tight", 0.4) == pytest.approx(0.16, abs=1e-15)
        assert chi2_lower_from_tv("jensen", 0.4) == pytest.approx(0.32 / 3.84, abs=1e-15)
        assert chi2_lower_from_tv("tight", 1.5) == pytest.approx(3.0, abs=1e-15)

    def test_tight_dominates_with_bounded_ratio(self):
        for tv in np.arange(0.01, 2.0, 0.01):
            tight = chi2_lower_from_tv("tight", float(tv))
            jensen = chi2_lower_from_tv("jensen", float(tv))
            assert jensen <= tight + 1e-15
            cap = 2.0 if tv < 1.0 else 1.5
            assert tight <= cap * jensen + 1e-12


class TestKlUpperLogChi2:
    def test_values(self, bern_pair):
        assert kl_upper_log_chi2(0.0) == 0.0
        assert kl_upper_log_chi2(math.e - 1.0) == pytest.approx(1.0, abs=1e-15)
        assert kl_upper_log_chi2(0.16) == pytest.approx(0.148420, abs=1e-6)
        assert kl_upper_log_chi2(0.16) >= float(divergence("kl", *bern_pair))


class TestCrossover:
    def test_figure_values(self):
        assert crossover_d(1.1) == pytest.approx(0.02, abs=0.01)
        assert crossover_d(2.0) == pytest.approx(0.86, abs=0.02)
        assert crossover_d(3.0) == pytest.approx(1.61, abs=0.02)
        assert crossover_d(4.0) == pytest.approx(2.10, abs=0.02)

    def test_monotone_on_grid(self):
        vals = [crossover_d(g) for g in (1.1, 1.5, 2.0, 3.0, 4.0, 6.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            crossover_d(1.0)

    @pytest.mark.parametrize("gamma", [1.0001, 1e20, 1e300])
    def test_sign_change_outside_the_old_bracket(self, gamma):
        # the crossover is ~2 (gamma - 1)^2 = 2e-8 near gamma = 1 and grows
        # like ln gamma, to 697.3 at 1e300: h changes sign at the returned D
        d = crossover_d(gamma)
        c = c_gamma(gamma)

        def h(x):
            return c * x - egamma_upper("kl", gamma, x)

        assert h(d * (1.0 - 1e-9)) < 0.0 < h(d * (1.0 + 1e-9)), d


class TestBoundReport:
    def test_directions(self):
        low = make_report("x", 0.5, 0.7, "lower")
        assert low.slack == pytest.approx(0.2)
        up = make_report("x", 0.7, 0.5, "upper")
        assert up.slack == pytest.approx(0.2)
        with pytest.raises(DomainError):
            make_report("x", 0.0, 0.0, "sideways")

    def test_without_certified(self):
        rep = make_report("x", 1.0, None, "upper")
        assert rep.slack is None

    def test_same_infinity_has_zero_slack(self):
        assert make_report("x", math.inf, math.inf, "upper").slack == 0.0
        assert make_report("x", math.inf, math.inf, "lower").slack == 0.0
        assert make_report("x", -math.inf, math.inf, "lower").slack == math.inf
        assert make_report("x", 0.5, math.inf, "upper").slack == -math.inf

    @pytest.mark.parametrize(
        "bound,certified",
        [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan), (math.nan, None),
         (math.inf, math.nan)],
    )
    def test_nan_raises(self, bound, certified):
        for direction in ("lower", "upper"):
            with pytest.raises(DomainError):
                make_report("x", bound, certified, direction)


class TestCertificationSweep:
    def test_small_sweep(self):
        rng = np.random.default_rng(97)
        fams = [
            generator("kl"),
            generator("chi_squared"),
            generator("triangular"),
            generator("hellinger", alpha=0.5),
        ]
        for _ in range(200):
            p, q = random_pair(rng, int(rng.integers(2, 6)))
            tv = float(divergence("tv", p, q))
            kl = float(divergence("kl", p, q))
            chi = float(divergence("chi2", p, q))
            assert kl >= tv_kl_frontier("pinsker_lb_kl", tv) - 1e-10
            assert kl >= tv_kl_frontier("vajda_lb_kl", tv) - 1e-10
            assert kl <= kl_upper_log_chi2(chi) + 1e-10
            assert chi >= chi2_lower_from_tv("tight", tv) - 1e-10
            for gamma in (1.0, 1.6, 3.0):
                e = float(divergence("e_gamma", p, q, gamma=gamma))
                assert e <= egamma_upper("chi2", gamma, chi) + 1e-10
                assert e <= egamma_upper("kl", gamma, kl) + 1e-10
                for f in fams:
                    d_f = float(divergence(
                        {"kl": "kl", "chi_squared": "chi2",
                         "triangular": "triangular", "hellinger": "hellinger"}[f.family],
                        p, q, **dict(f.params),
                    ))
                    assert fdiv_lower_via_egamma(f, e, gamma) <= d_f + 1e-10


@settings(max_examples=200, derandomize=True)
@given(st.floats(min_value=-0.36787944117144228, max_value=1e6))
def test_lambert_principal_round_trip_property(x):
    w = lambert_w("principal", x)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def _egamma_upper_oracle(kind, gamma, value):
    """(1/2)[1 - g + sqrt((g-1)^2 + a)] as written, in mpmath with the 700
    digits that absorb its cancellation for gamma up to 1.79e308 and inputs
    down to 1e-300."""
    with mpmath.workdps(700):
        g, x = mpmath.mpf(gamma), mpmath.mpf(value)
        if kind == "chi2":
            a = 4 * g * (1 if value == math.inf else x / (1 + g + x))
        else:
            a = 4 * g * (1 - mpmath.exp(-x))
        return (1 - g + mpmath.sqrt((g - 1) ** 2 + a)) / 2


def _degroot_upper_oracle(kind, omega, value):
    """The chi2 and kl_bh DeGroot bounds as written, in mpmath with the 700
    digits that absorb their cancellation for omega down to 1e-300."""
    with mpmath.workdps(700):
        w, x = mpmath.mpf(omega), mpmath.mpf(value)
        m, b = min(w, 1 - w), abs(mpmath.mpf(0.5) - w)
        if kind == "chi2":
            ratio = 0 if value == math.inf else w * (1 - w) / (1 + m * x)
        else:
            ratio = w * (1 - w) * mpmath.exp(-x)
        return mpmath.sqrt(mpmath.mpf(0.25) - ratio) - b


def _kl_line_oracle(omega, value):
    """The kl_line DeGroot bound m c_gamma D, gamma = big/m, with c_gamma
    from the secondary Lambert root, in mpmath with 700 digits; the Pinsker
    form sqrt(D/8) at omega = 1/2."""
    with mpmath.workdps(700):
        w, x = mpmath.mpf(omega), mpmath.mpf(value)
        m = min(w, 1 - w)
        if omega == 0.5:
            return mpmath.sqrt(x / 8)
        g = (1 - m) / m
        t = -g * mpmath.lambertw(-mpmath.exp(-1 / g) / g, -1).real
        return m * x * (t - g) / (t * mpmath.log(t) + 1 - t)


def _close(got, expected):
    # 1e-13 relative; the floor admits the lost digits of a result in the
    # subnormal range, below 2.2e-308
    return abs(mpmath.mpf(got) - expected) <= 1e-13 * abs(expected) + 1e-318


class TestRootGapOracle:
    """The sqrt(b^2 + a) - b bounds in the cancellation-free form, against
    the form as written at 40 digits and past, for gamma up to 1.79e308 and
    omega from 1e-300 to 1 - 2^-53."""

    GAMMAS = (1.0, 1.0 + 1e-12, 1.5, 10.0, 1e8, 1e16, 1e20, 1e100, 1e200, 1e300, 1.79e308)
    # the points next to 1/2 are where gamma - 1 = |1 - 2 omega|/m must not
    # carry the rounding of big/m
    OMEGAS = (
        1e-300, 1e-100, 1e-16, 1e-3, 0.25, 0.4999, 0.5 - 1e-6, 0.5 - 1e-10, 0.5,
        0.5 + 1e-10, 0.5 + 1e-6, 0.75, 1.0 - 1e-3, 1.0 - 1e-12, 1.0 - 2.0**-53,
    )

    def test_egamma_upper(self):
        for gamma in self.GAMMAS:
            for kind, values in (
                ("chi2", (0.0, 1e-300, 1e-12, 0.3, 1.0, 30.0, 1e300, math.inf)),
                ("kl", (0.0, 1e-300, 1e-12, 0.3, 1.0, 30.0, 800.0)),
            ):
                for value in values:
                    got = egamma_upper(kind, gamma, value)
                    expected = _egamma_upper_oracle(kind, gamma, value)
                    assert _close(got, expected), (kind, gamma, value, got, expected)

    def test_degroot_upper(self):
        for omega in self.OMEGAS:
            for value in (0.0, 1e-300, 1e-10, 0.5, 3.0, 1e10, math.inf):
                got = degroot_upper("chi2", omega, chi_pq=value, chi_qp=value)
                expected = _degroot_upper_oracle("chi2", omega, value)
                assert _close(got, expected), ("chi2", omega, value, got, expected)
                if value < math.inf:
                    got = degroot_upper("kl_bh", omega, d_pq=value, d_qp=value)
                    expected = _degroot_upper_oracle("kl_bh", omega, value)
                    assert _close(got, expected), ("kl_bh", omega, value, got, expected)

    def test_saturated_bound_is_exact(self):
        # at share 1 the root is gamma + 1 and the E_gamma bound exactly 1,
        # so a saturated DeGroot bound reads m rounded up, never below it
        for gamma in self.GAMMAS:
            assert egamma_upper("chi2", gamma, math.inf) == 1.0
            assert egamma_upper("kl", gamma, 800.0) == 1.0
        for omega in self.OMEGAS:
            m = min(omega, 1.0 - omega)
            assert degroot_upper("chi2", omega, chi_pq=math.inf, chi_qp=math.inf) >= m
            assert degroot_upper("kl_bh", omega, d_pq=800.0, d_qp=800.0) >= m

    def test_degroot_upper_rounds_outward(self):
        # the budget bounds._OUTWARD = 1 + 6 2^-52 covers each form's own
        # rounding (measured within 3.4 units of 2^-52): in the normal range
        # every bound is at or above its exact value and within 10 units
        # of it.  A subnormal bound carries an absolute error instead.
        rng = np.random.default_rng(127)
        grid = [(w, v) for w in self.OMEGAS for v in (1e-300, 1e-10, 0.5, 3.0, 1e10)]
        for _ in range(60):
            w = float(10.0 ** rng.uniform(-300.0, math.log10(0.5)))
            grid.append((1.0 - w if rng.uniform() < 0.5 and w > 1e-16 else w,
                         float(10.0 ** rng.uniform(-300.0, 3.0))))
        for omega, value in grid:
            for kind in ("chi2", "kl_bh", "kl_line"):
                got = degroot_upper(kind, omega, d_pq=value, d_qp=value,
                                    chi_pq=value, chi_qp=value)
                if kind == "kl_line":
                    expected = _kl_line_oracle(omega, value)
                else:
                    expected = _degroot_upper_oracle(kind, omega, value)
                if expected < sys.float_info.min:
                    continue
                assert expected <= got <= expected * (1 + 10 * mpmath.mpf(2) ** -52), (
                    kind, omega, value, got, expected)

    def test_large_gamma_keeps_the_bound(self):
        # E_gamma <= the bound on a valid pair: P = (a, 1-a),
        # Q = (a 1e-25, 1 - a 1e-25) with a = 0.0177 has KL ~ 1.0014 and
        # E_gamma = a (1 - 1e-5) at gamma = 1e20
        a = 0.0177
        p = make_distribution([a, 1.0 - a])
        q = make_distribution([a * 1e-25, 1.0 - a * 1e-25])
        kl = float(divergence("kl", p, q))
        e = float(divergence("e_gamma", p, q, gamma=1e20))
        assert e <= egamma_upper("kl", 1e20, kl)
        assert egamma_upper("kl", 1e20, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-12)

    @pytest.mark.parametrize("gamma", ["1e20", "1e200", "1.79e308"])
    def test_cli_large_gamma(self, capsys, gamma):
        code = main(["bounds", "--name", "egamma_ub_kl", "--args", f"gamma={gamma},kl=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["bound_value"] == pytest.approx(-math.expm1(-1.0), rel=1e-9)

    def test_prior_next_to_one(self):
        reports = poisson_bound_report(1.0, 2.0, 1.0 - 2.0**-53)
        for report in reports:
            assert report.bound_value > 0.0
            assert report.slack >= 0.0


def test_vajda_tv_bound_next_to_the_branch_point():
    # W0(-e^(-1-D)) for small D: z = -e^(-1-D) keeps only ~D/eps of its
    # distance to -1/e, so the bound takes 1 - e^-D directly
    with mpmath.workdps(700):
        for k in range(-1200, 12, 7):
            d = 10.0 ** (k / 4)
            w = mpmath.re(mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(d))))
            expected = 2 * (1 + w) / (1 - w)
            got = tv_kl_frontier("vajda_ub_tv", d)
            assert abs(got - expected) <= 1e-12 * expected, (d, got, expected)


@pytest.mark.parametrize(
    "call",
    [
        lambda: egamma_upper("kl", math.nan, 1.0),
        lambda: egamma_upper("chi2", math.nan, 1.0),
        lambda: egamma_upper("kl", 2.0, math.nan),
        lambda: egamma_upper("chi2", 2.0, math.nan),
        lambda: fdiv_lower_via_egamma(generator("kl"), 0.1, math.nan),
        lambda: kl_upper_log_chi2(math.nan),
        lambda: straight_line_egamma_ub(2.0, math.nan),
        lambda: tv_kl_frontier("bh_ub_tv", math.nan),
        lambda: tv_kl_frontier("vajda_ub_tv", math.nan),
        lambda: degroot_upper("chi2", 0.3, chi_pq=math.nan),
        lambda: degroot_upper("kl_line", 0.3, d_pq=math.nan, d_qp=1.0),
    ],
)
def test_nan_input_refused(call):
    # each range check is written so that NaN fails it
    with pytest.raises(DomainError):
        call()
