import math
import re

import mpmath
import numpy as np
import pytest

from divkit import (
    DivkitError,
    DomainError,
    KinkError,
    UnknownKindError,
    affine_shift,
    conjugate,
    divergence,
    f_divergence,
    g_eval,
    generator,
    make_distribution,
    parse_generator,
    represent_general,
    represent_inverse_g,
)
from divkit import divergences
from divkit.distributions import _pair_slot
from divkit.generators import _FAMILIES, KINDS, kind_args, parse_kind
from divkit.terms import _hellinger_breg
from helpers import mp_family, outcome, weight_kernel

# family -> the name of its one parameter
FAMILY_PARAM = {family: pname for family, pname in KINDS.values() if family and pname}

SMOOTH_FAMILIES = [
    ("kl", {}),
    ("jeffreys", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 2.0}),
    ("hellinger", {"alpha": 3.0}),
    ("chi_squared", {}),
    ("chi_s", {"s": 1.5}),
    ("chi_s", {"s": 3.0}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("jensen_shannon", {}),
]

KINKED_FAMILIES = [
    ("total_variation", {}),
    ("chi_s", {"s": 1.0}),
    ("e_gamma", {"gamma": 2.0}),
    ("degroot", {"omega": 0.25}),
    ("degroot", {"omega": 0.5}),
]

ALL_FAMILIES = SMOOTH_FAMILIES + KINKED_FAMILIES


class TestCatalog:
    def test_examples(self):
        assert generator("kl").eval(1.0) == 0.0
        assert generator("chi_squared").eval(3.0) == 4.0
        assert generator("e_gamma", gamma=2.0).eval(1.5) == 0.0

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    def test_membership(self, family, params):
        f = generator(family, **params)
        assert f.eval(1.0) == 0.0

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    def test_convexity_spot_check(self, family, params):
        import zlib

        f = generator(family, **params)
        rng = np.random.default_rng(zlib.crc32(repr((family, params)).encode()))
        for _ in range(1000):
            a, b, c = sorted(rng.uniform(0.01, 10.0, size=3))
            if a == b or b == c:
                continue
            chord = ((c - b) * f.eval(a) + (b - a) * f.eval(c)) / (c - a)
            assert f.eval(b) <= chord + 1e-12

    @pytest.mark.parametrize(
        "family,params",
        [
            ("total_variation", {}),
            ("e_gamma", {"gamma": 1.0}),
            ("e_gamma", {"gamma": 3.0}),
            ("degroot", {"omega": 0.3}),
            ("triangular", {}),
            ("lin", {"theta": 0.3}),
            ("jensen_shannon", {}),
        ],
    )
    def test_fstar_limit_consistency(self, family, params):
        f = generator(family, **params)
        u = 1e8
        assert abs(f.eval(u) / u - f.fstar_at_zero) <= 1e-6

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    def test_log_form_matches_eval(self, family, params):
        # past x = ln(p/q) = 700 the spectral engines read a family's term
        # from x: ``at_log``, or where the family has none its limit
        # ``at_inf``.  Every family whose term grows without bound has the
        # form; one without it must reach its limit by x = 700.  Per unit of
        # p the term is f(u)/u - c (1 - 1/u) at u = e^x, c the subgradient at
        # 1 that the term uses, the same for f and its affine shift
        f = generator(family, **params)
        b = f._breg
        assert affine_shift(f, 0.7)._breg is b
        fm, _, _, c = mp_family(f.family, f.params[0][1] if f.params else None)

        def per_unit_p(x):
            with mpmath.workdps(40):
                u = mpmath.exp(x)
                return fm(u) / u - c * (1 - 1 / u)

        if math.isinf(f.fstar_at_zero):
            assert b.at_log is not None
        if b.at_log is None:
            assert abs(per_unit_p(700) - b.at_inf) <= 1e-15 * max(1.0, b.at_inf)
            return
        for x in (0.1, 2.0, 30.0, 700.0):
            expected = per_unit_p(x)
            if mpmath.isinf(expected) or expected > 1e308:
                assert b.at_log(x, 1.0) == math.inf
            else:
                assert b.at_log(x, 1.0) == pytest.approx(float(expected), rel=1e-13)

    def test_fstar_limit_hellinger_rate(self):
        # sub-linear convergence u^(alpha-1)/(1-alpha); check at that scale
        for alpha in (0.25, 0.5, 0.75):
            f = generator("hellinger", alpha=alpha)
            u = 1e8
            assert abs(f.eval(u) / u - 0.0) <= 2.0 * u ** (alpha - 1.0) / (1.0 - alpha)

    @pytest.mark.parametrize(
        "family,params,kink",
        [
            ("total_variation", {}, 1.0),
            ("chi_s", {"s": 1.0}, 1.0),
            ("e_gamma", {"gamma": 2.5}, 2.5),
            ("degroot", {"omega": 0.25}, 3.0),
        ],
    )
    def test_kink_abscissa(self, family, params, kink):
        # a declared kink, here or at 1/kink on the conjugate, is what the
        # general and inverse-g engines refuse
        f = generator(family, **params)
        assert f.kink == kink and not f.is_smooth
        fc = conjugate(f)
        assert fc.kink == 1.0 / kink and not fc.is_smooth
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.4, 0.6])
        for g in (f, fc):
            for engine in (represent_general, represent_inverse_g):
                with pytest.raises(KinkError, match="has a kink"):
                    engine(g, p, q)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("hellinger", {"alpha": 1.0}),
            ("hellinger", {"alpha": 0.0}),
            ("chi_s", {"s": 0.5}),
            ("lin", {"theta": 0.0}),
            ("lin", {"theta": 1.0}),
            ("e_gamma", {"gamma": 0.9}),
            ("degroot", {"omega": 0.0}),
            ("degroot", {"omega": 1.0}),
        ],
    )
    def test_parameter_domains(self, family, params):
        with pytest.raises(DomainError):
            generator(family, **params)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            generator("nope")

    def test_parse_generator(self):
        assert parse_generator("hellinger:0.5").params == (("alpha", 0.5),)
        assert parse_generator("chi2").family == "chi_squared"
        assert parse_generator("tv").kink == 1.0
        with pytest.raises(DomainError):
            parse_generator("hellinger")
        with pytest.raises(DomainError):
            parse_generator("kl:3")

    def test_degroot_limits(self):
        f = generator("degroot", omega=0.3)
        assert f.f_at_zero == 0.3
        assert f.fstar_at_zero == 0.0
        assert f.right_deriv_at_one == -0.3

    def test_lin_limits(self):
        theta = 0.3
        f = generator("lin", theta=theta)
        assert f.f_at_zero == pytest.approx(-0.7 * math.log(0.7), abs=1e-15)
        assert f.fstar_at_zero == pytest.approx(-0.3 * math.log(0.3), abs=1e-15)

    @pytest.mark.parametrize("theta", [1e-10, 1e-6, 0.0047, 0.5, 0.999])
    def test_lin_limit_at_zero_keeps_its_bits(self, theta):
        # f(0) = -(1 - theta) ln(1 - theta) was taken from the rounded
        # 1 - theta: 47 units of 2^-53 off at theta = 0.0047, and Lin on this
        # pair, whose last atom has p = 0, 6e-8 relative off at 1e-10
        P, Q = (0.5, 0.5, 0.0), (0.25, 0.25, 0.5)
        with mpmath.workdps(50):
            th = mpmath.mpf(theta)
            f0 = -(1 - th) * mpmath.log1p(-th)
            exact = 0
            for a, b in zip(map(mpmath.mpf, P), map(mpmath.mpf, Q)):
                m = th * a + (1 - th) * b
                exact += (th * a * mpmath.log(a / m) if a else 0) + (1 - th) * b * mpmath.log(b / m)
            got = generator("lin", theta=theta).f_at_zero
            assert abs((got - f0) / f0) <= 2 * 2.0**-53
            value = divergence("lin", make_distribution(P), make_distribution(Q), theta=theta)
            assert abs((value.value - exact) / exact) <= 4 * 2.0**-53

    def test_limits_match_the_oracle(self):
        # f(0) and f*(0) are stated twice, on the generator and on its
        # shifted term as f(0) + c and f*(0) - c; both against one oracle
        rng = np.random.default_rng(31)
        n = 150
        orders = {
            "hellinger": [0.5, 2.0, 117.0]
            + [a for a in np.exp(rng.uniform(math.log(1e-3), math.log(200.0), n)) if a != 1.0],
            "chi_s": [1.0, 2.0] + list(1.0 + np.exp(rng.uniform(-12.0, 4.0, n))),
            "lin": list(rng.uniform(0.0, 1.0, n)) + list(np.exp(rng.uniform(-28.0, -1.0, n))),
            "e_gamma": [1.0] + list(1.0 + np.exp(rng.uniform(-12.0, 6.0, n))),
            "degroot": [0.5] + list(rng.uniform(0.0, 1.0, n)),
        }
        plain = ("kl", "jeffreys", "chi_squared", "total_variation", "triangular", "jensen_shannon")
        members = [(fam, None) for fam in plain]
        members += [(fam, float(a)) for fam, values in orders.items() for a in values if a > 0.0]
        worst = 0.0
        for family, a in members:
            params = {} if a is None else {FAMILY_PARAM[family]: a}
            f = generator(family, **params)
            with mpmath.workdps(50):
                _, f0, fs0, c = mp_family(family, a)
                for got, exact in (
                    (f.f_at_zero, f0),
                    (f.fstar_at_zero, fs0),
                    (f._breg.at_zero, f0 + c),
                    (f._breg.at_inf, fs0 - c),
                ):
                    if exact == 0 or mpmath.isinf(exact):
                        assert got == exact, (family, a, got, exact)
                        continue
                    err = float(abs((got - exact) / exact)) / 2.0**-53
                    assert err <= 2.0, (family, a, got, exact, err)
                    worst = max(worst, err)
        assert worst > 0.0  # the sweep reached a rounded limit


class TestFamilyTable:
    # one member of each family, by its kind: (kind, family, parameters)
    MEMBERS = [
        (kind, family, {pname: 2.5 if family in ("hellinger", "chi_s", "e_gamma") else 0.3}
         if pname else {})
        for kind, (family, pname) in KINDS.items()
        if family
    ]

    def test_every_family_has_one_row_and_one_kind(self):
        assert len(self.MEMBERS) == len(_FAMILIES) == 11
        assert {family for _, family, _ in self.MEMBERS} == set(_FAMILIES)
        assert {kind for kind, (family, _) in KINDS.items() if family is None} == {
            "sq_hellinger", "bhattacharyya", "alpha", "renyi",
        }

    @pytest.mark.parametrize("kind,family,params", MEMBERS)
    def test_a_kind_and_its_generator_share_one_memo_entry(self, kind, family, params):
        # they share one term while the bounded caches hold the parameter;
        # other tests' parameters may have evicted it from some of them
        for cached in (divergences._kind_sum, _hellinger_breg, *_FAMILIES[family][2:]):
            getattr(cached, "cache_clear", lambda: None)()
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.4, 0.35, 0.25])
        value = divergence(kind, p, q, **params).value
        f = generator(family, **params)
        assert f_divergence(f, p, q).value == value
        entries = _pair_slot(p, q)[2]
        sums = {key: hit for key, hit in entries.items() if key[0] != "diffs"}
        assert list(sums) == [(id(f._breg), False)]
        assert sums[id(f._breg), False][1] is f._breg is _FAMILIES[family].term(*params.values())

    @pytest.mark.parametrize("kind,family,params", [m for m in MEMBERS if m[2]])
    def test_one_parameter_name_for_every_reader(self, kind, family, params):
        (pname,) = params
        assert _FAMILIES[family].param == pname == KINDS[kind][1]
        assert generator(family, **params).params == tuple(params.items())
        assert kind_args(kind, params) == tuple(params.values())
        assert parse_kind(f"{kind}:0.75") == (kind, {pname: 0.75})
        with pytest.raises(DomainError, match=f"takes the one parameter '{pname}'"):
            generator(family)
        with pytest.raises(DomainError, match=f"needs the parameter '{pname}'"):
            kind_args(kind, {})
        with pytest.raises(DomainError, match=f"takes no parameter 'x'"):
            kind_args(kind, {pname: 0.5, "x": 1.0})

    def test_the_maps_take_the_hellinger_order(self):
        order = _FAMILIES["hellinger"].param
        assert KINDS["alpha"] == KINDS["renyi"] == (None, order)
        assert parse_kind("renyi:2") == ("renyi", {order: 2.0})

    def test_a_name_without_a_row_is_refused_as_before(self, bern_pair):
        for name in ("nope", "chi2", "renyi", "custom*"):
            with pytest.raises(DomainError, match=f"^unknown generator family '{re.escape(name)}'$"):
                generator(name)
        with pytest.raises(DomainError, match="^unknown generator family \\[\\]$"):
            generator([])
        for name in ("nope", "chi_squared", "jensen_shannon"):
            with pytest.raises(UnknownKindError, match=f"^unknown divergence kind '{name}'$"):
                divergence(name, *bern_pair)
            with pytest.raises(UnknownKindError, match=f"^unknown divergence kind '{name}:1'$"):
                parse_kind(f"{name}:1")
        with pytest.raises(DomainError, match="^'renyi' has no catalog generator$"):
            parse_generator("renyi:2")
        with pytest.raises(DomainError, match="^generator 'kl' takes no parameter$"):
            generator("kl", alpha=2.0)
        # order 1 is KL for the kinds, and refused by the generator
        assert divergence("hellinger", *bern_pair, alpha=1.0).value == divergence("kl", *bern_pair).value
        with pytest.raises(DomainError, match="Hellinger order"):
            generator("hellinger", alpha=1.0)


class TestFloatRange:
    # the closed forms of f and f'' overflow (or read inf - inf) at these
    # arguments for some member or its conjugate
    TS = (1e-308, 1e-200, 1e154, 1e200, 1e308)
    MEMBERS = ALL_FAMILIES + [
        ("hellinger", {"alpha": a}) for a in (0.3, 1.5, 117.0)
    ] + [("lin", {"theta": 1e-3}), ("e_gamma", {"gamma": 1.0})]

    @pytest.mark.parametrize("family,params", MEMBERS)
    def test_eval_and_second_end_in_a_value_or_a_refusal(self, family, params):
        f = generator(family, **params)
        exact, _, _, _ = mp_family(family, next(iter(params.values()), None))
        cases = (
            (f, exact),
            (conjugate(f), lambda t: t * exact(1 / t)),
            (affine_shift(f, 0.7), lambda t: exact(t) + mpmath.mpf(0.7) * (t - 1)),
            (
                affine_shift(conjugate(f), -0.4),
                lambda t: t * exact(1 / t) - mpmath.mpf(0.4) * (t - 1),
            ),
        )
        for g, want in cases:
            for t in self.TS:
                assert outcome(g, t) == outcome(g.eval, t), (g, t)  # f(t) is f.eval(t)
                got = g.eval(t)
                with mpmath.workdps(60):
                    w = want(mpmath.mpf(t))
                    if abs(w) > mpmath.mpf(1.7976931348623157e308):
                        assert got == math.copysign(math.inf, w), (g, t, got, w)
                    else:
                        assert abs(got - w) <= 1e-12 * abs(w) + 1e-300, (g, t, got, w)
                try:
                    second = g.second(t)
                except DivkitError:
                    continue
                assert second >= 0.0, (g, t, second)  # f is convex; NaN fails too

    def test_named_cases(self):
        assert generator("triangular").eval(1e200) == pytest.approx(1e200, rel=1e-15)
        assert generator("chi_squared").eval(1e200) == math.inf
        assert conjugate(generator("chi_squared")).eval(1e-308) == pytest.approx(1e308, rel=1e-15)
        # t f(1/t) read inf where 1/t f(1/t) passed the float range, and where
        # 1/t itself did; a kink at 1 keeps its term's subgradient there
        assert conjugate(generator("kl")).eval(1e-308) == pytest.approx(-math.log(1e-308), rel=1e-15)
        assert conjugate(generator("total_variation")).eval(5e-324) == 1.0
        assert conjugate(generator("degroot", omega=0.5)).eval(5e-324) == 0.0
        assert generator("hellinger", alpha=0.5).second(1e-308) == math.inf
        assert generator("jeffreys").second(1e-308) == math.inf
        assert generator("triangular").second(1e154) == 0.0
        with pytest.raises(DomainError, match="float range"):
            conjugate(generator("triangular")).second(1e-200)


class TestConjugate:
    def test_kl_conjugate_is_negative_log(self):
        fc = conjugate(generator("kl"))
        assert fc.eval(2.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_tv_self_conjugate(self):
        fc = conjugate(generator("total_variation"))
        assert fc.eval(3.0) == pytest.approx(2.0, abs=1e-15)

    def test_involution(self):
        f2 = conjugate(conjugate(generator("chi_squared")))
        assert f2.eval(3.0) == pytest.approx(4.0, abs=1e-12)
        for family, params in SMOOTH_FAMILIES:
            f = generator(family, **params)
            ff = conjugate(conjugate(f))
            for t in (0.2, 0.7, 1.0, 1.9, 6.0):
                assert ff.eval(t) == pytest.approx(f.eval(t), rel=1e-12, abs=1e-12)

    def test_limits_swap(self):
        f = generator("kl")
        fc = conjugate(f)
        assert fc.f_at_zero == math.inf
        assert fc.fstar_at_zero == 0.0
        assert fc.second_at_one == f.second_at_one


class TestAffineShift:
    def test_preserves_root(self):
        assert affine_shift(generator("kl"), -1.0).eval(1.0) == 0.0

    def test_shift_value(self):
        assert affine_shift(generator("chi_squared"), 2.0).eval(2.0) == pytest.approx(
            3.0, abs=1e-15
        )

    def test_zero_shift_identity(self):
        f = generator("triangular")
        g = affine_shift(f, 0.0)
        for t in (0.2, 1.0, 3.7):
            assert g.eval(t) == f.eval(t)

    def test_g_invariant_under_shift(self):
        rng = np.random.default_rng(3)
        for family, params in SMOOTH_FAMILIES:
            f = generator(family, **params)
            shifted = affine_shift(f, 2.7)
            for x in rng.uniform(-3, 3, size=100):
                assert abs(g_eval(f, float(x)) - g_eval(shifted, float(x))) <= 1e-12


class TestWeight:
    # the kernel of the general representation, kept as the 40-digit
    # reference that the exact engine is checked against
    def test_zero_at_one(self):
        assert weight_kernel(generator("kl"), 1.0) == 0

    def test_kl_with_unit_shift(self):
        # modified kernel for relative entropy is 1/beta above 1
        assert float(weight_kernel(generator("kl"), 2.0, c=1.0)) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_hellinger2_below_one(self):
        # beta^(alpha-2) kernel with the sign flip below 1
        got = weight_kernel(generator("hellinger", alpha=2.0), 0.5, c=1.0)
        assert float(got) == pytest.approx(-1.0, abs=1e-14)

    def test_nonnegative_without_shift(self):
        rng = np.random.default_rng(17)
        for family, params in SMOOTH_FAMILIES:
            f = generator(family, **params)
            for b in rng.uniform(0.02, 8.0, size=200):
                assert weight_kernel(f, float(b)) >= 0

    def test_kink_error(self):
        with pytest.raises(KinkError):
            weight_kernel(generator("total_variation"), 1.0)


class TestGEval:
    @pytest.mark.parametrize("family,params", SMOOTH_FAMILIES)
    def test_zero_at_origin(self, family, params):
        assert abs(g_eval(generator(family, **params), 0.0)) <= 1e-15

    def test_chi_squared_closed_form(self):
        x = 2.0 * math.log(2.0)
        assert g_eval(generator("chi_squared"), x) == pytest.approx(2.25, abs=1e-12)

    def test_kl_at_one(self):
        assert g_eval(generator("kl"), 1.0) == pytest.approx(math.exp(-1), abs=1e-14)

    @pytest.mark.parametrize("family,params", SMOOTH_FAMILIES)
    def test_matches_mpmath(self, family, params):
        # e^-x f(e^x) - f'(1) (1 - e^-x) in 40 digits, near 0 too, where the
        # formula itself cancels to nothing in floats
        f = generator(family, **params)
        fm, _, _, d1 = mp_family(family, next(iter(params.values()), None))
        for x in (1e-9, 1e-6, 1e-3, 0.3, 5.0, 40.0):
            for y in (x, -x):
                with mpmath.mp.workdps(40):
                    u = mpmath.exp(y)
                    ref = fm(u) / u - d1 * (1 - 1 / u)
                got = g_eval(f, y)
                assert abs(got - ref) <= 1e-13 * ref, (y, got, float(ref))

    def test_past_the_float_range(self):
        # past |x| = 700 the term comes from at_log or its limit
        kl, half = generator("kl"), generator("hellinger", alpha=0.5)
        assert g_eval(kl, 720.0) == pytest.approx(719.0, rel=1e-15)
        assert g_eval(generator("jeffreys"), 720.0) == pytest.approx(720.0, rel=1e-15)
        assert g_eval(half, 720.0) == 1.0  # f*(0) - f'(1)
        assert g_eval(kl, -720.0) == math.inf
        assert g_eval(half, -700.0) == pytest.approx(math.exp(700.0), rel=1e-12)
        # below x ~ -745 e^x is 0, and the term is the singular part q at_zero
        for x in (-746.0, -800.0):
            assert g_eval(kl, x) == g_eval(generator("jeffreys"), x) == math.inf
            assert g_eval(generator("e_gamma", gamma=2.0), x) == 0.0

    @pytest.mark.parametrize("family,params", SMOOTH_FAMILIES)
    def test_monotone_both_sides(self, family, params):
        f = generator(family, **params)
        xs = np.linspace(0.01, 3.0, 40)
        pos = [g_eval(f, float(x)) for x in xs]
        neg = [g_eval(f, float(-x)) for x in xs]
        assert all(a < b for a, b in zip(pos, pos[1:]))
        assert all(a < b for a, b in zip(neg, neg[1:]))
