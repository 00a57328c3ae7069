"""Kind and family parameters at the input boundary, and the shared catalog.

Every kind with a parameter, and every generator family with one, is driven
with NaN, the infinities, 0, -1, the floats next to 1, 1e300 and random
floats.  A call ends in a finite value >= 0, inf or a ``DivkitError``,
never NaN or a raw exception; a refused value is refused again, since the
caches never keep an exception; a valid one gives the same generator object
and the same value bit for bit when asked again.
"""

from __future__ import annotations

import math
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DivergenceValue,
    DivkitError,
    DomainError,
    PoissonModel,
    UnknownKindError,
    ValidationError,
    affine_shift,
    c_gamma,
    chi2_lower_from_tv,
    chi2_mixture_scaling,
    chis_mixture_scaling,
    conjugate,
    crossover_d,
    degroot_from_egamma,
    degroot_upper,
    divergence,
    egamma_upper,
    f_divergence,
    fdiv_lower_via_degroot,
    fdiv_lower_via_egamma,
    g_big,
    g_eval,
    generator,
    hellinger_renyi_lower,
    kl_upper_log_chi2,
    lambert_w,
    make_distribution,
    make_report,
    mixture,
    poisson_degroot_exact,
    poisson_k0,
    poisson_pmf,
    relative_information,
    renyi,
    renyi_local_estimate,
    represent_general,
    represent_named,
    spectrum,
    spectrum_eval,
    spectrum_from_degroot,
    spectrum_from_egamma,
    straight_line_egamma_ub,
    tv_kl_frontier,
)
from divkit.generators import KINDS

_KIND_PARAMS = sorted((kind, pname) for kind, (_, pname) in KINDS.items() if pname)
_FAMILY_PARAMS = sorted({(fam, pname) for fam, pname in KINDS.values() if fam and pname})

_EDGES = [
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -1.0,
    math.nextafter(1.0, 0.0),
    math.nextafter(1.0, 2.0),
    1e300,
]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False))

# plain; one atom charged equally by both; zero masses on either side; a
# log-ratio of ~690, which an order past ~3e305 takes past the float range
_PAIRS = [
    (make_distribution([0.7, 0.3]), make_distribution([0.5, 0.5])),
    (make_distribution([0.5, 0.25, 0.25]), make_distribution([0.5, 0.3, 0.2])),
    (make_distribution([0.6, 0.4, 0.0]), make_distribution([0.2, 0.0, 0.8])),
    (make_distribution([0.5, 0.5]), make_distribution([1e-300, 1.0])),
]


def _outcome(call):
    """The call's value, or the DivkitError it raised."""
    try:
        return call()
    except DivkitError as exc:
        return exc


def _check_twice(call) -> None:
    """A non-negative value or inf, the same bits again; or the same
    refusal again."""
    first = _outcome(call)
    second = _outcome(call)
    if isinstance(first, DivkitError):
        assert type(second) is type(first) and str(second) == str(first)
        return
    assert first == math.inf or (math.isfinite(first) and first >= 0.0), first
    assert second.hex() == first.hex()


class TestParameterBoundary:
    @given(kind_param=st.sampled_from(_KIND_PARAMS), value=_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_kind_value_or_divkit_error(self, kind_param, value):
        kind, pname = kind_param
        for p, q in _PAIRS:
            _check_twice(lambda: divergence(kind, p, q, **{pname: value}).value)
        p = _PAIRS[1][0]
        same = _outcome(lambda: divergence(kind, p, p, **{pname: value}).value)
        assert isinstance(same, DivkitError) or same == 0.0, same

    @given(family_param=st.sampled_from(_FAMILY_PARAMS), value=_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_family_shared_or_refused(self, family_param, value):
        family, pname = family_param
        f = _outcome(lambda: generator(family, **{pname: value}))
        if isinstance(f, DivkitError):
            with pytest.raises(type(f), match="^" + re.escape(str(f))):
                generator(family, **{pname: value})
            return
        assert generator(family, **{pname: value}) is f
        assert f.params == ((pname, value),)
        for p, q in _PAIRS:
            _check_twice(lambda: f_divergence(f, p, q).value)

    @pytest.mark.parametrize(
        "kind, params",
        [("chi_s", {"s": math.nan}), ("e_gamma", {"gamma": math.nan})],
    )
    def test_nan_parameter_refused(self, kind, params):
        p, q = _PAIRS[0]
        with pytest.raises(DomainError):
            divergence(kind, p, q, **params)
        with pytest.raises(DomainError):
            generator(KINDS[kind][0], **params)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("hellinger", {}),
            ("kl", {"foo": 1.0}),
            ("hellinger", {"alpha": 0.5, "beta": 1.0}),
            ("e_gamma", {"omega": 0.3}),
        ],
    )
    def test_missing_or_unknown_parameter(self, family, params):
        with pytest.raises(DomainError):
            generator(family, **params)

    @pytest.mark.parametrize(
        "kind, params, unexpected",
        [
            ("kl", {"alpha": 2}, "'alpha'"),
            ("tv", {"gamma": 1.5, "omega": 0.3}, "'gamma', 'omega'"),
            ("hellinger", {"alpha": 0.5, "beta": 1.0}, "'beta'"),
            ("e_gamma", {"omega": 0.3}, "'omega'"),
        ],
    )
    def test_kind_refuses_unexpected_parameter(self, kind, params, unexpected):
        # a named kind used to drop a key it does not take and label the
        # value with it
        p, q = _PAIRS[0]
        for call in (divergence, represent_named):
            with pytest.raises(DomainError, match=re.escape(unexpected)):
                call(kind, p, q, **params)


class TestNonNumberParameter:
    """A kind or family parameter is an int or a float; anything else,
    bool and complex included, is refused with DomainError."""

    _NON_NUMBERS = ["2", None, [2], 2 + 0j, True, False]

    @pytest.mark.parametrize("value", _NON_NUMBERS, ids=repr)
    def test_refused_everywhere(self, value):
        p, q = _PAIRS[0]
        calls = [
            lambda: divergence("hellinger", p, q, alpha=value),
            lambda: divergence("e_gamma", p, q, gamma=value),
            lambda: divergence("renyi", p, q, alpha=value),
            lambda: renyi(value, p, q),
            lambda: represent_named("renyi", p, q, alpha=value),
            lambda: represent_named("hellinger", p, q, alpha=value),
            lambda: generator("hellinger", alpha=value),
            lambda: generator("chi_s", s=value),
        ]
        # the scalar gates that pass a float in line and send anything else
        # through errors._real; None is a missing DeGroot input, refused apart
        f = generator("kl")
        calls += [
            lambda: fdiv_lower_via_egamma(f, value, 2.0),
            lambda: fdiv_lower_via_egamma(f, 0.3, value),
            lambda: fdiv_lower_via_degroot(f, value, 0.1),
            lambda: fdiv_lower_via_degroot(f, 0.25, value),
            lambda: hellinger_renyi_lower("renyi", value, 2.0, 0.3),
            lambda: hellinger_renyi_lower("hellinger", 2.0, value, 0.3),
            lambda: hellinger_renyi_lower("renyi", 2.0, 2.0, value),
            lambda: egamma_upper("kl", value, 0.3),
            lambda: egamma_upper("chi2", 1.5, value),
            lambda: tv_kl_frontier("vajda_lb_kl", value),
            lambda: tv_kl_frontier("vajda_ub_tv", value),
            lambda: degroot_upper("chi2", value, chi_pq=0.1),
            lambda: degroot_from_egamma(value, p, q),
            lambda: chi2_lower_from_tv("tight", value),
            lambda: kl_upper_log_chi2(value),
            lambda: lambert_w("principal", value),
        ]
        if value is not None:  # each input on the side that omega reads
            inputs = dict(d_pq=0.1, d_qp=0.2, chi_pq=0.3, chi_qp=0.4)
            for kind, omega, name in [
                ("chi2", 0.25, "chi_pq"), ("chi2", 0.75, "chi_qp"), ("kl_bh", 0.25, "d_pq"),
                ("kl_line", 0.75, "d_qp"), ("kl_line", 0.5, "d_pq"), ("kl_line", 0.5, "d_qp"),
            ]:
                calls.append(partial(degroot_upper, kind, omega, **{**inputs, name: value}))
        for call in calls:
            for _ in range(2):  # the caches keep no refusal
                with pytest.raises(DomainError, match="must be a real number"):
                    call()

    def test_complex_order_no_longer_reads_chi2(self):
        # 2 + 0j == 2.0 picked the chi^2 term and returned its value
        p, q = _PAIRS[0]
        with pytest.raises(DomainError):
            divergence("hellinger", p, q, alpha=2 + 0j)

    def test_bool_order_no_longer_reads_kl(self):
        # True == 1.0 took order 1 as KL, where generator() refused it
        p, q = _PAIRS[0]
        with pytest.raises(DomainError):
            divergence("hellinger", p, q, alpha=True)
        with pytest.raises(DomainError):
            generator("hellinger", alpha=True)

    def test_unhashable_kind_or_family(self):
        p, q = _PAIRS[0]
        for named in (divergence, represent_named):
            with pytest.raises(UnknownKindError):
                named(["kl"], p, q)
            with pytest.raises(DomainError):
                named("hellinger", p, q, alpha=[2])
        with pytest.raises(DomainError):
            generator(["kl"])

    def test_int_and_float_subclasses_pass(self):
        class Order(float):
            pass

        p, q = _PAIRS[0]
        want = divergence("hellinger", p, q, alpha=2.0).value
        assert divergence("hellinger", p, q, alpha=2).value == want
        assert divergence("hellinger", p, q, alpha=Order(2.0)).value == want
        assert generator("hellinger", alpha=Order(0.5)).params == (("alpha", 0.5),)
        # the scalar gates that pass a float in line: an int and a float
        # subclass give the float's value, or its refusal, bit for bit
        f = generator("kl")
        gates = [
            (lambda x: fdiv_lower_via_egamma(f, x, 2.0), 0),
            (lambda x: fdiv_lower_via_egamma(f, 0.3, x), 2),
            (lambda x: fdiv_lower_via_degroot(f, x, 0.1), 1),  # refused: omega = 1
            (lambda x: fdiv_lower_via_degroot(f, 0.25, x), 0),
            (lambda x: hellinger_renyi_lower("renyi", x, 2.0, 0.3), 2),
            (lambda x: hellinger_renyi_lower("hellinger", 2.0, x, 0.3), 3),
            (lambda x: hellinger_renyi_lower("renyi", 2.0, 2.0, x), 0),
            (lambda x: egamma_upper("kl", x, 0.3), 2),
            (lambda x: egamma_upper("chi2", 1.5, x), 2),
            (lambda x: tv_kl_frontier("vajda_lb_kl", x), 1),
            (lambda x: tv_kl_frontier("vajda_ub_tv", x), 1),
            (lambda x: degroot_upper("chi2", x, chi_pq=0.1), 1),  # refused: omega = 1
            (lambda x: degroot_upper("chi2", 0.25, chi_pq=x), 2),
            (lambda x: degroot_upper("chi2", 0.75, chi_qp=x), 2),
            (lambda x: degroot_upper("kl_bh", 0.25, d_pq=x), 1),
            (lambda x: degroot_upper("kl_line", 0.5, d_pq=x, d_qp=3.0), 2),
            (lambda x: degroot_upper("kl_line", 0.5, d_pq=3.0, d_qp=x), 2),
            (lambda x: degroot_from_egamma(x, p, q).value, 1),  # refused: omega = 1
            (lambda x: chi2_lower_from_tv("tight", x), 1),
            (lambda x: kl_upper_log_chi2(x), 2),
            (lambda x: lambert_w("principal", x), 2),
            (lambda x: generator("chi_s", s=x)._eval(1.7), 2),
        ]
        for call, n in gates:
            want = _outcome(lambda: call(float(n)))
            for x in (n, Order(n)):
                got = _outcome(lambda: call(x))
                if isinstance(want, DivkitError):
                    assert type(got) is type(want) and str(got) == str(want), (n, got)
                else:
                    assert type(got) in (float, Order) and got.hex() == want.hex(), (n, got)

    def test_int_past_the_float_range_refused(self):
        # float() of these ints overflows: the calls raised a raw
        # OverflowError, and chi_s returned inf
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.4, 0.6])
        big = 10**400
        calls = [
            lambda: divergence("hellinger", p, q, alpha=big),
            lambda: renyi(big, p, q),
            lambda: generator("e_gamma", gamma=big),
            lambda: represent_named("renyi", p, q, alpha=big),
            lambda: divergence("chi_s", p, q, s=big),
            lambda: divergence("chi_s", p, q, s=-big),
            # scalars of the local estimates and the bounds, which raised a
            # raw OverflowError
            lambda: renyi_local_estimate(big, p, q),
            lambda: hellinger_renyi_lower("hellinger", big, 2.0, 0.3),
            lambda: hellinger_renyi_lower("renyi", 2.0, big, 0.3),
            lambda: egamma_upper("kl", big, 1.0),
            lambda: egamma_upper("chi2", 2.0, big),
            lambda: c_gamma(big),
            lambda: fdiv_lower_via_egamma(generator("kl"), 0.3, big),
            lambda: straight_line_egamma_ub(2.0, big),
            lambda: kl_upper_log_chi2(big),
            lambda: tv_kl_frontier("bh_ub_tv", big),
            lambda: tv_kl_frontier("vajda_ub_tv", big),
            lambda: degroot_upper("chi2", 0.3, chi_pq=big),
            lambda: degroot_upper("kl_line", 0.3, d_pq=big),
            lambda: degroot_upper("kl_bh", 0.3, d_pq=big),
            lambda: degroot_upper("kl_line", 0.5, d_pq=big, d_qp=1.0),
            lambda: degroot_upper("kl_line", 0.5, d_pq=1.0, d_qp=big),
            lambda: lambert_w("principal", big),
            lambda: make_report("name", big, 1.0, "upper"),
            lambda: make_report("name", 1.0, big, "lower"),
            # the other inputs of the gates that pass a float in line
            lambda: fdiv_lower_via_egamma(generator("kl"), big, 2.0),
            lambda: fdiv_lower_via_degroot(generator("kl"), big, 0.1),
            lambda: fdiv_lower_via_degroot(generator("kl"), 0.25, big),
            lambda: hellinger_renyi_lower("hellinger", 2.0, 2.0, big),
            lambda: tv_kl_frontier("vajda_lb_kl", big),
            lambda: degroot_upper("chi2", big, chi_pq=1.0),
            lambda: degroot_upper("chi2", 0.75, chi_qp=big),
            lambda: degroot_upper("kl_line", 0.75, d_qp=big),
            lambda: chi2_lower_from_tv("tight", big),
            lambda: generator("chi_s", s=big),
            # spectral queries and the general engine's shift
            lambda: spectrum_eval(spectrum(p, q), big),
            lambda: g_big(p, q, big),
            lambda: spectrum_from_egamma(p, q, big),
            lambda: spectrum_from_degroot(p, q, -big),
            lambda: represent_general(generator("kl"), p, q, c=big),
            # a Poisson count, and chi^s on a mixture path, which read inf
            lambda: PoissonModel(3.0).pmf(big),
            lambda: poisson_pmf(3.0, big),
            lambda: chis_mixture_scaling(p, q, big, 0.5),
        ]
        for call in calls:
            for _ in range(2):  # the caches keep no refusal
                with pytest.raises(DomainError, match="passes the float range"):
                    call()
        # an int in range stays as given, so params print unchanged
        assert divergence("chi_s", p, q, s=10**300).params == {"s": 10**300}
        assert generator("hellinger", alpha=3).params == (("alpha", 3),)

    def test_public_scalars_refuse_text(self):
        # each raised a raw TypeError from its first comparison or sum
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.4, 0.6])
        f = generator("kl")
        calls = [
            lambda: mixture(p, q, "0.5"),
            lambda: chi2_mixture_scaling(p, q, "0.5"),
            lambda: chi2_lower_from_tv("tight", "0.5"),
            lambda: tv_kl_frontier("pinsker_lb_kl", "0.5"),
            lambda: fdiv_lower_via_egamma(f, "0.3", 2.0),
            lambda: fdiv_lower_via_degroot(f, "0.3", 0.1),
            lambda: fdiv_lower_via_degroot(f, 0.3, "0.1"),
            lambda: degroot_upper("chi2", "0.3", chi_pq=0.1),
            lambda: hellinger_renyi_lower("renyi", 2.0, 1.5, "0.3"),
            lambda: crossover_d("2"),
            lambda: poisson_k0(1.0, 2.0, "0.3"),
            lambda: poisson_degroot_exact("1", 2.0, 0.3),
            lambda: degroot_from_egamma("0.3", p, q),
            lambda: g_eval(f, "1"),
            lambda: f.eval("1"),
            lambda: affine_shift(f, "1")(2.0),
            # f'' raised a raw TypeError from its first comparison
            lambda: f.second("1"),
        ]
        for call in calls:
            for _ in range(2):  # the caches keep no refusal
                with pytest.raises(DomainError, match="must be a real number"):
                    call()

    def test_g_eval_refuses_a_big_int_and_nan(self):
        # 10**400 raised a raw OverflowError, and NaN read inf
        f = generator("kl")
        with pytest.raises(DomainError, match="passes the float range"):
            g_eval(f, 10**400)
        with pytest.raises(DomainError, match="NaN"):
            g_eval(f, math.nan)
        assert g_eval(f, 2) == g_eval(f, 2.0)
        # f, its conjugate and f'' read NaN at NaN; a shift by NaN or inf
        # was accepted
        for call in (
            lambda: f.eval(math.nan),
            lambda: conjugate(f).eval(math.nan),
            lambda: f.second(math.nan),
            lambda: f.second(10**400),
            lambda: affine_shift(f, math.nan),
            lambda: affine_shift(f, math.inf),
            lambda: affine_shift(f, -math.inf),
        ):
            with pytest.raises(DomainError):
                call()
        assert f.second(2) == f.second(2.0) == 0.5
        # a custom generator with f(1) = NaN passed the f(1) = 0 check
        with pytest.raises(ValidationError, match="f\\(1\\)=0"):
            generator(
                "custom", eval=lambda t: math.nan, f_at_zero=0.0, fstar_at_zero=1.0,
                right_deriv_at_one=0.0,
            )
        # a missing or unknown keyword of custom (the removed deriv and edge
        # among them) is a DomainError, not a raw TypeError
        made = dict(eval=lambda t: (t - 1.0) ** 2, f_at_zero=1.0, fstar_at_zero=math.inf)
        for kwargs in (
            made,
            {**made, "right_deriv_at_one": 0.0, "deriv": lambda t: 2.0 * (t - 1.0)},
            {**made, "right_deriv_at_one": 0.0, "edge": lambda t: (t - 1.0) ** 2},
            {**made, "right_deriv_at_one": 0.0, "foo": 1},
        ):
            with pytest.raises(DomainError, match="generator 'custom'"):
                generator("custom", **kwargs)
        assert generator("custom", **made, right_deriv_at_one=0.0).is_smooth

    def test_bool_scalars_refused(self):
        # True passed as 1: the mixture read P, the Poisson mass at rate 1
        # 0.3679 and the relative information atom 1
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.4, 0.6])
        with pytest.raises(DomainError, match="must be a real number"):
            mixture(p, q, True)
        with pytest.raises(DomainError, match="must be a real number"):
            PoissonModel(True)
        with pytest.raises(ValidationError, match="not an index"):
            relative_information(p, q, True)
        assert relative_information(p, q, 1) == math.log(0.3) - math.log(0.6)

    @pytest.mark.parametrize("k", [2.5, 20.5, "3", None, math.nan, math.inf, True, -1])
    def test_poisson_count_is_a_non_negative_int(self, k):
        # 2.5, "3" and None raised a raw TypeError; 20.5 read 2.7e-11, nan
        # and inf NaN, and True the mass at 1
        for call in (PoissonModel(3.0).pmf, PoissonModel(3.0).log_pmf):
            with pytest.raises(DomainError, match="non-negative integers"):
                call(k)
        with pytest.raises(DomainError, match="non-negative integers"):
            poisson_pmf(3.0, k)


class TestHellingerOrders:
    def test_small_order_tends_to_reverse_kl(self):
        # H_a / a -> KL(Q||P) as a -> 0; the closed form cancelled d to
        # ~1/a of its bits and read -2.8e-17 for H here
        p, q = _PAIRS[0]
        reverse_kl = divergence("kl", q, p).value
        for alpha in (1e-300, 1e-20, 1e-10):
            assert divergence("hellinger", p, q, alpha=alpha).value > 0.0
            got = divergence("alpha", p, q, alpha=alpha).value
            assert got == pytest.approx(reverse_kl, rel=1e-9)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-300])
    def test_subnormal_order_alpha_kind(self, alpha):
        # H_a underflows at these orders; H_a / a was taken after it had and
        # read 0.0 at 5e-324 and 1.4e-13 off at 1e-310
        p, q = _PAIRS[0]
        reverse_kl = pytest.approx(divergence("kl", q, p).value, rel=1e-15, abs=0.0)
        assert divergence("alpha", p, q, alpha=alpha).value == reverse_kl
        assert represent_named("alpha", p, q, alpha=alpha) == reverse_kl

    def test_alpha_kind_keeps_its_bits_at_special_orders(self):
        for p, q in _PAIRS[:2]:
            for alpha in (0.5, 1.0, 2.0):
                h = divergence("hellinger", p, q, alpha=alpha).value
                assert divergence("alpha", p, q, alpha=alpha).value == h / alpha

    def test_order_next_to_one_is_kl(self):
        # an atom with p/q below 1 + 2^-8 reads ln(p/q) from the masses;
        # (q (p/q)^a - p)/(a - 1) there lost every bit next to a = 1
        p = make_distribution([1.0, 1.0, 0.001953125])
        q = make_distribution([1.0, 1.0, 1.0])
        kl = divergence("kl", p, q).value
        for alpha in (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)):
            assert divergence("hellinger", p, q, alpha=alpha).value == pytest.approx(kl, rel=1e-14)
            assert divergence("renyi", p, q, alpha=alpha).value == pytest.approx(kl, rel=1e-14)

    def test_subnormal_masses(self):
        # p (e^((a-1) L) - 1) underflowed before its division by a - 1
        p = make_distribution([0.0, 1.0, 1e-310])
        q = make_distribution([0.0, 1.0, 5e-324])
        for kind in ("hellinger", "alpha"):
            assert divergence(kind, p, q, alpha=math.nextafter(1.0, 0.0)).value > 0.0

    def test_renyi_order_past_the_float_range(self):
        # a ln(p/q) passes the float range; the Renyi divergence is ~ln
        # max p/q, taken around the largest term on its own scale
        p, q = _PAIRS[3]
        for alpha in (1e306, 1.6e308):
            expected = math.log(0.5 / 1e-300)
            assert divergence("renyi", p, q, alpha=alpha).value == pytest.approx(expected, rel=1e-14)
            assert represent_named("renyi", p, q, alpha=alpha) == pytest.approx(expected, rel=1e-14)

    def test_order_past_the_series_coefficients(self):
        # the Hellinger series' coefficients overflow past order ~1e31; an
        # atom charged equally by both measures still adds nothing
        p, q = _PAIRS[1]
        for alpha in (1e35, 1e300):
            assert divergence("hellinger", p, p, alpha=alpha).value == 0.0
            assert divergence("hellinger", p, q, alpha=alpha).value == math.inf


class TestEGammaAtInfinity:
    def test_limit_is_the_p_mass_where_q_vanishes(self):
        # p - gamma q is NaN at gamma = inf and q = 0, whose positive part
        # read 0 and dropped the singular P-mass
        p, q = make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0])
        f = generator("e_gamma", gamma=math.inf)
        for gamma in (math.inf, 1e300):
            assert divergence("e_gamma", p, q, gamma=gamma).value == 0.5
        assert f_divergence(f, p, q).value == 0.5
        p2, q2 = _PAIRS[2]
        assert divergence("e_gamma", p2, q2, gamma=math.inf).value == 0.4
        assert f_divergence(f, *_PAIRS[0]).value == 0.0


class TestSharedCatalog:
    def test_families_without_a_parameter_are_shared(self):
        for family, pname in {(fam, pname) for fam, pname in KINDS.values() if fam}:
            if pname is None:
                assert generator(family) is generator(family)

    def test_typed_keeps_int_and_float_apart(self):
        as_int, as_float = generator("hellinger", alpha=2), generator("hellinger", alpha=2.0)
        assert as_int is not as_float
        assert repr(as_int.params) == "(('alpha', 2),)"
        assert repr(as_float.params) == "(('alpha', 2.0),)"
        assert generator("hellinger", alpha=2) is as_int
        p, q = _PAIRS[0]
        assert repr(divergence("hellinger", p, q, alpha=2).params) == "{'alpha': 2}"
        assert repr(divergence("hellinger", p, q, alpha=2.0).params) == "{'alpha': 2.0}"
        assert repr(f_divergence(as_int, p, q).params) == "{'alpha': 2}"

    def test_divergence_value_record(self):
        p, q = _PAIRS[0]
        val = divergence("e_gamma", p, q, gamma=1.5)
        assert isinstance(val, DivergenceValue)
        assert (val.kind, val.params) == ("e_gamma", {"gamma": 1.5})
        assert float(val) == val.value
        assert repr(val) == f"DivergenceValue(value={val.value!r}, kind='e_gamma', params={{'gamma': 1.5}})"
        with pytest.raises(AttributeError):
            val.value = 1.0  # type: ignore[misc]
