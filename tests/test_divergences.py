import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DiscreteDistribution,
    DomainError,
    UnknownKindError,
    ValidationError,
    affine_shift,
    conjugate,
    degroot_from_egamma,
    divergence,
    f_divergence,
    generator,
    make_distribution,
    mixture,
    renyi,
)
from divkit import distributions, divergences, local_limit_estimate, parse_generator
from divkit.generators import _FAMILIES, KINDS
from divkit.terms import _CACHE_SIZE, _edge_term, prior_scale
from helpers import (
    ORACLE_KINDS,
    brute_force_e_gamma,
    catalog_generators,
    multipass_f_divergence,
    outcome,
    random_pair,
    special_weights,
)

CATALOG = [
    ("kl", {}),
    ("jeffreys", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 2.0}),
    ("chi_s", {"s": 1.0}),
    ("chi_s", {"s": 3.0}),
    ("tv", {}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("js", {}),
    ("e_gamma", {"gamma": 1.5}),
    ("degroot", {"omega": 0.3}),
    ("chi2", {}),
]

_GEN_FOR_KIND = {
    "kl": ("kl", {}),
    "jeffreys": ("jeffreys", {}),
    "hellinger": ("hellinger", None),
    "chi_s": ("chi_s", None),
    "tv": ("total_variation", {}),
    "triangular": ("triangular", {}),
    "lin": ("lin", None),
    "js": ("jensen_shannon", {}),
    "e_gamma": ("e_gamma", None),
    "degroot": ("degroot", None),
    "chi2": ("chi_squared", {}),
}


def _generator_for(kind, params):
    family, fixed = _GEN_FOR_KIND[kind]
    return generator(family, **(params if fixed is None else fixed))


class TestFDivergence:
    def test_kl_bernoulli(self, bern_pair):
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        got = float(f_divergence(generator("kl"), *bern_pair))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.082283, abs=1e-6)

    @pytest.mark.parametrize("kind,params", CATALOG)
    def test_zero_iff_equal(self, kind, params):
        d = make_distribution([0.2, 0.5, 0.3])
        assert float(divergence(kind, d, d, **params)) == pytest.approx(0.0, abs=1e-15)

    def test_kl_point_mass(self):
        p = make_distribution([1, 0])
        q = make_distribution([0.5, 0.5])
        assert float(f_divergence(generator("kl"), p, q)) == pytest.approx(
            math.log(2), abs=1e-15
        )
        assert float(f_divergence(generator("kl"), q, p)) == math.inf

    def test_singular_split(self):
        # Q(p=0) f(0) + P(q=0) f*(0) with finite limits: total variation
        p = make_distribution([0.6, 0.4, 0])
        q = make_distribution([0.5, 0, 0.5])
        f = generator("total_variation")
        assert float(f_divergence(f, p, q)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kind,params", CATALOG)
    def test_mass_ratio_past_the_float_range(self, kind, params):
        # q = 1e-310 puts p/q = 5e309 past the float range at the second
        # atom; q = 1e-200 keeps p/q = 5e199 but puts (p/q)^2 past it;
        # p = 1e-10 over q = 1e-320 puts p/q past it while p (p/q) stays
        # inside
        half = make_distribution([0.5, 0.5])
        pairs = [(half, make_distribution([1.0 - tiny, tiny])) for tiny in (1e-310, 1e-200)]
        pairs.append(
            (make_distribution([1e-10, 1.0 - 1e-10]), make_distribution([1e-320, 1.0 - 1e-320]))
        )
        for p, q in pairs:
            direct = float(divergence(kind, p, q, **params))
            generic = float(f_divergence(_generator_for(kind, params), p, q))
            if math.isinf(direct):
                assert generic == direct
            else:
                assert generic == pytest.approx(direct, rel=1e-12)

    def test_term_finite_where_its_ratio_is_not(self):
        # p/q = 1e310 and, per unit of p, (p/q)^(alpha - 1) pass the float
        # range, but p ((p/q)^(alpha - 1) - 1)/(alpha - 1) ~ 1e300 does not;
        # at order 2 the Hellinger divergence is chi^2
        p = make_distribution([1e-10, 1.0 - 1e-10])
        q = make_distribution([1e-320, 1.0 - 1e-320])
        chi2 = float(divergence("chi2", p, q))
        assert chi2 == pytest.approx(1e-20 / q.masses[0], rel=1e-12)
        for value in (
            divergence("hellinger", p, q, alpha=2.0),
            f_divergence(generator("hellinger", alpha=2.0), p, q),
            2.0 * divergence("alpha", p, q, alpha=2.0).value,
        ):
            assert float(value) == pytest.approx(chi2, rel=1e-12)

    def test_kl_mass_ratio_past_the_float_range(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([1.0, 1e-310])
        expected = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(1e-310))
        assert float(divergence("kl", p, q)) == pytest.approx(expected, rel=1e-15)
        assert float(divergence("kl", p, q)) == pytest.approx(356.2075422, rel=1e-9)
        assert float(f_divergence(generator("kl"), p, q)) == pytest.approx(
            expected, rel=1e-15
        )
        shifted = affine_shift(generator("kl"), 2.0)
        assert float(f_divergence(shifted, p, q)) == pytest.approx(expected, rel=1e-12)

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            for kind, params in CATALOG:
                direct = float(divergence(kind, p, q, **params))
                generic = float(f_divergence(_generator_for(kind, params), p, q))
                assert abs(direct - generic) <= 1e-12 * max(1.0, abs(direct))


def _one_pass_pairs(rng):
    """Seeded pairs that reach every branch of the one-pass sum: zero
    masses on either side, disjoint supports, 1e-310 masses (the overflow
    fallback) and plain pairs."""
    pairs = []
    for i in range(160):
        n = int(rng.integers(2, 12))
        wp = rng.uniform(0.01, 1.0, size=n).tolist()
        wq = rng.uniform(0.01, 1.0, size=n).tolist()
        case = i % 4
        if case == 1:
            for w in (wp, wq):
                for j in rng.choice(n, size=int(rng.integers(0, n)), replace=False):
                    w[j] = 0.0
            wp[int(rng.integers(0, n))] = 0.5
            wq[int(rng.integers(0, n))] = 0.5
        elif case == 2:
            cut = int(rng.integers(1, n))
            wp = [w if j < cut else 0.0 for j, w in enumerate(wp)]
            wq = [0.0 if j < cut else w for j, w in enumerate(wq)]
        elif case == 3:
            for w in (wp, wq):
                if rng.random() < 0.8:
                    w[int(rng.integers(0, n))] = 1e-310
        pairs.append((make_distribution(wp), make_distribution(wq)))
    return pairs


class TestOnePass:
    """f_divergence takes every atom's term, singular parts included, in
    one fsum; so does the reference, from its own per-atom fallback, and the
    two agree bit for bit."""

    def test_bit_equal_to_multipass(self):
        # every generator on a pair, in both orders: the first sum of each
        # order that reads p - q keeps the differences, and the rest read them
        gens = catalog_generators()
        for p, q in _one_pass_pairs(np.random.default_rng(611)):
            for a, b in ((p, q), (q, p)):
                for f in gens:
                    assert outcome(f_divergence, f, a, b) == outcome(
                        multipass_f_divergence, f, a, b
                    ), (f.family, f.params, a.masses, b.masses)

    def test_reaches_the_overflow_fallback(self):
        # a 1e-310 mass under Q sends KL's fast sum to inf
        p = make_distribution([0.5, 0.5])
        q = make_distribution([1.0, 1e-310])
        f = generator("kl")
        assert math.isinf(math.fsum(qm * f(pm / qm) for pm, qm in zip(p.masses, q.masses)))
        assert math.isfinite(f_divergence(f, p, q).value)

    def test_mismatched_lengths_same_message(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([0.2, 0.3, 0.5])
        for f in catalog_generators():
            for a, b in ((p, q), (q, p)):
                with pytest.raises(ValidationError) as new:
                    f_divergence(f, a, b)
                with pytest.raises(ValidationError) as ref:
                    multipass_f_divergence(f, a, b)
                assert str(new.value) == str(ref.value)


def _dqp_e_gamma(gamma):
    """The E_gamma term in its former (d, q, p) form."""

    def term(d, q, p):
        x = p - gamma * q if q > 0.0 else p
        return x if x > 0.0 else 0.0

    return term


def _dqp_degroot(omega):
    """The DeGroot term in its former (d, q, p) form."""
    m, big, swap = prior_scale(omega)
    a, b = (-big, -m) if swap else (m, big)

    def term(d, q, p):
        x = a * p - b * q
        return x if x > 0.0 else 0.0

    return term


class TestMassOnlyTerms:
    """The E_gamma and DeGroot terms read (q, p) only, and agree bit for bit
    with their former (d, q, p) forms, atom by atom and summed."""

    def test_bit_equal_to_the_dqp_forms(self):
        terms = [(_FAMILIES["e_gamma"].term(g), _dqp_e_gamma(g)) for g in (1.0, 1.5, 4.0, 1e300, math.inf)]
        # priors on both sides of 1/2: the swapped ones read (-big) p - (-m) q
        terms += [
            (_FAMILIES["degroot"].term(w), _dqp_degroot(w))
            for w in (1e-300, 0.2, 0.5, 0.8, 1.0 - 2.0**-53)
        ]
        pairs = _special_pairs(np.random.default_rng(73), 60)
        for b, dqp in terms:
            assert b.reads == slice(1, 3)
            former = b._replace(term=dqp, reads=slice(3))
            for p, q in pairs:
                for a, c in ((p, q), (q, p)):
                    for pm, qm in zip(a.masses, c.masses):
                        assert b.term(*(pm - qm, qm, pm)[b.reads]) == dqp(pm - qm, qm, pm)
                        if pm > 0.0 < qm:
                            got = _edge_term(b, pm - qm, qm, pm)
                            assert got.hex() == _edge_term(former, pm - qm, qm, pm).hex()
                    got = divergences._shifted_sum(b, a.masses, c.masses)
                    assert got.hex() == divergences._shifted_sum(former, a.masses, c.masses).hex()


class TestNamedDivergences:
    def test_bernoulli_values(self, bern_pair):
        p, q = bern_pair
        assert float(divergence("tv", p, q)) == pytest.approx(0.4, abs=1e-15)
        assert float(divergence("chi2", p, q)) == pytest.approx(0.16, abs=1e-15)
        assert float(divergence("triangular", p, q)) == pytest.approx(
            0.04 / 1.2 + 0.04 / 0.8, abs=1e-15
        )
        assert float(divergence("js", p, q)) == pytest.approx(0.021006, abs=1e-6)
        assert float(divergence("e_gamma", p, q, gamma=1.2)) == pytest.approx(
            0.1, abs=1e-15
        )
        assert float(divergence("degroot", p, q, omega=0.45)) == pytest.approx(
            0.04, abs=1e-15
        )

    def test_jeffreys_is_symmetrized_kl(self, bern_pair):
        p, q = bern_pair
        expected = float(divergence("kl", p, q)) + float(divergence("kl", q, p))
        assert float(divergence("jeffreys", p, q)) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.169460, abs=1e-6)

    def test_hellinger_relations(self, bern_pair):
        p, q = bern_pair
        h2 = float(divergence("sq_hellinger", p, q))
        assert h2 == pytest.approx(
            0.5 * float(divergence("hellinger", p, q, alpha=0.5)), abs=1e-14
        )
        assert h2 == pytest.approx(0.021094, abs=1e-6)
        b = float(divergence("bhattacharyya", p, q))
        assert b == pytest.approx(math.log(1.0 / (1.0 - h2)), abs=1e-14)
        assert b == pytest.approx(0.021320, abs=1e-6)

    def test_alpha_divergence_scaling(self, bern_pair):
        p, q = bern_pair
        assert float(divergence("alpha", p, q, alpha=2.0)) == pytest.approx(
            0.5 * float(divergence("hellinger", p, q, alpha=2.0)), abs=1e-15
        )

    def test_hellinger_order_one_routes_to_kl(self, bern_pair):
        p, q = bern_pair
        assert float(divergence("hellinger", p, q, alpha=1.0)) == float(
            divergence("kl", p, q)
        )

    def test_unknown_kind(self, bern_pair):
        with pytest.raises(UnknownKindError):
            divergence("nope", *bern_pair)

    def test_e1_is_half_tv_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            e1 = float(divergence("e_gamma", p, q, gamma=1.0))
            tv = float(divergence("tv", p, q))
            assert abs(e1 - 0.5 * tv) <= 1e-15

    def test_e_gamma_matches_subset_maximization(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            p, q = random_pair(rng, n)
            for gamma in (1.0, 1.3, 2.0):
                fast = float(divergence("e_gamma", p, q, gamma=gamma))
                brute = brute_force_e_gamma(p, q, gamma)
                assert fast == brute  # same fsum over the same terms

    def test_triangular_chi2_mixture_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            delta = float(divergence("triangular", p, q))
            m = mixture(p, q, 0.5)
            chi = float(divergence("chi2", p, m))
            assert abs(0.5 * delta - chi) <= 1e-12

    def test_lin_as_mixture_entropies(self, bern_pair):
        p, q = bern_pair
        theta = 0.3
        m = mixture(p, q, theta)
        expected = theta * float(divergence("kl", p, m)) + (1 - theta) * float(
            divergence("kl", q, m)
        )
        assert float(divergence("lin", p, q, theta=theta)) == pytest.approx(
            expected, abs=1e-15
        )
        assert float(divergence("lin", p, q, theta=0.5)) == float(
            divergence("js", p, q)
        )


class TestKindTable:
    # one in-domain value per parameter name that KINDS uses
    VALUES = {"alpha": 0.5, "s": 2.0, "theta": 0.3, "gamma": 1.5, "omega": 0.3}

    def test_every_kind_dispatches(self, bern_pair):
        for kind, (_, pname) in KINDS.items():
            params = {} if pname is None else {pname: self.VALUES[pname]}
            result = divergence(kind, *bern_pair, **params)
            assert result.kind == kind
            assert result.value >= 0.0


class TestRenyi:
    def test_order_two(self, bern_pair):
        assert float(renyi(2.0, *bern_pair)) == pytest.approx(
            math.log(1.16), abs=1e-14
        )

    def test_order_one_is_kl(self, bern_pair):
        assert float(renyi(1.0, *bern_pair)) == float(divergence("kl", *bern_pair))

    def test_zero_for_equal(self):
        d = make_distribution([0.4, 0.6])
        assert float(renyi(0.5, d, d)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_domain(self, bern_pair, alpha):
        with pytest.raises(DomainError):
            renyi(alpha, *bern_pair)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(41)
        orders = (0.3, 0.7, 1.0, 1.5, 2.0, 4.0)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 6)))
            vals = [float(renyi(a, p, q)) for a in orders]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_infinite_above_one_under_singularity(self):
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0, 0.5, 0.5])
        assert float(renyi(2.0, p, q)) == math.inf

    def test_infinite_below_one_on_disjoint_supports(self):
        # masses summing to just under 1 put the Hellinger sum's
        # S = 1 + (alpha - 1) H a rounding above 0; the supports decide
        split = make_distribution(
            [0.7141294836112025, 0.9210986675838745, 0.3949634040007439, 0, 0, 0]
        ), make_distribution(
            [0, 0, 0, 0.8009087709852283, 0.44462105605076063, 0.9355867217045211]
        )
        assert math.fsum(split[0].masses) + math.fsum(split[1].masses) < 2.0
        short = DiscreteDistribution((0.5, 0.5 - 1e-13, 0.0))
        for p, q in (split, (short, DiscreteDistribution((0.0, 0.0, 1.0)))):
            assert float(divergence("bhattacharyya", p, q)) == math.inf
            for alpha in (0.3, 0.5, 0.9):
                assert float(renyi(alpha, p, q)) == math.inf

    def test_large_order_past_the_float_range(self, bern_pair):
        # 1.4^3000 overflows; D_alpha = ln(0.5 (1.4^a + 0.6^a)) / (a - 1)
        alpha = 3000.0
        expected = (alpha * math.log(1.4) + math.log(0.5)) / (alpha - 1.0)
        assert float(divergence("renyi", *bern_pair, alpha=alpha)) == pytest.approx(
            expected, rel=1e-13
        )
        assert float(divergence("hellinger", *bern_pair, alpha=alpha)) == math.inf
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0, 0.5, 0.5])
        assert float(renyi(alpha, p, q)) == math.inf

    def test_subnormal_mass_ratio_past_the_float_range(self):
        # p/q = 1e323 overflows to inf at the second atom
        p = make_distribution([0.5, 0.5])
        q = make_distribution([1.0, 5e-324])
        s = 0.5**0.5 + math.exp(0.5 * math.log(0.5) + 0.5 * math.log(5e-324))
        assert float(divergence("hellinger", p, q, alpha=0.5)) == pytest.approx(
            2.0 * (1.0 - s), rel=1e-14
        )
        assert float(renyi(0.5, p, q)) == pytest.approx(-2.0 * math.log(s), rel=1e-14)


class TestPriorScale:
    def test_sides(self):
        assert prior_scale(0.25) == (0.25, 0.75, False)
        assert prior_scale(0.5) == (0.5, 0.5, False)
        assert prior_scale(0.75) == (0.25, 0.75, True)

    @pytest.mark.parametrize("omega", [0.0, 1.0, -0.1, math.nan, math.inf])
    def test_refuses_outside_unit_interval(self, omega):
        with pytest.raises(DomainError):
            prior_scale(omega)


class TestDegrootFromEgamma:
    def test_below_half(self, bern_pair):
        got = float(degroot_from_egamma(0.45, *bern_pair))
        assert got == pytest.approx(0.04, abs=1e-15)
        assert got == pytest.approx(
            float(divergence("degroot", *bern_pair, omega=0.45)), abs=1e-12
        )

    def test_half_is_quarter_tv(self, bern_pair):
        assert float(degroot_from_egamma(0.5, *bern_pair)) == pytest.approx(
            0.1, abs=1e-15
        )

    def test_vanishes_when_gamma_exceeds_ratio(self, bern_pair):
        assert float(degroot_from_egamma(0.3, *bern_pair)) == 0.0

    def test_matches_direct_both_branches(self):
        rng = np.random.default_rng(43)
        for i in range(200):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            if i % 2:
                # near-equal pair, where min(w, 1-w) - sum(min) would cancel
                p = mixture(p, q, 10.0 ** rng.uniform(-8.0, -2.0))
            for omega in (0.2, 0.5, 0.8):
                via = float(degroot_from_egamma(omega, p, q))
                direct = float(divergence("degroot", p, q, omega=omega))
                assert abs(via - direct) <= 1e-12
                assert direct >= 0.0


def _copies(p, q):
    """Fresh records with the masses of P and Q, whose memos are empty."""
    return DiscreteDistribution(p.masses), DiscreteDistribution(q.masses)


def _special_pairs(rng, count=40):
    """Seeded pairs on the special-mass grid (``helpers.special_weights``)."""
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 10))
        pairs.append(tuple(make_distribution(special_weights(rng, n)) for _ in range(2)))
    return pairs


def _fresh_kind_sum(kind, params, ps, qs):
    """divergence(kind)'s value from fresh ``_shifted_sum`` calls on the
    masses, past the pair memo and its kept differences."""
    args = tuple(params.values())
    total = lambda b, pair: divergences._shifted_sum(b, pair[0], pair[1])
    mapped = divergences._HELLINGER_MAPS.get(kind)
    if mapped is None:
        return total(_FAMILIES[KINDS[kind][0]].term(*args), (ps, qs))
    return mapped(total, (ps, qs), *args)


@pytest.fixture
def pair_sums(monkeypatch):
    """The (P's masses, Q's masses) of every sum ``divergences`` takes."""
    calls = []
    take = divergences._shifted_sum

    def counting(b, ps, qs, ds=None):
        calls.append((ps, qs))
        return take(b, ps, qs, ds)

    monkeypatch.setattr(divergences, "_shifted_sum", counting)
    return calls


class TestPairSlot:
    """A pair's memo keeps each direct sum under its shifted term and
    orientation; a hit is the very float a fresh sum gives."""

    def test_kinds_hit_as_fresh_sums(self, pair_sums):
        rng = np.random.default_rng(59)
        for i in range(12):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            if i % 3 == 0:
                p = mixture(p, q, 10.0 ** rng.uniform(-8.0, -2.0))
            orders = ((p, q), (q, p))
            # each kind on records of its own, so no sum it reads is kept
            fresh = {
                (a, kind, str(params)): divergence(kind, *_copies(a, b), **params).value.hex()
                for a, b in orders
                for kind, params in ORACLE_KINDS
            }
            for a, b in orders:
                for kind, params in ORACLE_KINDS:
                    family = KINDS[kind][0]
                    if family is not None:
                        term = _FAMILIES[family].term(*params.values())
                        direct = divergences._shifted_sum(term, a.masses, b.masses)
                        assert divergence(kind, a, b, **params).value.hex() == direct.hex()
            del pair_sums[:]
            for _ in range(2):  # the orders alternate; every sum is kept
                for a, b in orders:
                    for kind, params in ORACLE_KINDS:
                        got = divergence(kind, a, b, **params).value.hex()
                        assert got == fresh[a, kind, str(params)], (kind, params)
            assert pair_sums == []

    def test_generators_hit_as_fresh_sums(self, pair_sums):
        rng = np.random.default_rng(61)
        gens = catalog_generators()
        for _ in range(10):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            for a, b in ((p, q), (q, p)):
                for f in gens:
                    want = divergences._shifted_sum(f._breg, a.masses, b.masses).hex()
                    assert f_divergence(f, a, b).value.hex() == want
                    del pair_sums[:]
                    assert f_divergence(f, a, b).value.hex() == want
                    assert f_divergence(f, *_copies(a, b)).value.hex() == want
                    assert len(pair_sums) == 1  # the copies' sum only

    def test_kept_differences_sum_as_fresh_sums(self, pair_sums):
        # on the special-mass grid, with both orders and repeated calls
        # interleaved on one pair: the first sum of each order that reads
        # p - q keeps the differences, the rest read them or their kept sums
        gens = catalog_generators()
        for p, q in _special_pairs(np.random.default_rng(67)):
            orders = ((p, q), (q, p))
            want = {
                (a is p, kind, str(params)): _fresh_kind_sum(kind, params, a.masses, b.masses)
                for a, b in orders
                for kind, params in ORACLE_KINDS
            }
            for _ in range(2):
                for a, b in orders:
                    for kind, params in ORACLE_KINDS:
                        got = divergence(kind, a, b, **params).value
                        assert got.hex() == want[a is p, kind, str(params)].hex(), (kind, params)
                    for f in gens:
                        fresh = divergences._shifted_sum(f._breg, a.masses, b.masses)
                        assert f_divergence(f, a, b).value.hex() == fresh.hex(), f.family
            entries = distributions._pair_slot(p, q)[2]
            assert [key for key in entries if key[0] == "diffs"] == [
                ("diffs", False), ("diffs", True)
            ]

    def test_one_kept_difference_list_per_orientation(self, monkeypatch):
        # a direct item's sums: kl makes the differences, and tv and chi2
        # read the same list; degroot, which reads the masses alone, makes none
        lists = []
        take = divergences._shifted_sum

        def recording(b, ps, qs, ds=None):
            lists.append(ds)
            return take(b, ps, qs, ds)

        monkeypatch.setattr(divergences, "_shifted_sum", recording)
        p, q = random_pair(np.random.default_rng(71), 1000)
        for kind, params in (("kl", {}), ("tv", {}), ("chi2", {}), ("degroot", {"omega": 0.3})):
            divergence(kind, p, q, **params)
        entries = distributions._pair_slot(p, q)[2]
        assert [key for key in entries if key[0] == "diffs"] == [("diffs", False)]
        ds = entries["diffs", False]
        assert len(lists) == 4 and all(x is ds for x in lists)
        assert ds == [pm - qm for pm, qm in zip(p.masses, q.masses)]
        # a pair read only by the mass-only terms keeps no differences
        r, s = _copies(p, q)
        divergence("degroot", r, s, omega=0.3)
        divergence("degroot", s, r, omega=0.8)
        divergence("e_gamma", r, s, gamma=2.0)
        degroot_from_egamma(0.7, r, s)
        f_divergence(generator("e_gamma", gamma=1.5), s, r)
        entries = distributions._pair_slot(r, s)[2]
        assert len(entries) == 5 and not [key for key in entries if key[0] == "diffs"]
        assert lists[4:] == [None] * 5

    def test_swap_aware_degroot(self, pair_sums):
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.2, 0.3, 0.5])
        for omega in (0.2, 0.5, 0.8):
            want = degroot_from_egamma(omega, *_copies(p, q)).value
            del pair_sums[:]
            for _ in range(2):
                assert degroot_from_egamma(omega, p, q).value == want
            assert pair_sums == [(q.masses, p.masses) if omega > 0.5 else (p.masses, q.masses)]
        # the reversed pair's sums leave the pair's memo
        divergence("kl", q, p)
        del pair_sums[:]
        degroot_from_egamma(0.8, p, q)
        assert pair_sums == []

    def test_refusals_raise_on_every_call(self, pair_sums):
        p, q, short = make_distribution([1, 3]), make_distribution([2, 1]), make_distribution([1])
        f = generator("kl")
        for _ in range(3):
            with pytest.raises(ValidationError):
                divergence("kl", p, short)
            with pytest.raises(ValidationError):
                f_divergence(f, p, list(q.masses))
            with pytest.raises(DomainError):
                renyi(-1.0, p, q)
            with pytest.raises(DomainError):
                divergence("hellinger", p, q, alpha=0.0)
            with pytest.raises(DomainError):
                degroot_from_egamma(1.5, p, q)
        divergence("kl", p, q)
        entries = distributions._pair_slot(p, q)[2]
        assert entries and all(type(total) is float for total, _ in entries.values())

    def test_order_sweep_stays_bounded(self, pair_sums):
        p, q = make_distribution([0.6, 0.3, 0.1]), make_distribution([0.2, 0.5, 0.3])
        sizes = []
        for k in range(1000):
            alpha = 0.05 + 0.01 * k
            got = divergence("hellinger", p, q, alpha=alpha).value
            sizes.append(len(distributions._pair_slot(p, q)[2]))
            assert divergence("hellinger", p, q, alpha=alpha).value == got
            fresh = divergences._shifted_sum(_FAMILIES["hellinger"].term(alpha), p.masses, q.masses)
            assert got.hex() == fresh.hex()
        assert max(sizes) == _CACHE_SIZE and min(sizes[_CACHE_SIZE:]) == 1


# certify-small's catalog in perfbench/workloads.py, on one pair: its
# kinds, the reversed sums of its bounds, Renyi at 1/2 and 2, the bound
# catalog's generators and a local limit's chi^2 target
_CERTIFY_KINDS = (
    [("kl", {}), ("jeffreys", {}), ("hellinger", {"alpha": 0.5}), ("hellinger", {"alpha": 2.0})]
    + [("chi2", {}), ("sq_hellinger", {}), ("bhattacharyya", {}), ("alpha", {"alpha": 0.5})]
    + [("chi_s", {"s": 1.5}), ("chi_s", {"s": 3.0}), ("tv", {}), ("triangular", {})]
    + [("lin", {"theta": 0.3}), ("js", {}), ("renyi", {"alpha": 0.5}), ("renyi", {"alpha": 2.0})]
    + [("e_gamma", {"gamma": g}) for g in (1.0, 1.2, 1.5, 2.0, 5.0)]
    + [("degroot", {"omega": w}) for w in (0.25, 0.3, 0.5, 0.75)]
)
_CERTIFY_FAMILIES = [
    ("kl", {}), ("jeffreys", {}), ("hellinger", {"alpha": 0.5}), ("hellinger", {"alpha": 2.0}),
    ("chi_squared", {}), ("chi_s", {"s": 3.0}), ("triangular", {}), ("lin", {"theta": 0.3}),
    ("jensen_shannon", {}), ("total_variation", {}), ("e_gamma", {"gamma": 2.0}),
    ("degroot", {"omega": 0.3}),
]


def test_certify_catalog_takes_each_pair_sum_once(pair_sums):
    # 43 sums, 22 of them distinct: the Hellinger maps read the Hellinger
    # 1/2 and chi^2 sums, renyi() and f_divergence repeat a kind's sum and
    # the local target takes chi^2 again
    p, q = make_distribution([0.5, 0.2, 0.3]), make_distribution([0.1, 0.6, 0.3])
    assert len(_CERTIFY_KINDS) == 25 and len(_CERTIFY_FAMILIES) == 12
    for kind, params in _CERTIFY_KINDS:
        divergence(kind, p, q, **params)
    for kind, params in (("kl", {}), ("chi2", {}), ("degroot", {"omega": 0.75})):
        divergence(kind, q, p, **params)
    for alpha in (0.5, 2.0):
        renyi(alpha, p, q)
    for family, params in _CERTIFY_FAMILIES:
        f_divergence(generator(family, **params), p, q)
    local_limit_estimate(parse_generator("kl"), p, q)
    direct = [pair for pair in pair_sums if pair in ((p.masses, q.masses), (q.masses, p.masses))]
    assert len(direct) == 22


class TestInvariances:
    def test_conjugate_duality(self):
        # D_{f*}(Q||P) sums the terms of D_f(P||Q): the same floats in one
        # fsum, also on near-equal mixtures, on zero and subnormal masses,
        # and where a pair charges a singular part
        rng = np.random.default_rng(47)
        pairs = [random_pair(rng, int(rng.integers(2, 7))) for _ in range(100)]
        for _ in range(40):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            pairs.append((mixture(p, q, 10.0 ** rng.uniform(-12.0, -1.0)), q))
        for _ in range(40):
            n = int(rng.integers(1, 6))
            pairs.append(tuple(make_distribution(special_weights(rng, n)) for _ in range(2)))
        # both singular parts charged: JS's first pass raises at p = 0 in
        # D_f's sum, where f*'s term takes the part at once
        pairs.append((make_distribution([0.0, 0.1, 0.1]), make_distribution([0.2, 0.0, 0.5])))
        gens = [_generator_for(kind, params) for kind, params in CATALOG] + catalog_generators()
        for p, q in pairs:
            for f in gens:
                fwd = float(f_divergence(f, p, q))
                rev = float(f_divergence(conjugate(f), q, p))
                assert fwd.hex() == rev.hex(), (f, p, q, fwd, rev)

    def test_affine_shift_invariance(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            c = float(rng.uniform(-5, 5))
            for kind, params in CATALOG:
                f = _generator_for(kind, params)
                base = float(f_divergence(f, p, q))
                shifted = float(f_divergence(affine_shift(f, c), p, q))
                assert abs(base - shifted) <= 1e-12


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
)
def test_nonnegativity_property(w1, w2):
    n = min(len(w1), len(w2))
    p = make_distribution(w1[:n])
    q = make_distribution(w2[:n])
    for kind, params in CATALOG:
        assert float(divergence(kind, p, q, **params)) >= -1e-14
