import math

import mpmath
import numpy as np
import pytest

from divkit import (
    AbsoluteContinuityError,
    CapabilityError,
    DiscreteDistribution,
    DomainError,
    KinkError,
    conjugate,
    divergence,
    f_divergence,
    g_eval,
    generator,
    make_distribution,
    represent_degroot_weight,
    represent_general,
    represent_inverse_g,
    represent_named,
    spectrum,
    spectrum_eval,
    spectrum_from_degroot,
    spectrum_from_egamma,
    spectrum_identity,
)
from divkit import quadrature
from divkit.distributions import _atoms, _build_spectrum, _pair_slot
from divkit.spectrum_repr import _g_sum
from helpers import (
    catalog_generators,
    catalog_terms,
    edge_list_g_sum,
    grouped_build_spectrum,
    log_segments,
    named_kernel,
    outcome,
    random_pair,
    reference_g_sum,
    special_weights,
    weight_kernel,
)
from test_oracle import oracle

SMOOTH = [
    ("kl", "kl", {}),
    ("jeffreys", "jeffreys", {}),
    ("hellinger", "hellinger", {"alpha": 0.5}),
    ("hellinger", "hellinger", {"alpha": 2.0}),
    ("chi_s", "chi_s", {"s": 3.0}),
    ("triangular", "triangular", {}),
    ("lin", "lin", {"theta": 0.3}),
    ("js", "jensen_shannon", {}),
]

NAMED_ENTRIES = [
    ("kl", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 2.0}),
    ("chi2", {}),
    ("sq_hellinger", {}),
    ("bhattacharyya", {}),
    ("renyi", {"alpha": 0.5}),
    ("renyi", {"alpha": 2.0}),
    ("chi_s", {"s": 1.5}),
    ("chi_s", {"s": 3.0}),
    ("tv", {}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("js", {}),
    ("jeffreys", {}),
    ("e_gamma", {"gamma": 1.0}),
    ("e_gamma", {"gamma": 1.5}),
    ("e_gamma", {"gamma": 3.0}),
    ("degroot", {"omega": 0.2}),
    ("degroot", {"omega": 0.5}),
    ("degroot", {"omega": 0.8}),
    # order 1: KL by analytic extension
    ("hellinger", {"alpha": 1.0}),
    ("renyi", {"alpha": 1.0}),
]


class TestSegments:
    # the reference segments between spectrum breakpoints, cut at 0, on
    # which every engine's kernel meets a constant F; ``_g_sum`` is held
    # bit-equal to the sum over them in TestGSumReference
    def test_bernoulli_segments(self, bern_pair):
        segs = log_segments(spectrum(*bern_pair))
        assert len(segs) == 2
        (x0, x1, c0), (x2, x3, c1) = segs
        assert math.exp(x0) == pytest.approx(0.6, rel=1e-15)
        assert x1 == 0.0 == x2
        assert math.exp(x3) == pytest.approx(1.4, rel=1e-15)
        assert c0 == c1 == 0.3  # F on both sides of 1

    def test_identical_distributions(self):
        d = make_distribution([0.5, 0.5])
        assert log_segments(spectrum(d, d)) == []

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            for _, _, cval in log_segments(spectrum(p, q)):
                assert 0.0 <= cval <= 1.0


def _g_sum_pairs(rng, family):
    """Weights (wp, wq) of one sweep family."""
    n = int(rng.integers(1, 10))
    u = rng.uniform(0.01, 1.0, size=n).tolist()
    if family == "uniform":
        return u, rng.uniform(0.01, 1.0, size=n).tolist()
    if family == "special":
        return special_weights(rng, n), special_weights(rng, n)
    if family == "equal":
        return u, list(u)
    if family == "zero_breakpoint":
        # one multiset of weights, so equal sums: the last atom sits at x = 0
        m = rng.uniform(0.01, 1.0)
        return u + [m], u[::-1] + [m]
    if family in ("above", "below"):
        # Q-mass off P's support puts every shared ratio above 0
        wp, wq = u + [0.0], [w * rng.uniform(0.1, 0.9) for w in u] + [sum(u)]
        return (wp, wq) if family == "above" else (wq, wp)
    if family == "far":
        pool = (1.0, 0.5, 1e-310, 1e-300, 5e-324)
        draw = lambda: [pool[int(rng.integers(5))] for _ in range(n)] + [1.0]
        return draw(), draw()
    if family == "single_shared":
        return [1.0] + [0.0] * n, [rng.uniform(0.01, 1.0)] + u
    if family == "disjoint":
        return u + [0.0] * n, [0.0] * n + u
    raise AssertionError(family)


_G_SUM_FAMILIES = (
    "uniform", "special", "equal", "zero_breakpoint", "above", "below",
    "far", "single_shared", "disjoint",
)


def _g_sum_sweep(family):
    """40 seeded spectra of one family."""
    rng = np.random.default_rng([22, _G_SUM_FAMILIES.index(family)])
    return [
        spectrum(*map(make_distribution, _g_sum_pairs(rng, family))) for _ in range(40)
    ]


class TestGSumReference:
    # _g_sum walks the breakpoints once with 0 inserted; the reference sums
    # the same pieces over the cut segments with the stretch to 0 prepended
    # or appended, and the two agree bit for bit, refusals included

    @pytest.mark.parametrize("family", _G_SUM_FAMILIES)
    def test_bit_equal(self, family):
        bregs = [g._breg for g in catalog_generators()]
        for spec in _g_sum_sweep(family):
            for b in bregs:
                assert outcome(_g_sum, b, spec) == outcome(reference_g_sum, b, spec), (family, spec)

    def test_sweep_reaches_every_case(self):
        cases = {
            "empty": lambda s: not s.breakpoints,
            "at_zero": lambda s: 0.0 in s.breakpoints and len(s.breakpoints) > 1,
            "all_above": lambda s: s.breakpoints and s.breakpoints[0] > 0.0,
            "all_below": lambda s: s.breakpoints and s.breakpoints[-1] < 0.0,
            "past_709": lambda s: any(abs(x) > 709.0 for x in s.breakpoints),
            "tiny_mass": lambda s: s.cum_masses and s.cum_masses[0] < 1e-299,
            "singular": lambda s: s.singular_mass_p or s.singular_mass_q,
        }
        specs = [s for family in _G_SUM_FAMILIES for s in _g_sum_sweep(family)]
        assert {name for name, hit in cases.items() if any(map(hit, specs))} == set(cases)


def _bits_weights(rng, mode):
    """One weight list of the bit-pinning sweep, on n in [1, 120] atoms."""
    n = int(rng.integers(1, 121))
    if mode == "special":
        return special_weights(rng, n - 1)
    if mode == "ties":
        return rng.integers(1, 4, size=n).astype(float).tolist()
    if mode == "far":
        pool = (1.0, 0.5, 1e-310, 1e-300, 5e-324, 1e-30)
        return [pool[int(rng.integers(6))] for _ in range(n - 1)] + [1.0]
    return rng.uniform(0.01, 1.0, size=n).tolist()


def _bits_specs(mode, count=60):
    """(atoms, spectrum) of ``count`` seeded pairs of one mode, both orders."""
    rng = np.random.default_rng([28, _BITS_MODES.index(mode)])
    out = []
    for _ in range(count):
        wp = _bits_weights(rng, mode)
        wq = _bits_weights(rng, mode)[: len(wp)]
        wq += [1.0] * (len(wp) - len(wq))
        p, q = make_distribution(wp), make_distribution(wq)
        for pair in (_pair_slot(p, q), _pair_slot(q, p)):
            atoms = _atoms(pair)
            out.append((atoms, _build_spectrum(atoms)))
    return out


_BITS_MODES = ("uniform", "special", "ties", "far")


def _spec_hex(spec):
    return [[x.hex() for x in spec.breakpoints], [v.hex() for v in spec.cum_masses],
            spec.singular_mass_p.hex(), spec.singular_mass_q.hex()]


class TestKeyedSortOnePassBits:
    # the keyed-sort spectrum build and the one-pass _g_sum against their
    # earlier forms (helpers.grouped_build_spectrum, edge_list_g_sum): the
    # same floats bit for bit, refusals included, on seeded pairs with
    # special masses, tie-heavy weights and log-ratios past +-700

    @pytest.mark.parametrize("mode", _BITS_MODES)
    def test_spectrum_bit_equal(self, mode):
        for atoms, spec in _bits_specs(mode):
            assert _spec_hex(spec) == _spec_hex(grouped_build_spectrum(atoms))

    @pytest.mark.parametrize("mode", _BITS_MODES)
    def test_g_sum_bit_equal(self, mode):
        terms = catalog_terms()
        for _, spec in _bits_specs(mode, count=30):
            for b in terms:
                got = outcome(_g_sum, b, spec)
                assert got == outcome(edge_list_g_sum, b, spec), (mode, spec, b)

    def test_sweep_reaches_every_case(self):
        specs = {mode: _bits_specs(mode, count=30) for mode in _BITS_MODES}
        every = [s for found in specs.values() for s in found]
        # ties merged, a breakpoint past +700 and one below -700, a singular mass
        assert any(len(s.breakpoints) < len(atoms[1]) for atoms, s in specs["ties"])
        assert any(s.breakpoints and s.breakpoints[-1] > 700.0 for _, s in every)
        assert any(s.breakpoints and s.breakpoints[0] < -700.0 for _, s in every)
        assert any(s.singular_mass_p and s.singular_mass_q for _, s in every)
        assert any(len(s.breakpoints) > 100 for _, s in every)

    def test_all_tied_pair(self):
        # P = Q on 2000 atoms: one tie group at 0, whose fsum is 1
        p = make_distribution(np.random.default_rng(28).uniform(0.01, 1.0, 2000).tolist())
        atoms = _atoms(_pair_slot(p, p))
        spec = _build_spectrum(atoms)
        assert spec.breakpoints == (0.0,) and spec.cum_masses == (1.0,)
        assert _spec_hex(spec) == _spec_hex(grouped_build_spectrum(atoms))
        for b in catalog_terms():
            assert outcome(_g_sum, b, spec) == outcome(edge_list_g_sum, b, spec)


class TestRepresentGeneral:
    def test_kl_bernoulli(self, bern_pair):
        # oracle: signed 1/beta kernel integrates segment-wise to
        # 0.7 ln 1.4 + 0.3 ln 0.6
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        got = represent_general(generator("kl"), *bern_pair, c=1.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_equal_distributions(self):
        d = make_distribution([0.3, 0.7])
        assert represent_general(generator("chi_squared"), d, d, c=5.0) == 0.0

    def test_hellinger2_matches_chi2(self, bern_pair):
        got = represent_general(generator("hellinger", alpha=2.0), *bern_pair, c=1.0)
        assert got == pytest.approx(0.16, abs=1e-10)

    def test_kinked_rejected(self, bern_pair):
        with pytest.raises(KinkError):
            represent_general(generator("total_variation"), *bern_pair)

    def test_singular_rejected(self):
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0.25, 0.25, 0.5])
        with pytest.raises(AbsoluteContinuityError):
            represent_general(generator("kl"), p, q)

    def test_c_independence(self):
        # the c part integrates to exactly 0 under mutual continuity, so
        # every finite c gives the inverse-g engine's float
        rng = np.random.default_rng(61)
        f = {name: generator(fam, **pr) for name, fam, pr in SMOOTH}
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 6)))
            for gen in f.values():
                ref = represent_inverse_g(gen, p, q)
                for c in (-1e300, -2.0, 0.0, 1.0, 5.0, 1e20):
                    assert represent_general(gen, p, q, c=c) == ref, (gen.family, c)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, True, "1", 10**400])
    def test_c_not_a_finite_real_refused(self, bern_pair, c):
        with pytest.raises(DomainError):
            represent_general(generator("kl"), *bern_pair, c=c)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            for _, fam, pr in SMOOTH:
                gen = generator(fam, **pr)
                direct = float(f_divergence(gen, p, q))
                rep = represent_general(gen, p, q, c=1.0)
                assert abs(rep - direct) <= 1e-12 * max(1.0, direct)

    def test_kernel_quadrature_oracle(self):
        # the paper's integral itself: mpmath.quad of w_{f,c}(beta) G(beta)
        # over each segment between the sorted ratios and 1
        rng = np.random.default_rng(101)
        for _ in range(10):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            ratios = sorted({pm / qm for pm, qm in zip(p.masses, q.masses)} | {1.0})
            with mpmath.mp.workdps(40):
                # G on each segment: F below 1, 1 - F above, F(beta) the
                # P-mass of the ratios up to beta
                segs = []
                for lo, hi in zip(ratios, ratios[1:]):
                    below = mpmath.fsum(
                        pm for pm, qm in zip(p.masses, q.masses)
                        if mpmath.mpf(pm) / qm <= (lo + hi) / 2
                    )
                    segs.append((lo, hi, below if hi <= 1 else 1 - below))
            for _, fam, pr in SMOOTH:
                gen = generator(fam, **pr)
                for c in (0.0, 1.0):
                    # the kernel in 40 digits, each segment's integral to 20
                    with mpmath.mp.workdps(20):
                        ref = mpmath.fsum(
                            big_g * mpmath.quad(
                                lambda b: weight_kernel(gen, b, c), [lo, hi],
                                method="gauss-legendre",
                            )
                            for lo, hi, big_g in segs
                        )
                    rep = represent_general(gen, p, q, c=c)
                    assert abs(rep - ref) <= 1e-12 * max(1, ref), (fam, c, rep, ref)

    def test_near_equal_pairs_against_oracle(self):
        # lam P + (1 - lam) Q against Q, where the values are as small as
        # lam^2 and g near 0 must not cancel
        rng = np.random.default_rng(103)
        for _ in range(40):
            n = int(rng.integers(2, 33))
            p0, q = random_pair(rng, n)
            lam = 10.0 ** rng.uniform(-7.0, -2.0)
            p = make_distribution(
                [lam * a + (1.0 - lam) * b for a, b in zip(p0.masses, q.masses)]
            )
            for kind, fam, pr in SMOOTH:
                ref = oracle(kind, pr, p.masses, q.masses)
                gen = generator(fam, **pr)
                conj = conjugate(gen)  # D_{f*}(Q||P), from the same terms
                for got in (
                    represent_inverse_g(gen, p, q),
                    represent_general(gen, p, q),
                    represent_inverse_g(conj, q, p),
                    represent_general(conj, q, p),
                ):
                    assert abs(got - ref) <= 1e-8 * ref, (kind, lam, got, float(ref))

    def test_no_quadrature(self, monkeypatch, bern_pair, trinomial_pair):
        calls = [0]
        integrate = quadrature.integrate

        def counting_integrate(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr("divkit.spectrum_repr.integrate", counting_integrate)
        represent_degroot_weight(generator("kl"), *bern_pair)
        assert calls[0] > 0  # the counter sees the engine that integrates
        calls[0] = 0
        for pair in (bern_pair, trinomial_pair):
            for _, fam, pr in SMOOTH:
                represent_general(generator(fam, **pr), *pair, c=1.0)
                represent_inverse_g(generator(fam, **pr), *pair)
        assert calls[0] == 0


class TestLogRatioPastTheFloatRange:
    # P = (1/2, 1/2) against Q = (1, 1e-310) and the swapped pair: one
    # log-ratio near +713 or -712, where e^x or e^-x leaves the float range
    PAIRS = [
        (make_distribution([0.5, 0.5]), make_distribution([1.0, 1e-310])),
        (make_distribution([1.0, 1e-310]), make_distribution([0.5, 0.5])),
    ]
    FAMILIES = [
        ("kl", {}),
        ("chi_squared", {}),
        ("hellinger", {"alpha": 0.5}),
        ("hellinger", {"alpha": 3.0}),
        ("triangular", {}),
        ("jensen_shannon", {}),
        ("jeffreys", {}),
    ]

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_engines_match_direct(self, family, params):
        gen = generator(family, **params)
        for p, q in self.PAIRS:
            direct = float(f_divergence(gen, p, q))
            for engine in (represent_inverse_g, represent_general):
                got = engine(gen, p, q)
                if direct == math.inf:
                    assert got == math.inf, (engine.__name__, got)
                else:
                    assert abs(got - direct) <= 1e-12 * direct, (engine.__name__, got, direct)
            assert represent_general(gen, p, q, c=1.0) == pytest.approx(
                represent_general(gen, p, q), rel=1e-12
            )

    @pytest.mark.parametrize("kind", ["kl", "chi2", "jeffreys"])
    def test_named_matches_direct(self, kind):
        for p, q in self.PAIRS:
            direct = float(divergence(kind, p, q))
            got = represent_named(kind, p, q)
            if direct == math.inf:
                assert got == math.inf
            else:
                assert abs(got - direct) <= 1e-12 * direct, (got, direct)

    def test_named_values(self):
        fwd, swapped = self.PAIRS
        assert represent_named("kl", *fwd) == pytest.approx(356.2075422335172, rel=1e-12)
        assert represent_named("jeffreys", *swapped) == pytest.approx(356.9006894140771, rel=1e-12)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("hellinger", {"alpha": 0.999}),
            ("renyi", {"alpha": 0.999}),
            ("e_gamma", {"gamma": 1e300}),
            ("degroot", {"omega": 1e-300}),
        ],
    )
    def test_slow_limits(self, kind, params):
        # one log-ratio near 702 or 713, where g still differs from its
        # limit f*(0) - c by about e^(-0.001 x) or gamma e^-x; past x = 700
        # the engines read the term from x, and past 709.78 so does the
        # direct sum
        for q_tail in (1e-305, 1e-310):
            p, q = make_distribution([0.5, 0.5]), make_distribution([1.0 - q_tail, q_tail])
            ref = oracle(kind, params, p.masses, q.masses)
            for got in (represent_named(kind, p, q, **params), float(divergence(kind, p, q, **params))):
                assert abs(got - ref) <= 1e-12 * ref, (q_tail, got, float(ref))


class TestRepresentInverseG:
    def test_chi_squared(self, bern_pair):
        got = represent_inverse_g(generator("chi_squared"), *bern_pair)
        assert got == pytest.approx(0.16, rel=1e-12)

    def test_kl(self, bern_pair):
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        got = represent_inverse_g(generator("kl"), *bern_pair)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_equal_distributions(self):
        d = make_distribution([0.5, 0.5])
        assert represent_inverse_g(generator("chi_squared"), d, d) == 0.0

    def test_trinomial_jeffreys(self, trinomial_pair):
        p, q = trinomial_pair
        direct = float(f_divergence(generator("jeffreys"), p, q))
        got = represent_inverse_g(generator("jeffreys"), p, q)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_every_ratio_above_one(self):
        # masses within the normalization tolerance of 1 can put every
        # ratio above 1; then 1 - F(l1(t)) = 1 on all of [0, g(x)]
        p = DiscreteDistribution((0.5000000000000001, 0.5000000000000001))
        q = make_distribution([0.5, 0.5])
        x = math.log(p[0]) - math.log(q[0])
        f = generator("kl")
        assert x > 0.0
        assert represent_inverse_g(f, p, q) == g_eval(f, x)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 65)))
            for _, family, params in SMOOTH:
                gen = generator(family, **params)
                direct = float(f_divergence(gen, p, q))
                got = represent_inverse_g(gen, p, q)
                assert abs(got - direct) <= 1e-12 * max(1.0, direct), family


class TestRepresentNamed:
    def test_bernoulli_tv(self, bern_pair):
        # oracle: single segment [1, 1.4]: 2 * 0.7 * (1 - 1/1.4)
        assert represent_named("tv", *bern_pair) == pytest.approx(
            2 * 0.7 * (1 - 1 / 1.4), abs=1e-12
        )

    def test_bernoulli_chi2(self, bern_pair):
        # oracle: integral of (1 - F) minus 1: 0.6 + 0.8*0.7 - 1
        assert represent_named("chi2", *bern_pair) == pytest.approx(0.16, abs=1e-12)

    def test_e_gamma_vanishes_beyond_max_ratio(self, bern_pair):
        assert represent_named("e_gamma", *bern_pair, gamma=2.0) == 0.0

    def test_bernoulli_degroot(self, bern_pair):
        # oracle: 0.55 * int_{11/9}^{1.4} 0.7 / beta^2
        thr = (1 - 0.45) / 0.45
        expected = 0.55 * 0.7 * (1 / thr - 1 / 1.4)
        assert represent_named("degroot", *bern_pair, omega=0.45) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("kind,params", NAMED_ENTRIES)
    def test_matches_direct(self, kind, params):
        rng = np.random.default_rng(73)
        for _ in range(30):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            direct = float(divergence(kind, p, q, **params))
            rep = represent_named(kind, p, q, **params)
            assert abs(rep - direct) <= 1e-11 * max(1.0, direct)

    def test_renyi_large_order(self, bern_pair):
        # S = sum q (p/q)^3000 passes the float range; ln S is then a
        # log-sum-exp over the pair's masses
        got = represent_named("renyi", *bern_pair, alpha=3000.0)
        assert abs(got - 0.3363533053294694) <= 1e-12

    def test_renyi_large_order_keeps_a_jump_below_an_ulp_of_the_cdf(self):
        # the 1e-20 atom sets the Renyi divergence of order 3000; its jump in
        # the spectrum's CDF, read as the difference of two rounded prefixes
        # at F = 1, was 0, and the log-sum-exp read 0.4053
        p = make_distribution([0.6, 0.4, 1e-20])
        q = make_distribution([0.4, 0.6, 1e-30])
        direct = divergence("renyi", p, q, alpha=3000.0).value
        assert direct == pytest.approx(23.0104952440919, rel=1e-12)
        got = represent_named("renyi", p, q, alpha=3000.0)
        assert abs(got - direct) <= 1e-12 * direct

    def test_degroot_continuous_at_half(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 6)))
            below = represent_named("degroot", p, q, omega=0.5 - 1e-9)
            above = represent_named("degroot", p, q, omega=0.5 + 1e-9)
            assert abs(below - above) <= 1e-6

    def test_one_sided_continuity_relaxations(self):
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0.25, 0.25, 0.5])
        # P << Q: E_gamma and low-omega DeGroot formulas stay valid
        assert represent_named("e_gamma", p, q, gamma=1.0) == pytest.approx(
            float(divergence("e_gamma", p, q, gamma=1.0)), abs=1e-12
        )
        assert represent_named("degroot", p, q, omega=0.3) == pytest.approx(
            float(divergence("degroot", p, q, omega=0.3)), abs=1e-12
        )
        # the omega > 1/2 branch consumes the other tail: refuse
        with pytest.raises(AbsoluteContinuityError):
            represent_named("degroot", p, q, omega=0.75)
        # swapped pair: E_gamma needs P << Q, which now fails
        with pytest.raises(AbsoluteContinuityError):
            represent_named("e_gamma", q, p, gamma=1.5)
        # two-tail formulas refuse outright
        with pytest.raises(AbsoluteContinuityError):
            represent_named("chi2", p, q)


class TestNamedKernels:
    # represent_named and divergence() read one table of shifted terms, so
    # comparing them cannot catch a wrong term; the paper's per-kind kernels
    # (helpers.named_kernel), integrated by mpmath.quad against the
    # spectrum's step function segment by segment, can
    ENTRIES = [
        ("kl", {}),
        ("jeffreys", {}),
        ("chi2", {}),
        ("tv", {}),
        ("e_gamma", {"gamma": 1.5}),
        ("e_gamma", {"gamma": 3.0}),
        ("degroot", {"omega": 0.3}),
        ("degroot", {"omega": 0.7}),
        ("triangular", {}),
        ("lin", {"theta": 0.3}),
        ("js", {}),
        ("hellinger", {"alpha": 0.5}),
        ("hellinger", {"alpha": 2.0}),
    ]

    @pytest.mark.parametrize("kind,params", ENTRIES)
    def test_matches_kernel_quadrature(self, kind, params):
        rng = np.random.default_rng(107)
        const, pieces = named_kernel(kind, **params)
        for _ in range(4):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            with mpmath.mp.workdps(40):
                atoms = [(mpmath.mpf(pm) / qm, pm) for pm, qm in zip(p.masses, q.masses)]
                ref = mpmath.mpf(const)
                for lo, hi, kernel, side in pieces:
                    cuts = sorted({lo, hi} | {r for r, _ in atoms if lo < r < hi})
                    for a, b in zip(cuts, cuts[1:]):
                        # G between two cuts: P-mass above or up to the ratios
                        inside = a + 1 if b == mpmath.inf else (a + b) / 2
                        big_g = mpmath.fsum(
                            pm for r, pm in atoms if (r > inside) == (side == "tail")
                        )
                        if big_g:
                            ref += big_g * mpmath.quad(kernel, [a, b])
            rep = represent_named(kind, p, q, **params)
            assert abs(rep - ref) <= 1e-13 * ref, (kind, rep, float(ref))


class TestSkewedMasses:
    def test_engines_survive_large_ratios(self):
        # likelihood ratios up to ~1e6; the named and general engines'
        # exact g-increment sums must both hold the oracle tolerance
        rng = np.random.default_rng(999)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = make_distribution((10.0 ** rng.uniform(-6, 0, n)).tolist())
            q = make_distribution((10.0 ** rng.uniform(-6, 0, n)).tolist())
            for kind, params in [
                ("kl", {}),
                ("chi2", {}),
                ("hellinger", {"alpha": 0.5}),
                ("tv", {}),
                ("js", {}),
                ("e_gamma", {"gamma": 1.5}),
            ]:
                direct = float(divergence(kind, p, q, **params))
                rep = represent_named(kind, p, q, **params)
                assert abs(rep - direct) <= 1e-8 * max(1.0, direct)
            for fam, params in [("kl", {}), ("hellinger", {"alpha": 2.0})]:
                gen = generator(fam, **params)
                direct = float(f_divergence(gen, p, q))
                rep = represent_general(gen, p, q, c=1.0)
                assert abs(rep - direct) <= 1e-8 * max(1.0, direct)


class TestSpectrumIdentity:
    def test_bernoulli_two_segment_oracle(self, bern_pair):
        # antiderivative of 1/beta^2 over [0.6, 1.4) plus the tail:
        # 0.3 (1/0.6 - 1/1.4) + 1/1.4 == 1
        oracle = 0.3 * (1 / 0.6 - 1 / 1.4) + 1 / 1.4
        assert oracle == pytest.approx(1.0, abs=1e-15)
        assert spectrum_identity(*bern_pair) == pytest.approx(1.0, abs=1e-12)

    def test_equal_distributions(self):
        d = make_distribution([0.5, 0.5])
        assert spectrum_identity(d, d) == pytest.approx(1.0, abs=1e-15)

    def test_trinomial(self, trinomial_pair):
        assert spectrum_identity(*trinomial_pair) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "pm, qm",
        [
            # a ratio near +-713, past where e^-x leaves the float range
            ((0.5, 0.5), (1.0, 1e-310)),
            ((1.0, 1e-310), (0.5, 0.5)),
            # masses down to the least subnormals on both sides
            ((1e-300, 1.0, 5e-324), (1.0, 1e-300, 1e-320)),
        ],
    )
    def test_ratios_past_the_float_range(self, pm, qm):
        got = spectrum_identity(make_distribution(pm), make_distribution(qm))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_holds_with_p_singular(self):
        # Q << P is what the expectation argument needs; P-singular mass
        # only lowers sup F, which the tail term tracks
        p = make_distribution([0.25, 0.25, 0.5])
        q = make_distribution([0.5, 0.5, 0])
        assert spectrum_identity(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_q_singular(self):
        # with Q-mass off P's support the integral equals Q(p>0) < 1
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0.25, 0.25, 0.5])
        with pytest.raises(AbsoluteContinuityError):
            spectrum_identity(p, q)


class TestSpectrumReconstruction:
    def test_egamma_examples(self, bern_pair):
        p, q = bern_pair
        assert spectrum_from_egamma(p, q, 0.0) == pytest.approx(0.3, abs=1e-14)
        assert spectrum_from_egamma(p, q, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert spectrum_from_egamma(p, q, -1.0) == pytest.approx(0.0, abs=1e-14)
        # past |x| = 709.78 exp(|x|) overflows; the CDF is saturated there
        for x in (710.0, 800.0):
            assert spectrum_from_egamma(p, q, x) == 1.0
            assert spectrum_from_egamma(p, q, -x) == 0.0

    def test_degroot_examples(self, bern_pair):
        p, q = bern_pair
        assert spectrum_from_degroot(p, q, 0.0) == pytest.approx(0.3, abs=1e-14)
        assert spectrum_from_degroot(p, q, math.log(2)) == pytest.approx(
            1.0, abs=1e-14
        )
        d = make_distribution([0.5, 0.5])
        assert spectrum_from_degroot(d, d, 0.1) == pytest.approx(1.0, abs=1e-14)

    def test_degroot_answers_past_700(self):
        # x is the prior's log-odds, so no prior is solved from it; the
        # second pair has an atom at ln(0.5/1e-310) ~ 713.1, where the CDF
        # steps from 0.5 to 1
        for pm, qm in [((0.7, 0.3), (0.5, 0.5)), ((0.5, 0.5), (1.0, 1e-310))]:
            p, q = make_distribution(pm), make_distribution(qm)
            s = spectrum(p, q)
            for x in (701.0, -701.0, 712.0, 714.0, 800.0, -800.0):
                assert spectrum_from_degroot(p, q, x) == spectrum_eval(s, x), (pm, x)
        assert [spectrum_from_degroot(p, q, x) for x in (712.0, 714.0)] == [0.5, 1.0]

    @pytest.mark.parametrize("reconstruct", [spectrum_from_egamma, spectrum_from_degroot])
    def test_nan_refused_and_infinities_saturate(self, bern_pair, reconstruct):
        with pytest.raises(DomainError):
            reconstruct(*bern_pair, math.nan)
        assert reconstruct(*bern_pair, math.inf) == 1.0
        assert reconstruct(*bern_pair, -math.inf) == 0.0

    def test_matches_cdf_at_continuity_points(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            s = spectrum(p, q)
            lo, hi = s.breakpoints[0] - 0.5, s.breakpoints[-1] + 0.5
            for _ in range(100):
                x = float(rng.uniform(lo, hi))
                if any(abs(x - b) < 1e-9 for b in s.breakpoints):
                    continue
                ref = spectrum_eval(s, x)
                assert abs(spectrum_from_egamma(p, q, x) - ref) <= 1e-12
                assert abs(spectrum_from_degroot(p, q, x) - ref) <= 1e-12

    def test_e_gamma_monotone_with_nonpositive_slope(self, bern_pair):
        p, q = bern_pair
        gammas = np.linspace(1.0, 3.0, 50)
        vals = [float(divergence("e_gamma", p, q, gamma=float(g))) for g in gammas]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        for g in gammas:
            slope = -math.fsum(
                qm for pm, qm in zip(p.masses, q.masses) if pm > float(g) * qm
            )
            assert slope <= 0.0

    def test_singular_rejected(self):
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0.25, 0.25, 0.5])
        with pytest.raises(AbsoluteContinuityError):
            spectrum_from_egamma(p, q, 0.1)
        with pytest.raises(AbsoluteContinuityError):
            spectrum_from_degroot(p, q, 0.1)


class TestDegrootWeightRepresentation:
    def test_chi_squared(self, bern_pair):
        got = represent_degroot_weight(generator("chi_squared"), *bern_pair)
        assert got == pytest.approx(0.16, rel=1e-9)

    def test_kl(self, bern_pair):
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        got = represent_degroot_weight(generator("kl"), *bern_pair)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_equal_distributions(self):
        d = make_distribution([0.4, 0.6])
        assert represent_degroot_weight(generator("kl"), d, d) == 0.0

    def test_requires_second_derivative(self, bern_pair):
        with pytest.raises(CapabilityError):
            represent_degroot_weight(generator("total_variation"), *bern_pair)

    @pytest.mark.parametrize("tiny", [1e-310, math.exp(-250)], ids=["1e-310", "e^-250"])
    @pytest.mark.parametrize("family", ["kl", "chi_squared"])
    def test_extreme_log_ratio_refused(self, family, tiny):
        # e^x of the breakpoint ~713 raised OverflowError, and a node's
        # omega^3 underflowing from a log-ratio of ~250 up ZeroDivisionError;
        # the prior cuts come from e^-x above 0, so both end at the cube
        p = make_distribution([0.5, 0.5])
        for q in (make_distribution([tiny, 1.0]), make_distribution([1.0, tiny])):
            with pytest.raises(DomainError, match="cube underflows"):
                represent_degroot_weight(generator(family), p, q)

    def test_triangular_past_the_float_range(self):
        # the prior cut 1/(1 + e^x) of the breakpoint ~713 overflowed, and
        # the engine refused the pair in both orders
        gen = generator("triangular")
        p, q = make_distribution([0.5, 0.5]), make_distribution([1e-310, 1.0])
        for a, b in ((p, q), (q, p)):
            direct = float(f_divergence(gen, a, b))
            assert represent_degroot_weight(gen, a, b) == pytest.approx(direct, rel=1e-12)

    def test_an_integrand_past_the_float_range_is_refused(self):
        # one node's I_omega f''(t) / omega^3 overflowed to inf where the
        # integral is finite (~1.808e207), and the engine answered inf
        p, q = make_distribution([0.5, 0.5]), make_distribution([math.exp(-240), 1.0])
        gen = generator("hellinger", alpha=3.0)
        assert float(f_divergence(gen, p, q)) == pytest.approx(1.80813699016e207, rel=1e-11)
        with pytest.raises(DomainError, match="integrand"):
            represent_degroot_weight(gen, p, q)

    def test_large_log_ratios_still_answer(self):
        p = make_distribution([0.5, 0.5])
        q = make_distribution([math.exp(-245), 1.0])
        for family in ("kl", "chi_squared"):
            gen = generator(family)
            direct = float(f_divergence(gen, p, q))
            assert represent_degroot_weight(gen, p, q) == pytest.approx(direct, rel=1e-6)
        # the triangular integrand never reaches a node whose cube underflows
        gen = generator("triangular")
        q = make_distribution([math.exp(-300), 1.0])
        direct = float(f_divergence(gen, p, q))
        assert represent_degroot_weight(gen, p, q) == pytest.approx(direct, rel=1e-9)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(89)
        gens = [
            generator("kl"),
            generator("jeffreys"),
            generator("hellinger", alpha=0.5),
            generator("hellinger", alpha=3.0),
            generator("triangular"),
            generator("lin", theta=0.3),
        ]
        for _ in range(10):
            p, q = random_pair(rng, int(rng.integers(2, 6)))
            for gen in gens:
                direct = float(f_divergence(gen, p, q))
                rep = represent_degroot_weight(gen, p, q)
                assert abs(rep - direct) <= 1e-6 * max(1.0, direct)
