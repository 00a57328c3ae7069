import copy
import math
import pickle
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DiscreteDistribution,
    DomainError,
    GeneratorFunction,
    PoissonModel,
    UndefinedAtomError,
    ValidationError,
    chi2_mixture_scaling,
    chi2_mixture_three,
    chis_mixture_scaling,
    degroot_from_egamma,
    divergence,
    f_divergence,
    g_big,
    generator,
    local_limit_estimate,
    make_distribution,
    make_report,
    mixture,
    ratio_limit_pair,
    relative_information,
    renyi,
    renyi_local_estimate,
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
from divkit import distributions, divergences, spectrum_repr
from divkit.generators import _FAMILIES
from helpers import prefix_fsum_cum_masses, random_pair, reference_make_distribution


class TestMakeDistribution:
    def test_uniform_normalization(self):
        assert make_distribution([1, 1]).masses == (0.5, 0.5)

    def test_already_normalized(self):
        assert make_distribution([0.7, 0.3]).masses == (0.7, 0.3)

    def test_general_normalization(self):
        # oracle: divide by the total 10
        assert make_distribution([2, 3, 5]).masses == (0.2, 0.3, 0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            [0, 0], [-1, 2], [math.nan, 1], [math.inf, 1], [], ["abc"], [None], 1.0,
            # a string, bytes or a mapping is not a sequence of weights
            "12", b"12", {3: "x", 1: "y"},
            # a set has no atom order
            {0.8, 0.2}, frozenset({0.8, 0.2}),
        ],
    )
    def test_invalid_weights(self, bad):
        with pytest.raises(ValidationError):
            make_distribution(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            ["0.5", "0.5"],
            [b"1", 1],
            [1, "inf"],
            (w for w in ("1", "2")),
            bytearray(b"12"),
            memoryview(b"12"),
        ],
    )
    def test_text_weights_refused(self, bad):
        # float() parsed them: ["0.5", "0.5"] and [b"1", 1] read (0.5, 0.5);
        # a bytearray or memoryview of b"12" read its byte values 49 and 50
        with pytest.raises(ValidationError, match="sequence of real numbers"):
            make_distribution(bad)

    def test_iterators_still_read(self):
        assert make_distribution(w for w in (2, 3, 5)).masses == (0.2, 0.3, 0.5)
        assert make_distribution(iter([0.7, 0.3])).masses == (0.7, 0.3)

    def test_atom_order_preserved(self):
        d = make_distribution([5, 2, 3])
        assert d.masses == (0.5, 0.2, 0.3)

    @pytest.mark.parametrize(
        "weights, masses",
        [([1e308, 1e308], (0.5, 0.5)), ([1.5e308, 1e308, 5e307], (0.5, 1 / 3, 1 / 6))],
    )
    def test_overflowing_sum_normalizes(self, weights, masses):
        assert make_distribution(weights).masses == pytest.approx(masses, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1.7e308)),
            min_size=1,
            max_size=40,
        ).filter(any)
    )
    def test_skipped_checks_would_pass(self, weights):
        # the record is built without the constructor's second pass over the
        # masses; that pass accepts the masses unchanged
        d = make_distribution(weights)
        assert DiscreteDistribution(d.masses) == d


def _masses_or_message(make, weights):
    try:
        return [m.hex() for m in make(weights).masses]
    except ValidationError as exc:
        return str(exc)


# weights the sweep draws besides uniform ones: zeros of both signs, the
# least subnormal, a tiny normal, and weights whose sum overflows (in about
# one list in eight)
_SPECIAL_WEIGHTS = (0.0, -0.0, 5e-324, 1e-300, 1.0, 3, 1e308, 1.7e308)
_GOOD = [0.2, 0.3, 0.5]


class TestMakeDistributionReference:
    # make_distribution checks all weights at once and walks them only when
    # that check fails; the reference checks each weight in turn, and the
    # two agree bit for bit, messages included

    def test_masses_bit_equal(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            ws = [
                _SPECIAL_WEIGHTS[int(rng.integers(len(_SPECIAL_WEIGHTS)))]
                if rng.random() < 0.4 else float(rng.uniform(0.0, 1.0))
                for _ in range(n)
            ]
            assert _masses_or_message(make_distribution, ws) == _masses_or_message(
                reference_make_distribution, ws
            ), ws

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_bad_weight_message(self, bad, at):
        ws = _GOOD[:at] + [bad] + _GOOD[at:]
        with pytest.raises(ValidationError) as exc:
            make_distribution(ws)
        assert str(exc.value) == _masses_or_message(reference_make_distribution, ws)

    @pytest.mark.parametrize(
        "ws, message",
        [
            ([0.5, -1.0, math.nan], "negative weight -1.0"),
            ([-1.0, math.nan, 0.5], "negative weight -1.0"),
            ([0.5, math.nan, -1.0], "non-finite weight nan"),
            ([math.inf, -math.inf], "non-finite weight inf"),
            ([1e308, 1e308, -1.0], "negative weight -1.0"),
            ([1.7e308, math.nan, 1.7e308], "non-finite weight nan"),
            ([0.0, -0.0], "weights sum to zero"),
        ],
    )
    def test_first_bad_weight_names_the_error(self, ws, message):
        assert _masses_or_message(reference_make_distribution, ws) == message
        assert _masses_or_message(make_distribution, ws) == message


class TestRelativeInformation:
    def test_direct_ratio(self, bern_pair):
        p, q = bern_pair
        assert relative_information(p, q, 0) == pytest.approx(math.log(1.4), abs=1e-15)

    def test_identical_measures(self):
        d = make_distribution([0.25, 0.75])
        assert relative_information(d, d, 1) == 0.0

    def test_point_mass(self):
        p = make_distribution([1, 0])
        q = make_distribution([0.5, 0.5])
        assert relative_information(p, q, 0) == pytest.approx(math.log(2), abs=1e-15)
        assert relative_information(p, q, 1) == -math.inf
        assert relative_information(q, p, 1) == math.inf

    def test_undefined_atom(self):
        p = make_distribution([1, 0])
        with pytest.raises(UndefinedAtomError):
            relative_information(p, p, 1)

    @pytest.mark.parametrize("atom", [5, 1.0, -1])
    def test_atom_outside_alphabet(self, bern_pair, atom):
        # 5 raised IndexError, 1.0 TypeError, and -1 read the last atom
        with pytest.raises(ValidationError, match="range\\(2\\)"):
            relative_information(*bern_pair, atom)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            for i in range(len(p)):
                assert relative_information(p, q, i) == -relative_information(q, p, i)


class TestSpectrum:
    def test_bernoulli_pair(self, bern_pair):
        s = spectrum(*bern_pair)
        assert s.breakpoints == (
            math.log(0.3) - math.log(0.5),
            math.log(0.7) - math.log(0.5),
        )
        assert s.cum_masses == (0.3, 1.0)
        assert s.singular_mass_p == 0.0 and s.singular_mass_q == 0.0

    def test_identical_uniform(self):
        d = make_distribution([1, 1])
        s = spectrum(d, d)
        assert s.breakpoints == (0.0,)
        assert s.cum_masses == (1.0,)

    def test_singular_atom(self):
        p = make_distribution([0.5, 0.5, 0])
        q = make_distribution([0.25, 0.25, 0.5])
        s = spectrum(p, q)
        assert s.breakpoints == (math.log(0.5) - math.log(0.25),)
        assert s.cum_masses == (1.0,)
        assert s.singular_mass_q == 0.5
        assert s.singular_mass_p == 0.0
        assert spectrum_eval(s, math.log(2) - 1e-9) == 0.0

    def test_tie_merging(self):
        # both atoms share the ratio 2 computed from identical mass values
        p = make_distribution([0.4, 0.4, 0.2])
        q = make_distribution([0.2, 0.2, 0.6])
        s = spectrum(p, q)
        assert len(s.breakpoints) == 2
        assert s.cum_masses[-1] == pytest.approx(1.0, abs=1e-15)

    def test_mismatched_alphabets(self):
        with pytest.raises(ValidationError):
            spectrum(make_distribution([1]), make_distribution([1, 1]))

    def test_swap_negates_breakpoints_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            fwd = spectrum(p, q).breakpoints
            rev = spectrum(q, p).breakpoints
            assert set(rev) == {-x for x in fwd}

    def test_full_support_masses(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, q = random_pair(rng, 5)
            s = spectrum(p, q)
            assert s.singular_mass_p == 0.0 and s.singular_mass_q == 0.0
            assert abs(s.cum_masses[-1] - 1.0) <= 1e-14


def _oracle_pairs():
    """Seeded weight pairs: plain, tied ratios, subnormal masses (weights
    down to 5e-324) with skewed ratios, and near-equal mixtures
    lam P + (1 - lam) Q against Q."""
    rng = np.random.default_rng(20180417)
    sizes = (2, 8, 31, 32, 33, 34, 64, 100, 257, 1000, 3000)
    for k, n in enumerate(sizes * 4):
        mode = k // len(sizes)
        wq = rng.uniform(0.01, 1.0, size=n).tolist()
        if mode == 0:
            wp = rng.uniform(0.01, 1.0, size=n).tolist()
        elif mode == 1:
            wp = [w * float(rng.choice([0.5, 1.0, 2.0])) for w in wq]
        elif mode == 2:
            wp = (10.0 ** rng.uniform(-320, 0, size=n)).tolist()
            wp[:3] = [5e-324, 1e-310, 1e-200][: len(wp)]
            wq = (10.0 ** rng.uniform(-300, 0, size=n)).tolist()
        else:
            q = make_distribution(wq)
            p = make_distribution(rng.uniform(0.01, 1.0, size=n).tolist())
            lam = float(rng.choice([1e-3, 1e-9, 1e-15]))
            wp = list(mixture(p, q, lam).masses)
        yield n, mode, wp, wq


class TestSpectrumCore:
    def test_cum_masses_bit_equal_to_prefix_fsum(self):
        for n, mode, wp, wq in _oracle_pairs():
            p, q = make_distribution(wp), make_distribution(wq)
            expected = prefix_fsum_cum_masses(p, q)
            assert spectrum(p, q).cum_masses == expected, (n, mode)
            if n <= 300:  # the swapped pair groups the atoms in another order
                assert spectrum(q, p).cum_masses == prefix_fsum_cum_masses(q, p), (n, mode)

    def test_fsum_addends_linear_in_n(self, monkeypatch):
        # the prefix-fsum loop hands math.fsum about n^2/2 addends
        n = 10_000
        rng = np.random.default_rng(4)
        p = make_distribution(rng.uniform(0.01, 1.0, size=n).tolist())
        q = make_distribution(rng.uniform(0.01, 1.0, size=n).tolist())
        fsum = math.fsum
        addends = [0]

        def counting_fsum(xs):
            xs = list(xs)
            addends[0] += len(xs)
            return fsum(xs)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        s = spectrum(p, q)
        monkeypatch.undo()
        assert len(s.breakpoints) == n
        assert addends[0] <= 100 * n


def _fresh(p, q):
    """Fresh records with the masses of P and Q, whose memos are empty."""
    return DiscreteDistribution(p.masses), DiscreteDistribution(q.masses)


class TestSpectrumMemo:
    """spectrum() keeps each pair's spectrum on the pair's records, keyed on
    object identity."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The atoms ``_build_spectrum`` is asked for, in order."""
        calls = []
        build = distributions._build_spectrum

        def counting(atoms):
            calls.append(atoms)
            return build(atoms)

        monkeypatch.setattr(distributions, "_build_spectrum", counting)
        return calls

    def test_same_objects_built_once(self, builds):
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.2, 0.3, 0.5])
        s = spectrum(p, q)
        assert spectrum(p, q) is s
        g_big(p, q, 2.0)
        spectrum_identity(p, q)
        represent_named("kl", p, q)
        represent_general(generator("kl"), p, q)
        assert len(builds) == 1 and builds[0][0] is p.masses

    def test_equal_masses_distinct_objects(self, builds):
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.5, 0.5])
        p2, q2 = make_distribution([0.7, 0.3]), make_distribution([0.5, 0.5])
        s = spectrum(p, q)
        s2 = spectrum(p2, q2)
        assert s2 == s and s2 is not s
        assert len(builds) == 2 and builds[0][0] is p.masses and builds[1][0] is p2.masses

    def test_refused_pair_never_kept(self, builds):
        p, short = make_distribution([1, 1]), make_distribution([1])
        for _ in range(2):
            with pytest.raises(ValidationError):
                spectrum(p, short)
            with pytest.raises(ValidationError):
                spectrum(p, [0.5, 0.5])
        q = make_distribution([1, 3])
        s = spectrum(p, q)
        assert spectrum(p, q) is s
        # the gate refuses before the memo and the build: only (P, Q) is built
        assert len(builds) == 1 and builds[0][0] is p.masses

    def test_alternating_pairs(self, builds):
        # pairs that share one side, or swap the sides, are distinct pairs
        p1, q1 = make_distribution([0.7, 0.3]), make_distribution([0.5, 0.5])
        p2, q2 = make_distribution([0.1, 0.9]), make_distribution([0.6, 0.4])
        pairs = [(p1, q1), (p2, q2), (p2, q1), (p1, q2), (q1, p1)]
        want = [spectrum(*_fresh(a, b)) for a, b in pairs]
        del builds[:]
        assert len(set(want)) == len(pairs)
        for k in (0, 1, 0, 2, 0, 3, 2, 4, 0):
            assert spectrum(*pairs[k]) == want[k]
            assert spectrum(*pairs[k]) == want[k]
        # each pair once, and (P1, Q1) once more: (P1, Q2) takes P1's memo,
        # and (P1, Q1) is then found reversed on Q1's, kept there by
        # (Q1, P1), where its own orientation is built
        assert len(builds) == len(pairs) + 1

    def test_reconstructions_read_the_masses(self, monkeypatch):
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.2, 0.3, 0.5])
        xs = (-1.0, 0.0, 0.5, 2.0)
        want = [(spectrum_from_egamma(p, q, x), spectrum_from_degroot(p, q, x)) for x in xs]

        def refuse(*_):
            raise AssertionError("spectrum() called")

        # a wrong spectrum kept for this very pair must not reach them either
        wrong = spectrum(q, p)
        pair = distributions._pair_slot(p, q)
        monkeypatch.setitem(pair[2], ("spectrum", pair[3]), wrong)
        assert spectrum(p, q) is wrong
        got = [(spectrum_from_egamma(p, q, x), spectrum_from_degroot(p, q, x)) for x in xs]
        assert got == want
        for module in (distributions, spectrum_repr):
            monkeypatch.setattr(module, "spectrum", refuse)
        monkeypatch.setattr(distributions, "_build_spectrum", refuse)
        got = [(spectrum_from_egamma(p, q, x), spectrum_from_degroot(p, q, x)) for x in xs]
        assert got == want

    def test_planted_cum_masses_do_not_reach_the_reconstructions(self, monkeypatch):
        # a kept spectrum with the right breakpoints and a wrong CDF: the
        # E_gamma and DeGroot reconstructions read the atoms, not the CDF
        p, q = random_pair(np.random.default_rng(83), 1000)
        xs = (-0.5, 0.3)
        calls = (spectrum_from_egamma, spectrum_from_degroot)
        want = [f(*_fresh(p, q), x) for f in calls for x in xs]
        spec = spectrum(p, q)
        wrong = spec._replace(cum_masses=tuple(0.5 * c for c in spec.cum_masses))
        pair = distributions._pair_slot(p, q)
        monkeypatch.setitem(pair[2], ("spectrum", pair[3]), wrong)
        assert spectrum(p, q) is wrong
        assert g_big(p, q, math.exp(0.3)) != g_big(*_fresh(p, q), math.exp(0.3))
        assert [f(p, q, x) for f in calls for x in xs] == want

    def test_outputs_bit_identical(self):
        # a fresh copy of each distribution has an empty memo, so it is built anew
        rng = np.random.default_rng(18)
        kl = generator("kl")
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            beta = float(rng.uniform(0.2, 5.0))

            def queries(p, q):
                return (
                    spectrum(p, q),
                    g_big(p, q, beta),
                    spectrum_identity(p, q),
                    represent_named("kl", p, q),
                    represent_general(kl, p, q),
                    represent_inverse_g(kl, p, q),
                    represent_degroot_weight(kl, p, q),
                )

            fresh = lambda: queries(DiscreteDistribution(p.masses), DiscreteDistribution(q.masses))
            first, second = queries(p, q), queries(p, q)
            assert first == second == fresh()


class TestPairSlot:
    """Each record's memo holds its last partner weakly: the spectrum, the
    atoms and the sums of a pair live on the pair's records and go with
    the record that holds them."""

    def test_dead_records_free_their_memo(self):
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.2, 0.3, 0.5])
        spectrum(p, q)
        spectrum(q, p)
        divergence("kl", p, q)
        f_divergence(generator("chi_squared"), q, p)
        entries = distributions._pair_slot(p, q)[2]
        # both spectra, their atoms, both sums and the differences p - q of
        # each order, all on P's memo
        assert len(entries) == 8 and q._memo is None
        assert {key for key in entries if key[0] in ("spectrum", "atoms", "diffs")} == {
            (name, o) for name in ("spectrum", "atoms", "diffs") for o in (False, True)
        }
        records = weakref.ref(p), weakref.ref(q)
        del p, q
        assert [r() for r in records] == [None, None]
        assert sys.getrefcount(entries) == 2  # this name and the call's argument

    def test_dead_partner_is_not_kept_alive(self):
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.4, 0.6])
        spectrum(p, q)
        partner, kept = weakref.ref(q), p._memo[1]
        del q
        assert partner() is None
        # its entries stay on P until P re-partners; a new Q with the same
        # masses is another pair
        assert p._memo[0]() is None and p._memo[1] is kept
        q = make_distribution([0.4, 0.6])
        divergence("kl", p, q)
        assert p._memo[0]() is q and p._memo[1] is not kept
        assert set(p._memo[1][2]) == {("diffs", False), (id(_FAMILIES["kl"].term()), False)}

    def test_reversed_pair_keeps_the_slot(self):
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.4, 0.6])
        s = spectrum(p, q)
        r = spectrum(q, p)
        assert spectrum(p, q) is s and spectrum(q, p) is r
        assert s != r
        assert q._memo is None and distributions._pair_slot(q, p)[3] is True

    def test_other_pairs_leave_the_memo(self, monkeypatch):
        # a direct sum on another pair leaves a kept spectrum, and its own
        # sums are kept on its own records
        builds, sums = [], []
        build, take = distributions._build_spectrum, divergences._shifted_sum
        monkeypatch.setattr(distributions, "_build_spectrum", lambda a: builds.append(a) or build(a))
        monkeypatch.setattr(divergences, "_shifted_sum", lambda *a: sums.append(a) or take(*a))
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.2, 0.3, 0.5])
        r, s = make_distribution([0.1, 0.9]), make_distribution([0.5, 0.5])
        for _ in range(2):
            spectrum(p, q)
            spectrum(p, q)
            assert divergence("kl", r, s) == divergence("kl", r, s)
            assert distributions._pair_slot(r, s)[2].keys() == {
                ("diffs", False), (id(_FAMILIES["kl"].term()), False)
            }
        assert len(builds) == 1 and builds[0][0] is p.masses
        assert len(sums) == 1  # (r, s) once, kept for every later call

    def test_large_pair_built_once_between_other_pairs(self, monkeypatch):
        # an n = 1e3 pair whose spectral queries have spectra and direct
        # sums of other pairs in between, as a benchmark visit has: its
        # spectrum is built once and its atoms taken once per orientation
        builds = []
        build = distributions._build_spectrum
        monkeypatch.setattr(distributions, "_build_spectrum", lambda a: builds.append(a) or build(a))
        rng = np.random.default_rng(79)
        p, q = random_pair(rng, 1000)
        queries = (
            lambda: spectrum(p, q),
            lambda: spectrum_from_egamma(p, q, 0.3),
            lambda: spectrum_from_degroot(p, q, -0.5),
            lambda: g_big(p, q, 2.0),
            lambda: spectrum_identity(p, q),
            lambda: represent_named("kl", p, q),
            lambda: spectrum_from_egamma(q, p, 0.3),
            lambda: spectrum(q, p),
        )
        want = [query() for query in queries]
        entries = distributions._pair_slot(p, q)[2]
        kept = {key: entries[key] for key in entries if key[0] in ("spectrum", "atoms")}
        assert set(kept) == {(name, o) for name in ("spectrum", "atoms") for o in (False, True)}
        assert [atoms[0] for atoms in builds] == [p.masses, q.masses]
        del builds[:]
        for _ in range(3):
            for query, value in zip(queries, want):
                r, s = random_pair(rng, 100)
                spectrum(r, s)
                divergence("kl", r, s)
                divergence("tv", *random_pair(rng, 1000))
                assert query() == value
        # each other pair built its own spectrum; (P, Q) kept its entries
        assert len(builds) == 3 * len(queries)
        assert all(entries[key] is value for key, value in kept.items())

    def test_quadrature_and_mixture_sums_stay_out(self):
        p, q = make_distribution([0.5, 0.3, 0.2]), make_distribution([0.2, 0.3, 0.5])
        kl, chi2 = generator("kl"), generator("chi_squared")
        represent_degroot_weight(kl, p, q)
        chi2_mixture_scaling(p, q, 0.01)
        chis_mixture_scaling(p, q, 3.0, 0.01)
        chi2_mixture_three(p, q, q, 0.01)
        local_limit_estimate(kl, p, q, direction="mixture_second")
        renyi_local_estimate(0.5, p, q)
        ratio_limit_pair(kl, chi2, p, q)
        # the spectrum and its atoms, and the chi^2 target of the local
        # estimates with the differences it reads
        entries = distributions._pair_slot(p, q)[2]
        assert set(entries) == {
            ("spectrum", False), ("atoms", False), ("diffs", False),
            (id(_FAMILIES["chi_squared"].term()), False),
        }


class TestSpectrumEval:
    def test_between_breakpoints(self, bern_pair):
        s = spectrum(*bern_pair)
        assert spectrum_eval(s, 0.0) == 0.3

    def test_right_continuity_at_atom(self, bern_pair):
        s = spectrum(*bern_pair)
        assert spectrum_eval(s, math.log(0.7) - math.log(0.5)) == 1.0

    def test_below_all_breakpoints(self, bern_pair):
        s = spectrum(*bern_pair)
        assert spectrum_eval(s, -1e10) == 0.0

    def test_monotone(self, bern_pair):
        s = spectrum(*bern_pair)
        xs = np.linspace(-2, 2, 101)
        vals = [spectrum_eval(s, float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestGBig:
    def test_identical_measures_zero(self):
        d = make_distribution([0.3, 0.7])
        for beta in (0.1, 0.5, 1.0, 2.0, 50.0):
            assert g_big(d, d, beta) == 0.0

    def test_above_one(self, bern_pair):
        assert g_big(*bern_pair, 1.2) == pytest.approx(0.7, abs=1e-15)

    def test_below_one(self, bern_pair):
        assert g_big(*bern_pair, 0.5) == 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf])
    def test_domain(self, bern_pair, beta):
        with pytest.raises(DomainError):
            g_big(*bern_pair, beta)


class TestMixture:
    def test_endpoints(self, bern_pair):
        p, q = bern_pair
        assert mixture(p, q, 0.0).masses == q.masses
        assert mixture(p, q, 1.0).masses == p.masses

    def test_midpoint(self, bern_pair):
        assert mixture(*bern_pair, 0.5).masses == (0.6, 0.4)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_domain(self, bern_pair, lam):
        with pytest.raises(DomainError):
            mixture(*bern_pair, lam)


# every public function of a pair (P, Q), called on (p, q)
_PAIR_FUNCTIONS = {
    "spectrum": spectrum,
    "relative_information": lambda p, q: relative_information(p, q, 0),
    "mixture": lambda p, q: mixture(p, q, 0.5),
    "g_big": lambda p, q: g_big(p, q, 2.0),
    "divergence": lambda p, q: divergence("kl", p, q),
    "divergence_hellinger": lambda p, q: divergence("hellinger", p, q, alpha=0.5),
    "f_divergence": lambda p, q: f_divergence(generator("kl"), p, q),
    "renyi": lambda p, q: renyi(2.0, p, q),
    "degroot_from_egamma": lambda p, q: degroot_from_egamma(0.3, p, q),
    "represent_general": lambda p, q: represent_general(generator("kl"), p, q),
    "represent_inverse_g": lambda p, q: represent_inverse_g(generator("kl"), p, q),
    "represent_named": lambda p, q: represent_named("kl", p, q),
    "represent_degroot_weight": lambda p, q: represent_degroot_weight(generator("kl"), p, q),
    "spectrum_identity": spectrum_identity,
    "spectrum_from_egamma": lambda p, q: spectrum_from_egamma(p, q, 0.1),
    "spectrum_from_degroot": lambda p, q: spectrum_from_degroot(p, q, 0.1),
    "chi2_mixture_scaling": lambda p, q: chi2_mixture_scaling(p, q, 0.5),
    "chis_mixture_scaling": lambda p, q: chis_mixture_scaling(p, q, 3.0, 0.5),
    "chi2_mixture_three": lambda p, q: chi2_mixture_three(p, q, q, 0.5),
    "chi2_mixture_three_r": lambda p, q: chi2_mixture_three(q, q, p, 0.5),
    "local_limit_estimate": lambda p, q: local_limit_estimate(generator("kl"), p, q),
    "renyi_local_estimate": lambda p, q: renyi_local_estimate(2.0, p, q),
    "ratio_limit_pair": lambda p, q: ratio_limit_pair(generator("kl"), generator("chi_squared"), p, q),
}


class TestPairGate:
    """Every pair function refuses a non-distribution or a mismatched pair
    with ValidationError: no AttributeError, and no value read from the
    shorter of two alphabets."""

    P3 = make_distribution([0.5, 0.3, 0.2])
    Q2 = make_distribution([0.6, 0.4])

    @pytest.mark.parametrize("name", sorted(_PAIR_FUNCTIONS))
    @pytest.mark.parametrize(
        "p, q",
        [
            ([0.6, 0.4], Q2),
            (Q2, [0.6, 0.4]),
            ((0.6, 0.4), Q2),
            (Q2, (0.6, 0.4)),
            (P3, Q2),
            (Q2, P3),
        ],
        ids=["list_p", "list_q", "tuple_p", "tuple_q", "3_vs_2", "2_vs_3"],
    )
    def test_refused(self, name, p, q):
        with pytest.raises(ValidationError):
            _PAIR_FUNCTIONS[name](p, q)

    @pytest.mark.parametrize("name", sorted(_PAIR_FUNCTIONS))
    def test_accepted(self, name):
        p, q = make_distribution([0.5, 0.3, 0.2]), make_distribution([0.2, 0.3, 0.5])
        _PAIR_FUNCTIONS[name](p, q)


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8),
)
def test_spectrum_is_a_cdf(w1, w2):
    n = min(len(w1), len(w2))
    p = make_distribution(w1[:n])
    q = make_distribution(w2[:n])
    s = spectrum(p, q)
    assert all(a < b for a, b in zip(s.breakpoints, s.breakpoints[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(s.cum_masses, s.cum_masses[1:]))
    assert abs(s.cum_masses[-1] - (1.0 - s.singular_mass_p)) <= 1e-13


class TestRecords:
    """The records are plain immutable values: no attribute can be
    assigned or deleted, and the tuple ones behave as tuples."""

    def _records(self):
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.5, 0.5])
        return [
            (p, "masses"),
            (spectrum(p, q), "breakpoints"),
            (generator("kl"), "family"),
            (make_report("pinsker_lb_kl", 0.08, 0.1, "lower"), "slack"),
            (PoissonModel(2.0), "rate"),
        ]

    def test_immutable(self):
        for record, name in self._records():
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.new_attribute = 1

    def test_distribution_is_a_sequence_value(self):
        p = make_distribution([1, 3])
        assert len(p) == 2 and p[1] == 0.75 and list(p) == [0.25, 0.75]
        assert p == make_distribution([2, 6]) and hash(p) == hash(make_distribution([2, 6]))
        assert p != make_distribution([3, 1]) and p != p.masses
        assert repr(p) == "DiscreteDistribution(masses=(0.25, 0.75))"
        assert copy.copy(p) == p and pickle.loads(pickle.dumps(p)) == p
        assert pickle.loads(pickle.dumps(PoissonModel(2.0))).rate == 2.0

    def test_tuple_records(self):
        p, q = make_distribution([0.7, 0.3]), make_distribution([0.5, 0.5])
        spec = spectrum(p, q)
        assert tuple(spec) == (spec.breakpoints, spec.cum_masses, 0.0, 0.0)
        assert spec == spectrum(p, q) and hash(spec) == hash(spectrum(p, q))
        report = make_report("pinsker_lb_kl", 0.08, 0.1, "lower")
        assert tuple(report) == ("pinsker_lb_kl", 0.08, 0.1, "lower", report.slack)
        assert list(report._asdict()) == [
            "name", "bound_value", "certified_quantity", "direction", "slack"
        ]

    def test_generator_constructor_checks_and_defaults(self):
        f = GeneratorFunction(
            "custom", eval=lambda t: (t - 1.0) ** 2, f_at_zero=1.0, fstar_at_zero=math.inf,
            right_deriv_at_one=0.0,
        )
        assert f.left_deriv_at_one == 0.0 and f.kink is None and f.is_smooth
        assert f._breg.term(0.5, 0.5, 1.0) == pytest.approx(0.5)  # q (p/q - 1)^2
        # smooth means no declared kink: the general and inverse-g engines take it
        p, q = make_distribution([0.7, 0.2, 0.1]), make_distribution([0.2, 0.5, 0.3])
        direct = f_divergence(f, p, q).value
        for engine in (represent_general, represent_inverse_g):
            assert engine(f, p, q) == pytest.approx(direct, rel=1e-14)
        assert f == f and f != generator("chi_squared")
        assert copy.copy(f) is f and copy.deepcopy([f])[0] is f
        with pytest.raises(ValidationError, match="f\\(1\\)=0"):
            GeneratorFunction(
                "custom", eval=lambda t: t, f_at_zero=0.0, fstar_at_zero=1.0,
                right_deriv_at_one=1.0,
            )
