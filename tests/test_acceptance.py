"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -s` to see them).

Every tolerance below is fixed by the project contract; nothing is
calibrated at runtime.
"""

import math
import time

import numpy as np

from divkit import (
    affine_shift,
    c_gamma,
    chi2_lower_from_tv,
    chi2_mixture_three,
    chis_mixture_scaling,
    conjugate,
    crossover_d,
    degroot_upper,
    divergence,
    egamma_upper,
    f_divergence,
    fdiv_lower_via_degroot,
    fdiv_lower_via_egamma,
    generator,
    hellinger_renyi_lower,
    kl_upper_log_chi2,
    lambert_w,
    local_limit_estimate,
    make_distribution,
    pinsker_bh_switch,
    poisson_bound_report,
    poisson_k0,
    renyi,
    renyi_local_estimate,
    represent_general,
    represent_named,
    spectrum,
    spectrum_eval,
    spectrum_from_degroot,
    spectrum_from_egamma,
    spectrum_identity,
    straight_line_egamma_ub,
    tv_kl_frontier,
)
from divkit.bounds import CATALOG
from helpers import random_pair, random_triple, special_weights


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS: {detail}")


def test_criterion_01_poisson_example_regression():
    start = time.perf_counter()
    assert poisson_k0(99.0, 101.0, 0.1) == 209
    reports = {r.name: r.bound_value for r in poisson_bound_report(101.0, 99.0, 0.1)}
    assert f"{reports['degroot_ub_from_chi2']:.1e}" == "4.6e-04"
    assert f"{reports['degroot_ub_kl_line']:.1e}" == "5.8e-04"
    assert f"{reports['degroot_ub_kl_bh']:.1e}" == "2.2e-03"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"k0=209, bounds 4.6e-4 / 5.8e-4 / 2.2e-3 ({elapsed:.2f}s)")


GENERAL_FAMILIES = [
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
]


def test_criterion_02_representation_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    gens = [(kind, generator(fam, **pr), pr) for kind, fam, pr in GENERAL_FAMILIES]
    worst_general = 0.0
    worst_named = 0.0
    for _ in range(200):
        p, q = random_pair(rng, int(rng.integers(2, 9)))
        for kind, gen, params in gens:
            direct = float(divergence(kind, p, q, **params))
            rep = represent_general(gen, p, q, c=1.0)
            err = abs(rep - direct) / max(1.0, direct)
            worst_general = max(worst_general, err)
            assert err <= 1e-8
        for kind, params in NAMED_ENTRIES:
            direct = float(divergence(kind, p, q, **params))
            rep = represent_named(kind, p, q, **params)
            err = abs(rep - direct) / max(1.0, direct)
            worst_named = max(worst_named, err)
            assert err <= 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        2,
        f"200 pairs: worst general {worst_general:.1e}, "
        f"worst named {worst_named:.1e} <= 1e-11 ({elapsed:.1f}s)",
    )


def test_criterion_03_spectrum_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        p, q = random_pair(rng, int(rng.integers(2, 9)))
        worst = max(worst, abs(spectrum_identity(p, q) - 1.0))
        assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"1000 pairs: worst |integral - 1| = {worst:.1e} ({elapsed:.2f}s)")


def test_criterion_04_spectrum_reconstruction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        p, q = random_pair(rng, int(rng.integers(2, 8)))
        s = spectrum(p, q)
        lo = s.breakpoints[0] - 1.0
        hi = s.breakpoints[-1] + 1.0
        done = 0
        while done < 1000:
            x = float(rng.uniform(lo, hi))
            if any(abs(x - b) < 1e-9 for b in s.breakpoints):
                continue
            done += 1
            ref = spectrum_eval(s, x)
            err = max(
                abs(spectrum_from_egamma(p, q, x) - ref),
                abs(spectrum_from_degroot(p, q, x) - ref),
            )
            worst = max(worst, err)
            assert err <= 1e-12
    _report(4, f"50 pairs x 1000 abscissae: worst error {worst:.1e} <= 1e-12")


def test_criterion_05_mixture_identities():
    rng = np.random.default_rng(5)
    lams = [round(0.1 * k, 1) for k in range(11)]
    worst = 0.0
    for _ in range(100):
        p, q = random_pair(rng, int(rng.integers(2, 7)))
        for s in (1.0, 1.5, 2.0, 3.0):
            chi_s = float(divergence("chi_s", p, q, s=s))
            for lam in lams:
                got = chis_mixture_scaling(p, q, s, lam)
                err = abs(got - lam**s * chi_s)
                worst = max(worst, err)
                assert err <= 1e-12
    for _ in range(100):
        p, q, r = random_triple(rng, int(rng.integers(2, 6)))
        chi_pr = float(divergence("chi2", p, r))
        chi_qr = float(divergence("chi2", q, r))
        for lam in lams:
            value, c = chi2_mixture_three(p, q, r, lam)
            rhs = chi_qr + c * lam + (chi_pr - chi_qr - c) * lam * lam
            err = abs(value - rhs)
            worst = max(worst, err)
            assert err <= 1e-12
    _report(5, f"scaling + three-measure identities: worst residual {worst:.1e}")


def test_criterion_06_local_limits():
    p = make_distribution([0.7, 0.3])
    q = make_distribution([0.5, 0.5])
    worst = 0.0
    for fam, params in [
        ("kl", {}),
        ("jeffreys", {}),
        ("triangular", {}),
        ("hellinger", {"alpha": 0.5}),
    ]:
        f = generator(fam, **params)
        for direction in ("mixture_first", "mixture_second"):
            est = local_limit_estimate(f, p, q, direction=direction)
            rel = abs(est.extrapolated - est.target) / est.target
            worst = max(worst, rel)
            assert rel <= 1e-4
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for direction in ("mixture_first", "mixture_second"):
            est = renyi_local_estimate(alpha, p, q, direction=direction)
            rel = abs(est.extrapolated - est.target) / est.target
            worst = max(worst, rel)
            assert rel <= 1e-4
    _report(6, f"local limits both directions: worst relative error {worst:.1e}")


BOUND_CATALOG = [
    ("kl", "kl", {}),
    ("jeffreys", "jeffreys", {}),
    ("hellinger", "hellinger", {"alpha": 0.5}),
    ("hellinger", "hellinger", {"alpha": 2.0}),
    ("chi2", "chi_squared", {}),
    ("chi_s", "chi_s", {"s": 3.0}),
    ("triangular", "triangular", {}),
    ("lin", "lin", {"theta": 0.3}),
    ("js", "jensen_shannon", {}),
    ("tv", "total_variation", {}),
    ("e_gamma", "e_gamma", {"gamma": 2.0}),
    ("degroot", "degroot", {"omega": 0.3}),
]


def test_criterion_07_inequality_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    # a slack may fall below 0 only by rounding in the certified value: at
    # most 4 units of 2^-52 of it, or of 1 where it is smaller
    slack_floor = -4.0 * 2.0**-52
    gammas_t5 = (1.0, 1.2, 2.0, 5.0)
    gens = [(kind, generator(fam, **pr), pr) for kind, fam, pr in BOUND_CATALOG]
    worst_slack = math.inf  # over max(1, |certified value|)
    covered = set()  # the names of CATALOG that the sweep certifies

    def check(slack, certified, *label):
        nonlocal worst_slack
        worst_slack = min(worst_slack, slack / max(1.0, abs(certified)))
        assert slack >= slack_floor * max(1.0, abs(certified)), label

    for _ in range(10_000):
        p, q = random_pair(rng, int(rng.integers(2, 7)))
        tv = float(divergence("tv", p, q))
        kl_pq = float(divergence("kl", p, q))
        kl_qp = float(divergence("kl", q, p))
        chi_pq = float(divergence("chi2", p, q))
        chi_qp = float(divergence("chi2", q, p))
        e_vals = {g: float(divergence("e_gamma", p, q, gamma=g)) for g in gammas_t5}
        e_vals[1.5] = float(divergence("e_gamma", p, q, gamma=1.5))
        d_vals = [float(divergence(kind, p, q, **pr)) for kind, _, pr in BOUND_CATALOG]

        # E_gamma-based lower bounds on every catalog divergence
        for (kind, gen, pr), d_f in zip(gens, d_vals):
            for g in gammas_t5:
                check(d_f - fdiv_lower_via_egamma(gen, e_vals[g], g), d_f, kind, g)

        # Hellinger / Renyi lower bounds from one E_gamma value
        for alpha in (0.5, 2.0):
            h_val = float(divergence("hellinger", p, q, alpha=alpha))
            r_val = float(renyi(alpha, p, q))
            for g in (1.0, 2.0):
                check(h_val - hellinger_renyi_lower("hellinger", alpha, g, e_vals[g]), h_val)
                check(r_val - hellinger_renyi_lower("renyi", alpha, g, e_vals[g]), r_val)

        # E_gamma upper bounds from chi^2 and from KL, and the straight line
        for g in (1.0, 1.5):
            for bound in (
                egamma_upper("chi2", g, chi_pq),
                egamma_upper("kl", g, kl_pq),
            ):
                check(bound - e_vals[g], e_vals[g])
        for g in (1.2, 2.0, 5.0):
            check(straight_line_egamma_ub(g, kl_pq) - e_vals[g], e_vals[g], g)
        covered |= {"egamma_ub_chi2", "egamma_ub_kl", "straight_line_egamma_ub"}

        # DeGroot-based lower bounds on KL
        f_kl = gens[0][1]
        for omega in (0.25, 0.5, 0.75):
            if omega <= 0.5:
                i_val = float(divergence("degroot", p, q, omega=omega))
            else:
                i_val = float(divergence("degroot", q, p, omega=omega))
            check(kl_pq - fdiv_lower_via_degroot(f_kl, omega, i_val), kl_pq)

        # closed-form DeGroot upper bounds
        kwargs = dict(d_pq=kl_pq, d_qp=kl_qp, chi_pq=chi_pq, chi_qp=chi_qp)
        for omega in (0.25, 0.5, 0.75):
            i_val = float(divergence("degroot", p, q, omega=omega))
            for kind in ("chi2", "kl_line", "kl_bh"):
                check(degroot_upper(kind, omega, **kwargs) - i_val, i_val, kind, omega)
        covered |= {"degroot_ub_from_chi2", "degroot_ub_kl_line", "degroot_ub_kl_bh"}

        # classical frontier, log bound, chi^2-from-TV floors
        for name in ("pinsker_lb_kl", "bh_lb_kl", "vajda_lb_kl"):
            check(kl_pq - tv_kl_frontier(name, tv), kl_pq, name)
        for name in ("bh_ub_tv", "vajda_ub_tv"):
            check(tv_kl_frontier(name, kl_pq) - tv, tv, name)
        check(kl_upper_log_chi2(chi_pq) - kl_pq, kl_pq)
        for kind in ("tight", "jensen"):
            check(chi_pq - chi2_lower_from_tv(kind, tv), chi_pq, kind)
        covered |= {"pinsker_lb_kl", "bh_lb_kl", "vajda_lb_kl", "bh_ub_tv", "vajda_ub_tv"}
        covered |= {"kl_ub_log_chi2", "chi2_lb_tv_tight", "chi2_lb_tv_jensen"}
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    # every catalog entry is certified here, or bounds no pair: c_gamma,
    # crossover_d and pinsker_bh_switch are checked by criterion 8 and
    # test_bounds.TestCGamma; the names are pinned, so that an entry cannot
    # leave the catalog without a change here
    no_pair = {"c_gamma", "crossover_d", "pinsker_bh_switch"}
    assert covered | no_pair == set(CATALOG) == {
        "pinsker_lb_kl", "bh_lb_kl", "vajda_lb_kl", "bh_ub_tv", "vajda_ub_tv",
        "egamma_ub_chi2", "egamma_ub_kl", "straight_line_egamma_ub",
        "chi2_lb_tv_tight", "chi2_lb_tv_jensen", "kl_ub_log_chi2",
        "degroot_ub_from_chi2", "degroot_ub_kl_line", "degroot_ub_kl_bh",
        "c_gamma", "crossover_d", "pinsker_bh_switch",
    }
    _report(
        7,
        f"10^4 pairs, full catalog: worst slack {worst_slack:.2e} max(1, |value|) "
        f">= -4 * 2^-52 max(1, |value|) ({elapsed:.1f}s)",
    )


def test_criterion_08_crossover_values():
    targets = {1.1: 0.02, 2.0: 0.86, 3.0: 1.61, 4.0: 2.10}
    got = {g: crossover_d(g) for g in targets}
    for g, target in targets.items():
        assert abs(got[g] - target) <= 0.02, (g, got[g])
    switch = pinsker_bh_switch()
    assert abs(switch - 1.594) <= 0.005
    detail = ", ".join(f"d({g})={v:.3f}" for g, v in got.items())
    _report(8, f"{detail}, switch={switch:.4f}")


def test_criterion_09_lambert_w():
    bp = -math.exp(-1.0)
    xs = np.concatenate(
        [
            np.linspace(bp + 1e-12, 20.0, 5000),
            np.logspace(np.log10(21.0), 280.0, 5000),
        ]
    )
    worst = 0.0
    for x in xs:
        w = lambert_w("principal", float(x))
        err = abs(w * math.exp(w) - x) / max(abs(x), 1e-300)
        worst = max(worst, err)
        assert err <= 1e-12
    xs = np.concatenate(
        [
            np.linspace(bp + 1e-12, -1e-6, 5000),
            -np.logspace(-300.0, -6.0, 5000),
        ]
    )
    for x in xs:
        w = lambert_w("secondary", float(x))
        err = abs(w * math.exp(w) - x) / abs(x)
        worst = max(worst, err)
        assert err <= 1e-12

    # straight-line constant two independent ways
    def c2_by_bisection():
        lo, hi = 2.0, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - 2.0 * math.log(mid) - 1.0 < 0.0:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        return (t - 2.0) / (t * math.log(t) + 1.0 - t)

    agreement = abs(c_gamma(2.0) - c2_by_bisection())
    assert agreement <= 1e-10
    _report(
        9,
        f"2x10^4 round trips worst {worst:.1e} <= 1e-12; "
        f"c_2 Halley vs bisection differ by {agreement:.1e}",
    )


def test_criterion_10_conjugate_and_shift_invariance():
    rng = np.random.default_rng(10)
    worst = 0.0
    gens = [generator(fam, **pr) for _, fam, pr in BOUND_CATALOG]
    cases = []
    for _ in range(500):
        p, q = random_pair(rng, int(rng.integers(2, 7)))
        cases.append((p, q, float(rng.uniform(-5.0, 5.0))))
    # zero and subnormal masses, where a pair may charge a singular part
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p, q = (make_distribution(special_weights(rng, n)) for _ in range(2))
        cases.append((p, q, float(rng.uniform(-5.0, 5.0))))
    for p, q, c in cases:
        for gen in gens:
            base = float(f_divergence(gen, p, q))
            dual = float(f_divergence(conjugate(gen), q, p))
            shifted = float(f_divergence(affine_shift(gen, c), p, q))
            assert base == dual  # the same terms, summed in the same order
            err = 0.0 if shifted == base else abs(base - shifted)  # inf == inf
            worst = max(worst, err)
            assert err <= 1e-12
    _report(
        10,
        f"{len(cases)} pairs x {len(gens)} generators: duality exact, "
        f"worst shift deviation {worst:.1e}",
    )
