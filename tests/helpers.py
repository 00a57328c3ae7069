"""Shared test helpers: seeded random distribution pairs and oracles."""

from __future__ import annotations

import math
from bisect import bisect_left

import mpmath
import numpy as np

from divkit import (
    DiscreteDistribution,
    DivkitError,
    DomainError,
    KinkError,
    PoissonModel,
    ValidationError,
    conjugate,
    generator,
    make_distribution,
)
from divkit.distributions import _EXPANSION_AT, SpectrumFunction, _exact_expansion
from divkit.divergences import DivergenceValue
from divkit.errors import _real
from divkit.generators import _FAMILIES
from divkit.spectrum_repr import _require_pq_dominated, _require_qp_dominated
from divkit.terms import _alpha_breg, _edge_term, _g_edge

mp = mpmath.mp
INF = mpmath.inf

# (kind, parameters): every KINDS entry, the parametric ones at orders on
# both sides of their special values
ORACLE_KINDS = [
    ("kl", {}),
    ("jeffreys", {}),
    ("hellinger", {"alpha": 0.3}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 1.0}),
    ("hellinger", {"alpha": 2.0}),
    ("hellinger", {"alpha": 5.0}),
    ("chi2", {}),
    ("sq_hellinger", {}),
    ("bhattacharyya", {}),
    ("alpha", {"alpha": 0.5}),
    ("alpha", {"alpha": 2.0}),
    ("chi_s", {"s": 1.0}),
    ("chi_s", {"s": 1.5}),
    ("chi_s", {"s": 3.0}),
    ("tv", {}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("js", {}),
    ("e_gamma", {"gamma": 1.0}),
    ("e_gamma", {"gamma": 1.5}),
    ("e_gamma", {"gamma": 4.0}),
    ("degroot", {"omega": 0.2}),
    ("degroot", {"omega": 0.5}),
    ("degroot", {"omega": 0.8}),
    ("renyi", {"alpha": 0.5}),
    ("renyi", {"alpha": 2.0}),
]


def random_pair(
    rng: np.random.Generator, n: int, low: float = 0.01
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Fully supported pair on n atoms; normalized masses stay >= low/n."""
    w1 = rng.uniform(low, 1.0, size=n)
    w2 = rng.uniform(low, 1.0, size=n)
    return make_distribution(w1.tolist()), make_distribution(w2.tolist())


def random_triple(rng: np.random.Generator, n: int):
    p, q = random_pair(rng, n)
    (r,) = (make_distribution(rng.uniform(0.01, 1.0, size=n).tolist()),)
    return p, q, r


def brute_force_e_gamma(
    p: DiscreteDistribution, q: DiscreteDistribution, gamma: float
) -> float:
    """Set-maximization oracle: max over all subsets of P(U) - gamma Q(U)."""
    n = len(p)
    best = 0.0
    for mask in range(1 << n):
        terms = [
            p.masses[i] - gamma * q.masses[i] for i in range(n) if mask & (1 << i)
        ]
        val = math.fsum(terms)
        if val > best:
            best = val
    return best


def prefix_fsum_cum_masses(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> tuple[float, ...]:
    """Reference spectrum CDF: fsum over the whole P-mass prefix at every
    breakpoint, ties merged on bit-equal log-ratios (quadratic in n)."""
    groups: dict[float, list[float]] = {}
    for pm, qm in zip(p.masses, q.masses):
        if pm > 0.0 and qm > 0.0:
            groups.setdefault(math.log(pm) - math.log(qm), []).append(pm)
    seen: list[float] = []
    cums = []
    for x in sorted(groups):
        seen.extend(groups[x])
        cums.append(math.fsum(seen))
    return tuple(cums)


def reference_make_distribution(weights) -> DiscreteDistribution:
    """Reference normalization: every weight converted and checked in its
    own step, in order, before the sum; bit for bit the masses and messages
    ``make_distribution`` must give on any list of weights."""
    try:
        ws = [float(w) for w in weights]
    except OverflowError:
        raise ValidationError("a weight passes the float range") from None
    except (TypeError, ValueError):
        raise ValidationError("weights must be a sequence of real numbers") from None
    if not ws:
        raise ValidationError("empty weight sequence")
    for w in ws:
        if not math.isfinite(w):
            raise ValidationError(f"non-finite weight {w!r}")
        if w < 0.0:
            raise ValidationError(f"negative weight {w!r}")
    try:
        total = math.fsum(ws)
    except OverflowError:
        top = max(ws)
        ws = [w / top for w in ws]
        total = math.fsum(ws)
    if total <= 0.0:
        raise ValidationError("weights sum to zero")
    return DiscreteDistribution(tuple(w / total for w in ws))


def log_segments(spec) -> list:
    """Reference segments (x_lo, x_hi, cdf value) between consecutive
    spectrum breakpoints, cut at 0."""
    bps = spec.breakpoints
    segs = []
    for x0, x1, cval in zip(bps, bps[1:], spec.cum_masses):
        if x0 < 0.0 < x1:
            segs.append((x0, 0.0, cval))
            x0 = 0.0
        segs.append((x0, x1, cval))
    return segs


def reference_g_sum(b, spec) -> float:
    """Reference for ``spectrum_repr._g_sum``: the same pieces, formed over
    ``log_segments`` with the stretch from 0 to the nearest breakpoint
    prepended or appended where every ratio sits on one side of 0."""
    if b.at_zero != 0.0:
        _require_qp_dominated(spec.singular_mass_q)
    if b.at_inf != 0.0:
        _require_pq_dominated(spec.singular_mass_p)
    if not spec.breakpoints:
        return 0.0
    segs = log_segments(spec)
    x_min, x_max = spec.breakpoints[0], spec.breakpoints[-1]
    if x_min > 0.0:
        segs.insert(0, (0.0, x_min, 0.0))
    if x_max < 0.0:
        segs.append((x_max, 0.0, spec.cum_masses[-1]))
    if not segs:
        return 0.0
    edges = [_g_edge(b, x) for x in [x0 for x0, _, _ in segs] + [segs[-1][1]]]
    pieces = []
    for (x0, x1, cdf), v0, v1 in zip(segs, edges, edges[1:]):
        if x0 >= 0.0:
            tail = 1.0 - cdf
            if tail == 0.0:
                continue
            if v1 != v0:
                pieces.append(tail * (v1 - v0))
        elif cdf != 0.0:
            log_cdf = math.log(cdf)
            a0, a1 = math.exp(log_cdf - x0), math.exp(log_cdf - x1)
            pieces.append(a0 * v0 - a1 * v1)
    return math.fsum(pieces)


def grouped_build_spectrum(atoms: tuple) -> SpectrumFunction:
    """Reference for ``distributions._build_spectrum``: its earlier form,
    which grouped the P-masses by log-ratio in a dict and summed the groups
    in sorted order, with the same exact-expansion prefix.  The keyed-sort
    build must give the same spectrum bit for bit."""
    pms, xs, q_where_p0, p_where_q0 = atoms
    groups: dict[float, list[float]] = {}
    for pm, x in zip(pms, xs):
        groups.setdefault(x, []).append(pm)
    breakpoints = tuple(sorted(groups))
    cums: list[float] = []
    seen: list[float] = []
    for x in breakpoints:
        seen.extend(groups[x])
        cums.append(math.fsum(seen))
        if len(seen) > _EXPANSION_AT:
            seen = _exact_expansion(seen, cums[-1])
    return SpectrumFunction(breakpoints, tuple(cums), p_where_q0, q_where_p0)


def fstar(f, t: float) -> float:
    """The conjugate f*(t) = t f(1/t), with its limit f*(0) at t = 0: the
    earlier ``bounds._fstar``."""
    return f.fstar_at_zero if t == 0.0 else t * f._eval(1.0 / t)


def fstar_jensen(f, up: float, down: float, base: float) -> float:
    """Reference for ``bounds._jensen``: its earlier form, which took each
    f* through a call of its own (``fstar``), with the same shifted-term
    sum where f* passes the float range.  The in-place sum must give the
    same float, or refusal, bit for bit."""
    try:
        value = fstar(f, up) + fstar(f, down) - fstar(f, base)
        if value == value:  # not NaN
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    b = f._breg

    def term(t: float) -> float:
        return _edge_term(b, 1.0 - t, t, 1.0) if t > 0.0 else b.at_inf

    value = term(up)
    if down != base:
        value += term(down) - term(base)
        if not value < math.inf:
            raise DomainError(f"generator {f.family}: f* passes the float range at {base!r}")
    return value


def fstar_fdiv_lower_via_egamma(f, e_val: float, gamma: float) -> float:
    """Reference for ``bounds.fdiv_lower_via_egamma``: its earlier form,
    every input through ``errors._real``, over ``fstar_jensen``."""
    if not 0.0 <= _real(e_val, "e_val") < 1.0:
        raise DomainError("E_gamma value must lie in [0, 1)")
    if not _real(gamma, "gamma") >= 1.0:
        raise DomainError("gamma must be >= 1")
    return fstar_jensen(f, 1.0 + e_val / gamma, (1.0 - e_val) / gamma, 1.0 / gamma)


def fstar_fdiv_lower_via_degroot(f, omega: float, i_val: float) -> float:
    """Reference for ``bounds.fdiv_lower_via_degroot``: its earlier form,
    every input through ``errors._real`` and the (m, big) of
    ``terms.prior_scale`` written out, over ``fstar_jensen``."""
    if not 0.0 < _real(omega, "omega") < 1.0:
        raise DomainError("DeGroot prior must lie in (0, 1)")
    m, big = (1.0 - omega, omega) if omega > 0.5 else (omega, 1.0 - omega)
    if not 0.0 <= _real(i_val, "i_val") <= m:
        raise DomainError(f"DeGroot value {i_val!r} outside [0, min(omega, 1-omega)]")
    return fstar_jensen(f, 1.0 + i_val / big, (m - i_val) / big, m / big)


def edge_list_g_sum(b, spec) -> float:
    """Reference for ``spectrum_repr._g_sum``: its earlier form, which
    inserted 0 into copies of the breakpoints and CDF values, took every
    edge through ``terms._g_edge`` into a list, then walked the segments.
    The one-pass sum must give the same float, or refusal, bit for bit."""
    if b.at_zero != 0.0:
        _require_qp_dominated(spec.singular_mass_q)
    if b.at_inf != 0.0:
        _require_pq_dominated(spec.singular_mass_p)
    xs, cdfs = spec.breakpoints, spec.cum_masses
    k = bisect_left(xs, 0.0)
    if k == len(xs) or xs[k] != 0.0:
        xs = xs[:k] + (0.0,) + xs[k:]
        cdfs = cdfs[:k] + (cdfs[k - 1] if k else 0.0,) + cdfs[k:]
    edges = [_g_edge(b, x) for x in xs]
    pieces = []
    for x0, x1, cdf, v0, v1 in zip(xs, xs[1:], cdfs, edges, edges[1:]):
        if x0 >= 0.0:
            tail = 1.0 - cdf
            if tail == 0.0:
                continue
            if v1 != v0:
                pieces.append(tail * (v1 - v0))
        elif cdf != 0.0:
            log_cdf = math.log(cdf)
            a0, a1 = math.exp(log_cdf - x0), math.exp(log_cdf - x1)
            pieces.append(a0 * v0 - a1 * v1)
    return math.fsum(pieces)


def catalog_terms():
    """Every catalog family's shifted term, at orders on both sides of the
    special values, the alpha kind's term and a custom generator's."""
    params = {
        "hellinger": (0.2, 0.5, 1.0, 2.0, 3.0),
        "chi_s": (1.0, 1.5, 2.5),
        "lin": (0.3,),
        "e_gamma": (1.0, 1.7, 4.0),
        "degroot": (0.3, 0.5, 0.8),
    }
    terms = []
    for family, row in _FAMILIES.items():
        if family in params:
            terms += [row.term(a) for a in params[family]]
        else:
            terms.append(row.term())
    return terms + [_alpha_breg(0.3), catalog_generators()[-1]._breg]


# masses a sweep draws besides uniform ones: zero (a singular atom where
# the other measure has mass), the least subnormal, a tiny normal, and one
# whose ratio to 1 passes e^709
SPECIAL_MASSES = (0.0, 5e-324, 1e-300, 1e-310)


def special_weights(rng, n: int) -> list[float]:
    """n uniform weights in [0.01, 1), each replaced with chance 0.4 by one
    of ``SPECIAL_MASSES``, and a last weight 1, so that the sum is positive."""
    return [
        SPECIAL_MASSES[int(rng.integers(4))] if rng.random() < 0.4 else w
        for w in rng.uniform(0.01, 1.0, size=n)
    ] + [1.0]

def catalog_generators():
    """Every catalog family (the parametric ones at orders on both sides of
    their special values) and a kinked custom generator with finite limits."""
    return [
        generator("kl"),
        generator("jeffreys"),
        generator("hellinger", alpha=0.5),
        generator("hellinger", alpha=2.0),
        generator("chi_squared"),
        generator("chi_s", s=1.0),
        generator("chi_s", s=1.5),
        generator("chi_s", s=3.0),
        generator("total_variation"),
        generator("triangular"),
        generator("lin", theta=0.3),
        generator("jensen_shannon"),
        generator("e_gamma", gamma=1.0),
        generator("e_gamma", gamma=2.0),
        generator("degroot", omega=0.3),
        generator("degroot", omega=0.7),
        generator(
            "custom",
            eval=lambda t: (math.sqrt(t) - 1.0) ** 2 + 0.5 * abs(t - 1.0),
            f_at_zero=1.5,
            fstar_at_zero=1.5,
            right_deriv_at_one=0.5,
            left_deriv_at_one=-0.5,
            kink=1.0,
        ),
    ]


def _conj_eval(fc, t: float) -> float:
    return fc.f_at_zero if t == 0.0 else fc._eval(t)


def conjugate_fdiv_lower_via_egamma(f, e_val: float, gamma: float) -> float:
    """Reference E_gamma lower bound, evaluated on a conjugate generator
    built per call."""
    fc = conjugate(f)
    return (
        _conj_eval(fc, 1.0 + e_val / gamma)
        + _conj_eval(fc, (1.0 - e_val) / gamma)
        - _conj_eval(fc, 1.0 / gamma)
    )


def conjugate_fdiv_lower_via_degroot(f, omega: float, i_val: float) -> float:
    """Reference DeGroot lower bound, evaluated on a conjugate generator
    built per call."""
    fc = conjugate(f)
    if omega <= 0.5:
        comp = 1.0 - omega
        return (
            _conj_eval(fc, 1.0 + i_val / comp)
            + _conj_eval(fc, (omega - i_val) / comp)
            - _conj_eval(fc, omega / comp)
        )
    return (
        _conj_eval(fc, 1.0 + i_val / omega)
        + _conj_eval(fc, (1.0 - omega - i_val) / omega)
        - _conj_eval(fc, (1.0 - omega) / omega)
    )


def multipass_f_divergence(
    f, p: DiscreteDistribution, q: DiscreteDistribution
) -> DivergenceValue:
    """Reference f-divergence over f's shifted term q (f(p/q) - c (p/q - 1)).

    First every atom's term in a list of its own, summed once; where a term
    fails or the sum is not finite, every atom again into one fsum: an atom
    charged by both measures through ``_edge_term``, a singular one as its
    term where finite, else the Q-mass where p = 0 weighted by f(0) + c, the
    P-mass where q = 0 by f*(0) - c, and 0 where both masses are 0."""
    b = f._breg

    def pairs():
        if len(p) != len(q):
            raise ValidationError(
                f"distributions live on different alphabets ({len(p)} vs {len(q)} atoms)"
            )
        return zip(p.masses, q.masses)

    def term(pm, qm):
        return b.term(*(pm - qm, qm, pm)[b.reads])

    def singular(pm, qm):
        try:
            value = term(pm, qm)
        except (ZeroDivisionError, OverflowError, ValueError):
            value = math.nan
        if math.isfinite(value):
            return value
        if qm > 0.0:
            return qm * b.at_zero
        return pm * b.at_inf if pm > 0.0 else 0.0

    try:
        total = math.fsum([term(pm, qm) for pm, qm in pairs()])
    except (ZeroDivisionError, OverflowError, ValueError):
        total = math.nan
    if math.isfinite(total):
        return DivergenceValue(total, f.family, dict(f.params))
    terms = [
        _edge_term(b, pm - qm, qm, pm) if pm > 0.0 and qm > 0.0 else singular(pm, qm)
        for pm, qm in pairs()
    ]
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    return DivergenceValue(total, f.family, dict(f.params))


def mp_family(family: str, a: float | None):
    """(f, f(0), f*(0), c) in mpmath for a catalog family; c is the
    subgradient at 1 that the package's term uses."""
    if family == "kl":
        return (lambda u: u * mpmath.log(u)), 0, INF, 1
    if family == "jeffreys":
        return (lambda u: (u - 1) * mpmath.log(u)), INF, INF, 0
    if family == "hellinger":
        al = mpmath.mpf(a)
        return (
            (lambda u: (u**al - 1) / (al - 1)),
            1 / (1 - al),
            INF if a > 1.0 else 0,
            al / (al - 1),
        )
    if family == "chi_squared":
        return (lambda u: (u - 1) ** 2), 1, INF, 0
    if family in ("total_variation", "chi_s") and (a is None or a == 1.0):
        return (lambda u: abs(u - 1)), 1, 1, 0
    if family == "chi_s":
        return (lambda u: abs(u - 1) ** mpmath.mpf(a)), 1, INF, 0
    if family == "triangular":
        return (lambda u: (u - 1) ** 2 / (u + 1)), 1, 1, 0
    if family in ("lin", "jensen_shannon"):
        th = mpmath.mpf(0.5 if a is None else a)

        def lin(u):
            m = th * u + 1 - th
            return th * u * mpmath.log(u) - m * mpmath.log(m)

        return lin, -(1 - th) * mpmath.log(1 - th), -th * mpmath.log(th), 0
    if family == "e_gamma":
        g = mpmath.mpf(a)
        return (lambda u: max(u - g, 0)), 0, 1, 0
    if family == "degroot":
        w = mpmath.mpf(a)
        m = min(w, 1 - w)
        return (lambda u: m - min(w * u, 1 - w)), m, 0, (-w if a <= 0.5 else 0)
    raise AssertionError(family)


def _mp_deriv(family: str, a: float | None):
    """f' in mpmath for a differentiable catalog family."""
    if family == "kl":
        return lambda u: mpmath.log(u) + 1
    if family == "jeffreys":
        return lambda u: mpmath.log(u) + 1 - 1 / u
    if family == "hellinger":
        al = mpmath.mpf(a)
        return lambda u: al * u ** (al - 1) / (al - 1)
    if family == "chi_squared":
        return lambda u: 2 * (u - 1)
    if family == "chi_s":
        s = mpmath.mpf(a)
        return lambda u: s * abs(u - 1) ** (s - 1) * mpmath.sign(u - 1)
    if family == "triangular":
        return lambda u: (u - 1) * (u + 3) / (u + 1) ** 2
    if family in ("lin", "jensen_shannon"):
        th = mpmath.mpf(0.5 if a is None else a)
        return lambda u: th * (mpmath.log(u) - mpmath.log(th * u + 1 - th))
    raise AssertionError(family)


def weight_kernel(f, beta, c: float | None = None):
    """The paper's kernel w_{f,c}(beta) of the general representation, in
    40-digit arithmetic from the textbook generator of f's family:
    |f'(beta) - (f(beta) + f'(1))/beta| / beta, which is |h'(beta)| for
    h(beta) = (f(beta) + f'(1))/beta, plus, where c is given,
    (c/beta^2)(1{beta >= 1} - 1{beta < 1}).  Refuses a kinked f."""
    if not f.is_smooth:
        raise KinkError(f"the kernel of {f.family} needs a differentiable f")
    a = f.params[0][1] if f.params else None
    fm, _, _, d1 = mp_family(f.family, a)
    df = _mp_deriv(f.family, a)
    with mp.workdps(40):
        b = mpmath.mpf(beta)
        w = abs(df(b) - (fm(b) + d1) / b) / b
        if c is not None:
            w += c / b**2 * (1 if b >= 1 else -1)
        return w


def named_kernel(kind: str, **params: float):
    """The paper's representation of a named divergence, in 40-digit
    arithmetic: (const, pieces), the divergence being const plus, for each
    piece (lo, hi, kernel, side), the integral over (lo, hi) of
    kernel(beta) G(beta), where G is 1 - F(ln beta) for side "tail" and
    F(ln beta) for side "head".

    KL: 1/beta, + above 1 and - below; Jeffreys: 1/beta + ln(beta)/beta^2,
    signed the same way; chi^2: 1 - 1 on the tail; TV: 2/beta^2 above 1;
    E_gamma: gamma/beta^2 on (gamma, inf); DeGroot: (1 - omega)/beta^2 on
    the tail above (1 - omega)/omega for omega <= 1/2, on the head below it
    otherwise; triangular: 4/(beta + 1)^2 - 2 on the tail; Lin (JS at
    theta = 1/2): h(theta) - (1 - theta) ln(1 + theta beta/(1 - theta))/beta^2
    on the head; Hellinger: beta^(alpha - 2) on the tail less 1/(alpha - 1)
    above order 1, 1/(1 - alpha) less it on the head below.
    """
    mpf = mpmath.mpf
    with mp.workdps(40):
        if kind in ("kl", "jeffreys"):
            k = (lambda b: 1 / b) if kind == "kl" else (lambda b: 1 / b + mpmath.log(b) / b**2)
            return 0, [(1, INF, k, "tail"), (0, 1, lambda b: -k(b), "head")]
        if kind == "chi2":
            return -1, [(0, INF, lambda b: 1, "tail")]
        if kind == "tv":
            return 0, [(1, INF, lambda b: 2 / b**2, "tail")]
        if kind == "e_gamma":
            g = mpf(params["gamma"])
            return 0, [(g, INF, lambda b: g / b**2, "tail")]
        if kind == "degroot":
            w = mpf(params["omega"])
            thr, k = (1 - w) / w, (lambda b: (1 - w) / b**2)
            return 0, [(thr, INF, k, "tail") if w <= 0.5 else (0, thr, k, "head")]
        if kind == "triangular":
            return -2, [(0, INF, lambda b: 4 / (b + 1) ** 2, "tail")]
        if kind in ("lin", "js"):
            th = mpf(params.get("theta", 0.5))
            h = -th * mpmath.log(th) - (1 - th) * mpmath.log(1 - th)
            k = lambda b: -(1 - th) * mpmath.log1p(th * b / (1 - th)) / b**2
            return h, [(0, INF, k, "head")]
        if kind == "hellinger":
            al = mpf(params["alpha"])
            if al > 1:
                return -1 / (al - 1), [(0, INF, lambda b: b ** (al - 2), "tail")]
            return 1 / (1 - al), [(0, INF, lambda b: -(b ** (al - 2)), "head")]
    raise AssertionError(kind)


# the min-sum below costs O(rate), ~0.6 s at this rate
MINSUM_MAX_RATE = 1e5


def truncation_index(model: PoissonModel) -> int:
    """rate + 20 sqrt(rate) + 30, which keeps the Poisson mass past it below
    ~1e-12 for rates up to 1e4."""
    return math.ceil(model.rate + 20.0 * math.sqrt(model.rate) + 30.0)


def poisson_degroot_minsum(mu: float, lam: float, omega: float) -> float:
    """DeGroot information by the generic min-sum over a truncated support;
    independent cross-check of poisson_degroot_exact.  It costs O(rate), so
    it takes rates up to MINSUM_MAX_RATE only."""
    for rate in (mu, lam):
        if not 0.0 < rate <= MINSUM_MAX_RATE:
            raise DomainError(f"min-sum rate must lie in (0, {MINSUM_MAX_RATE:g}]")
    if not 0.0 < omega < 1.0:
        raise DomainError("prior must lie in (0, 1)")
    model_mu = PoissonModel(mu)
    model_lam = PoissonModel(lam)
    top = max(truncation_index(model_mu), truncation_index(model_lam))
    posterior = math.fsum(
        min(omega * model_mu.pmf(k), (1.0 - omega) * model_lam.pmf(k))
        for k in range(top + 1)
    )
    return min(omega, 1.0 - omega) - posterior


def degroot_oracle(mu, lam, omega, sigmas=40):
    """I_omega(P_mu || P_lam) at 40 digits: the sum of the positive parts of
    omega P_mu[k] - (1-omega) P_lam[k] (omega <= 1/2) or of the reverse
    difference, over every count within `sigmas` standard deviations of
    either law (the rest is below e^(-sigmas^2 / 2) of the masses)."""
    with mpmath.workdps(40):
        m, l = mpmath.mpf(mu), mpmath.mpf(lam)
        a = mpmath.mpf(omega)
        b = 1 - a
        lo = max(0, math.floor(min(mu, lam) - sigmas * math.sqrt(min(mu, lam)) - 50))
        hi = math.ceil(max(mu, lam) + sigmas * math.sqrt(max(mu, lam)) + 250)
        pm = mpmath.exp(lo * mpmath.log(m) - m - mpmath.loggamma(lo + 1))
        pl = mpmath.exp(lo * mpmath.log(l) - l - mpmath.loggamma(lo + 1))
        total = mpmath.mpf(0)
        for k in range(lo, hi + 1):
            d = a * pm - b * pl if a <= b else b * pl - a * pm
            if d > 0:
                total += d
            pm *= m / (k + 1)
            pl *= l / (k + 1)
        return float(total)


def outcome(fn, *args):
    """A call's result in a form that compares bit for bit: the value's hex
    (and the family and parameters of a DivergenceValue), or the exception's
    type and message."""
    try:
        val = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(val, DivergenceValue):
        return (val.value.hex(), val.kind, val.params)
    return val.hex()


def settles(fn, *args) -> bool:
    """Whether a call ends in a number other than NaN (inf included) or in
    a DivkitError; any other exception propagates."""
    try:
        return not math.isnan(fn(*args))
    except DivkitError:
        return True


def assert_close(actual: float, expected: float, tol: float, label: str = "") -> None:
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} vs expected {expected!r} (tol {tol})"
    )
