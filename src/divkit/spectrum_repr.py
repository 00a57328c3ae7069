"""Integral representations of f-divergences via the relative information
spectrum.

Every engine here reduces the spectrum to segments on which it is constant
and then integrates the representation kernel segment by segment.  The
named catalog is exact for every kind: each kernel has an elementary
antiderivative (powers of beta, 1/(beta+1)^2, and the logarithmic kernels
of Lin/Jensen-Shannon/Jeffreys), so its agreement tests check the formulas
alone.  The general and inverse-g engines are one exact sum of g
increments over the same segments.  Only the DeGroot-weight engine
integrates, by adaptive 21-point Gauss-Kronrod quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional

from .distributions import (
    DiscreteDistribution,
    SpectrumFunction,
    spectrum,
)
from .divergences import _masses, _singular_masses, divergence
from .errors import (
    AbsoluteContinuityError,
    CapabilityError,
    DomainError,
    KinkError,
    UnknownKindError,
)
from .generators import GeneratorFunction, _g_edge, kind_args
from .quadrature import integrate

__all__ = [
    "represent_general",
    "represent_inverse_g",
    "represent_named",
    "spectrum_identity",
    "spectrum_from_egamma",
    "spectrum_from_degroot",
    "represent_degroot_weight",
]


def _require_pq_dominated(singular_mass_p: float) -> None:
    if singular_mass_p != 0.0:
        raise AbsoluteContinuityError(
            "P is not absolutely continuous w.r.t. Q "
            f"(P-mass {singular_mass_p} sits where Q vanishes)"
        )


def _require_qp_dominated(singular_mass_q: float) -> None:
    if singular_mass_q != 0.0:
        raise AbsoluteContinuityError(
            "Q is not absolutely continuous w.r.t. P "
            f"(Q-mass {singular_mass_q} sits where P vanishes)"
        )


def _require_mutual(f: SpectrumFunction) -> None:
    _require_pq_dominated(f.singular_mass_p)
    _require_qp_dominated(f.singular_mass_q)


def _require_mutual_pair(p: DiscreteDistribution, q: DiscreteDistribution) -> None:
    """_require_mutual in one pass over the masses, without a spectrum."""
    q_where_p0, p_where_q0 = _singular_masses(*_masses(p, q))
    _require_pq_dominated(p_where_q0)
    _require_qp_dominated(q_where_p0)


def _log_segments(f: SpectrumFunction, extra_cuts: tuple[float, ...] = ()):
    """Segments (x_lo, x_hi, cdf value) between spectrum breakpoints, cut
    at 0 and at any extra log-abscissae, in one pass over the breakpoints."""
    bps, cums = f.breakpoints, f.cum_masses
    if not bps:
        return []
    cuts = sorted({c for c in (0.0, *extra_cuts) if bps[0] < c < bps[-1]})
    segs = []
    k = 0
    for x0, x1, cval in zip(bps, bps[1:], cums):
        while k < len(cuts) and cuts[k] <= x1:
            if cuts[k] < x1:
                segs.append((x0, cuts[k], cval))
                x0 = cuts[k]
            k += 1
        segs.append((x0, x1, cval))
    return segs


def _g_sum(
    f: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    c: float = 0.0,
) -> float:
    """The sum over the spectrum segments [x0, x1] (cut at 0), on which F
    equals cdf, of G |g(x1) - g(x0)| -- G = 1 - cdf above 0, cdf below --
    plus, where c is not 0, the c kernel's exact part
    +-c G (e^-x0 - e^-x1), + above 0 and - below.

    g comes from f's shifted term through ``generators._g_edge``.  Below 0
    each piece is formed from cdf e^-x = exp(ln cdf - x), at most the Q-mass
    below the ratio, times the term at (e^x - 1, 1, e^x), so that e^-x never
    leaves the float range.
    """
    if not f.is_smooth:
        raise KinkError(
            f"generator {f.family} has a kink; use represent_named instead"
        )
    spec = spectrum(p, q)
    _require_mutual(spec)
    if not spec.breakpoints:
        return 0.0
    segs = _log_segments(spec)
    # F is 0 below the first breakpoint and its top value above the last;
    # those stretches reach x = 0 only when every ratio sits on one side of
    # 1, which rounding in the masses can cause
    x_min, x_max = spec.breakpoints[0], spec.breakpoints[-1]
    if x_min > 0.0:
        segs.insert(0, (0.0, x_min, 0.0))
    if x_max < 0.0:
        segs.append((x_max, 0.0, spec.cum_masses[-1]))
    if not segs:
        return 0.0
    b = f._breg
    edges = [_g_edge(b, x) for x in [x0 for x0, _, _ in segs] + [segs[-1][1]]]
    pieces = []
    for (x0, x1, cdf), v0, v1 in zip(segs, edges, edges[1:]):
        if x0 >= 0.0:
            tail = 1.0 - cdf
            if tail == 0.0:
                continue
            if v1 != v0:  # not the same inf at both ends, past x = 700
                pieces.append(tail * (v1 - v0))
            if c != 0.0:
                pieces.append(c * tail * (math.exp(-x0) - math.exp(-x1)))
        elif cdf != 0.0:
            log_cdf = math.log(cdf)
            a0, a1 = math.exp(log_cdf - x0), math.exp(log_cdf - x1)
            pieces.append(a0 * v0 - a1 * v1)
            if c != 0.0:
                pieces.append(-c * (a0 - a1))
    return math.fsum(pieces)


def represent_general(
    f: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    c: float = 0.0,
) -> float:
    """Divergence as the integral of the weight kernel w_{f,c} against the
    spectral tail function G, taken exactly.

    The kernel is w = |h'| plus the c part (c/beta^2)(1{beta>=1} -
    1{beta<1}), where h(beta) = (f(beta) + f'(1))/beta = g(ln beta) + f'(1)
    is monotone on either side of 1.  G is constant on each spectrum
    segment, so the integral is the sum of G |g(x1) - g(x0)| over the
    segments, with the c part's exact segment integrals
    c G (e^-x0 - e^-x1) added above 1 and subtracted below; those sum to 0
    up to the masses' rounding, so the result is c-independent.  Works for any
    generator differentiable on (0, inf); requires mutual absolute
    continuity.  Kinked generators are routed to the named catalog.
    """
    return _g_sum(f, p, q, c)


def represent_inverse_g(
    f: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution
) -> float:
    """Divergence via the two inverse branches of the g transform.

    The integrands 1 - F(l1(t)) and F(l2(t)) are step functions of t with
    jumps at the g(x_j), so the integral over t is an exact sum over the
    spectrum segments [x0, x1] (cut at 0) on which F is constant:
    (g(x1) - g(x0)) (1 - F) for x0 >= 0 and (g(x0) - g(x1)) F below 0 --
    the general engine's sum at c = 0.  No quadrature and no inversion of
    g, so it agrees with the direct sum to rounding error.  Requires a
    differentiable f.
    """
    return _g_sum(f, p, q)


# -- named catalog -----------------------------------------------------------


def _exact_piecewise(
    f: SpectrumFunction,
    anti: Callable[[float], float],
    use_tail: bool,
    lo: float = 0.0,
    hi: float = math.inf,
    extra_cuts: tuple[float, ...] = (),
    anti_at_inf: Optional[float] = None,
) -> float:
    """Integrate kernel * step over [lo, hi] with an exact antiderivative.

    ``use_tail`` False integrates kernel * F (zero below the lowest ratio),
    True integrates kernel * (1 - F) (zero above the highest ratio, and
    equal to the kernel below the lowest one).
    """

    def anti_at(b: float) -> float:
        if math.isinf(b):
            if anti_at_inf is None:
                raise ValueError("infinite limit without a tail antiderivative")
            return anti_at_inf
        return anti(b)

    log_cuts = tuple(math.log(c) for c in extra_cuts if c > 0.0)
    pieces = []
    if not f.breakpoints:
        return 0.0
    beta_first = math.exp(f.breakpoints[0])
    beta_last = math.exp(f.breakpoints[-1])
    # head: below the first breakpoint F = 0
    if use_tail and lo < beta_first:
        head_hi = min(beta_first, hi)
        if head_hi > lo:
            pieces.append(anti_at(head_hi) - anti_at(lo))
    # interior segments: only those with exp(x_hi) > lo and exp(x_lo) < hi
    segs = _log_segments(f, extra_cuts=log_cuts)
    first = bisect_right(segs, lo, key=lambda s: math.exp(s[1]))
    last = bisect_left(segs, hi, lo=first, key=lambda s: math.exp(s[0]))
    window = segs[first:last]
    betas = [math.exp(x0) for x0, _, _ in window]
    if window:
        betas.append(math.exp(window[-1][1]))
    for (_, _, cval), e0, e1 in zip(window, betas, betas[1:]):
        b0, b1 = max(e0, lo), min(e1, hi)
        if b1 <= b0:
            continue
        val = (1.0 - cval) if use_tail else cval
        if val != 0.0:
            pieces.append(val * (anti_at(b1) - anti_at(b0)))
    # tail: above the last breakpoint F = sup F (1 when P << Q)
    if not use_tail and hi > beta_last:
        sup_f = f.cum_masses[-1]
        if sup_f != 0.0:
            pieces.append(sup_f * (anti_at(hi) - anti_at(max(beta_last, lo))))
    return math.fsum(pieces)


def _named_kl(f: SpectrumFunction) -> float:
    _require_mutual(f)
    up = _exact_piecewise(f, math.log, use_tail=True, lo=1.0)
    down = _exact_piecewise(f, math.log, use_tail=False, hi=1.0)
    return up - down


def _named_hellinger(f: SpectrumFunction, alpha: float) -> float:
    if alpha == 1.0:
        return _named_kl(f)  # analytic extension at order 1
    _require_mutual(f)
    am1 = alpha - 1.0
    anti = lambda b: b**am1 / am1
    if alpha > 1.0:
        # head integral of the bare kernel converges at 0 for alpha > 1
        return _exact_piecewise(f, anti, use_tail=True, anti_at_inf=None) - 1.0 / am1
    tail = 0.0  # anti tends to 0 at infinity for alpha < 1
    return 1.0 / (1.0 - alpha) - _exact_piecewise(f, anti, use_tail=False, anti_at_inf=tail)


def _named_chi2(f: SpectrumFunction) -> float:
    _require_mutual(f)
    return _exact_piecewise(f, lambda b: b, use_tail=True) - 1.0


def _named_sq_hellinger(f: SpectrumFunction) -> float:
    _require_mutual(f)
    integral = _exact_piecewise(
        f, lambda b: -2.0 / math.sqrt(b), use_tail=False, anti_at_inf=0.0
    )
    return 1.0 - 0.5 * integral


def _named_bhattacharyya(f: SpectrumFunction) -> float:
    _require_mutual(f)
    integral = _exact_piecewise(
        f, lambda b: -2.0 / math.sqrt(b), use_tail=False, anti_at_inf=0.0
    )
    return math.log(2.0) - math.log(integral)


def _named_renyi(f: SpectrumFunction, alpha: float) -> float:
    if alpha == 1.0:
        return _named_kl(f)  # analytic extension at order 1
    _require_mutual(f)
    am1 = alpha - 1.0
    anti = lambda b: b**am1 / am1
    if alpha > 1.0:
        integral = _exact_piecewise(f, anti, use_tail=True)
        return math.log(am1 * integral) / am1
    integral = _exact_piecewise(f, anti, use_tail=False, anti_at_inf=0.0)
    return math.log((1.0 - alpha) * integral) / am1


def _named_chi_s(f: SpectrumFunction, s: float) -> float:
    _require_mutual(f)
    # d/db [ (b-1)^s / b ] and d/db [ -(1-b)^s / b ] reproduce the kernel
    # (1/b)(s - 1 + 1/b)|b-1|^(s-1) on the two sides of 1.
    up = _exact_piecewise(f, lambda b: (b - 1.0) ** s / b, use_tail=True, lo=1.0)
    down = _exact_piecewise(f, lambda b: -((1.0 - b) ** s) / b, use_tail=False, hi=1.0)
    return up + down


def _named_tv(f: SpectrumFunction, form: str = "tail") -> float:
    _require_mutual(f)
    anti = lambda b: -1.0 / b
    if form == "tail":
        return 2.0 * _exact_piecewise(f, anti, use_tail=True, lo=1.0)
    if form == "head":
        return 2.0 * _exact_piecewise(f, anti, use_tail=False, hi=1.0)
    raise UnknownKindError(f"unknown TV form {form!r}")


def _named_degroot(f: SpectrumFunction, omega: float) -> float:
    anti = lambda b: -1.0 / b
    thr = (1.0 - omega) / omega
    if omega <= 0.5:
        _require_pq_dominated(f.singular_mass_p)
        return (1.0 - omega) * _exact_piecewise(
            f, anti, use_tail=True, lo=thr, anti_at_inf=0.0, extra_cuts=(thr,)
        )
    _require_qp_dominated(f.singular_mass_q)
    return (1.0 - omega) * _exact_piecewise(
        f, anti, use_tail=False, hi=thr, extra_cuts=(thr,)
    )


def _named_e_gamma(f: SpectrumFunction, gamma: float) -> float:
    _require_pq_dominated(f.singular_mass_p)
    anti = lambda b: -1.0 / b
    return gamma * _exact_piecewise(
        f, anti, use_tail=True, lo=gamma, anti_at_inf=0.0, extra_cuts=(gamma,)
    )


def _named_triangular(f: SpectrumFunction) -> float:
    _require_mutual(f)
    anti = lambda b: -1.0 / (b + 1.0)
    return 4.0 * _exact_piecewise(f, anti, use_tail=True, anti_at_inf=0.0) - 2.0


def _named_lin(f: SpectrumFunction, theta: float) -> float:
    _require_mutual(f)
    a = theta / (1.0 - theta)
    # antiderivative of the kernel log1p(a b) / b^2 that vanishes at infinity:
    # -log1p(a b) / b + a ln(a b / (1 + a b)), two terms of one sign
    def anti(b: float) -> float:
        u = a * b
        log_ratio = -math.log1p(1.0 / u) if u > 1.0 else math.log(u) - math.log1p(u)
        return -math.log1p(u) / b + a * log_ratio

    entropy = -theta * math.log(theta) - (1.0 - theta) * math.log(1.0 - theta)
    integral = _exact_piecewise(f, anti, use_tail=False, anti_at_inf=0.0)
    return entropy - (1.0 - theta) * integral


def _named_jeffreys(f: SpectrumFunction) -> float:
    _require_mutual(f)
    # antiderivative of the kernel 1/b + ln(b) / b^2, zero at b = 1
    anti = lambda b: (1.0 - 1.0 / b) * (1.0 + math.log(b))
    up = _exact_piecewise(f, anti, use_tail=True, lo=1.0)
    down = _exact_piecewise(f, anti, use_tail=False, hi=1.0)
    return up - down


_NAMED: dict[str, Callable[..., float]] = {
    "kl": _named_kl,
    "hellinger": _named_hellinger,
    "chi2": _named_chi2,
    "sq_hellinger": _named_sq_hellinger,
    "bhattacharyya": _named_bhattacharyya,
    "renyi": _named_renyi,
    "chi_s": _named_chi_s,
    "tv": _named_tv,
    "degroot": _named_degroot,
    "e_gamma": _named_e_gamma,
    "triangular": _named_triangular,
    "lin": _named_lin,
    "js": lambda f: _named_lin(f, 0.5),
    "jeffreys": _named_jeffreys,
}


def represent_named(
    kind: str, p: DiscreteDistribution, q: DiscreteDistribution, **params: float
) -> float:
    """Evaluate the catalog integral representation of a named divergence.

    Mutual absolute continuity is required except where one-sided
    domination suffices (E_gamma and DeGroot with omega <= 1/2 need only
    P << Q; DeGroot with omega > 1/2 only Q << P).  For tv, ``form="head"``
    integrates the head of the spectrum instead of its tail.
    """
    args = kind_args(kind, params)
    named = _NAMED.get(kind)
    if named is None:
        raise UnknownKindError(f"no integral representation for kind {kind!r}")
    if named is _named_tv and "form" in params:
        args = (params["form"],)
    return named(spectrum(p, q), *args)


def spectrum_identity(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """The exact integral of F(ln beta)/beta^2 over (0, inf).

    The integral equals the expectation of the inverse likelihood ratio
    under P, i.e. the Q-mass of P's support, so it is 1 exactly when
    Q << P (P may still put mass where Q vanishes).
    """
    f = spectrum(p, q)
    _require_qp_dominated(f.singular_mass_q)
    return _exact_piecewise(f, lambda b: -1.0 / b, use_tail=False, anti_at_inf=0.0)


def spectrum_from_egamma(
    p: DiscreteDistribution, q: DiscreteDistribution, x: float
) -> float:
    """Reconstruct the spectrum CDF at x from the E_gamma curve.

    Uses the exact right-derivative of gamma -> E_gamma; this reproduces
    the right-continuous CDF for x >= 0 and the left limit at atoms for
    x < 0 (so it matches spectrum_eval at every continuity point).  In
    1 - E_gamma + gamma E'_gamma the gamma-terms cancel analytically, which
    leaves the P-mass on one side of x; comparing log-ratios with x keeps
    that finite for every x, where exp(|x|) would overflow past 709.78.
    """
    _require_mutual_pair(p, q)
    ratios = [
        (pm, math.log(pm) - math.log(qm))
        for pm, qm in zip(p.masses, q.masses)
        if pm > 0.0
    ]
    if x >= 0.0:
        return 1.0 - math.fsum(pm for pm, r in ratios if r > x)
    # -E'_gamma(Q||P) at gamma = exp(-x), with the swapped-pair right-derivative
    return math.fsum(pm for pm, r in ratios if r < x)


def _degroot_right_derivative(
    p: DiscreteDistribution, q: DiscreteDistribution, omega: float
) -> float:
    prior_part = 1.0 if omega < 0.5 else -1.0
    posterior_part = math.fsum(
        pm if omega * pm < (1.0 - omega) * qm else -qm
        for pm, qm in zip(p.masses, q.masses)
    )
    return prior_part - posterior_part


def spectrum_from_degroot(
    p: DiscreteDistribution, q: DiscreteDistribution, x: float
) -> float:
    """Reconstruct the spectrum CDF at x from the DeGroot information
    curve, solving omega from x = ln((1-omega)/omega).

    Same one-sided-derivative convention as spectrum_from_egamma.
    """
    _require_mutual_pair(p, q)
    if abs(x) > 700.0:
        raise DomainError("prior solved from x underflows past |x| ~ 700")
    # overflow-safe solve of x = ln((1-omega)/omega)
    if x >= 0.0:
        emx = math.exp(-x)
        omega = emx / (1.0 + emx)
    else:
        omega = 1.0 / (1.0 + math.exp(x))
    i_val = float(divergence("degroot", p, q, omega=omega))
    i_slope = _degroot_right_derivative(p, q, omega)
    if x > 0.0:
        return 1.0 - i_val - (1.0 - omega) * i_slope
    return -i_val - (1.0 - omega) * i_slope


def represent_degroot_weight(
    f: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution
) -> float:
    """Divergence as a DeGroot-information-weighted integral over priors.

    Valid for twice-differentiable generators: integrates
    I_omega(P||Q) f''((1-omega)/omega) / omega^3 over omega in (0, 1).
    (With the prior-on-P convention used here, the second derivative is
    evaluated at the likelihood-ratio threshold (1-omega)/omega; this is
    the form that reproduces the direct divergence.)  On finite alphabets
    the integrand has compact support; it is split at the prior images of
    the likelihood-ratio atoms (and at 1/2).
    """
    if f._second is None:
        raise CapabilityError(
            f"generator {f.family} supplies no second derivative"
        )
    spec = spectrum(p, q)
    _require_mutual(spec)
    if not spec.breakpoints:
        return 0.0
    betas = [math.exp(x) for x in spec.breakpoints]
    lo = 1.0 / (1.0 + betas[-1])
    hi = 1.0 / (1.0 + betas[0])
    if lo >= hi:
        return 0.0
    cuts = sorted({lo, hi, 0.5, *(1.0 / (1.0 + b) for b in betas)})
    cuts = [c for c in cuts if lo <= c <= hi]

    def integrand(omega: float) -> float:
        i_val = float(divergence("degroot", p, q, omega=omega))
        t = (1.0 - omega) / omega
        return i_val * f.second(t) / omega**3

    pieces = [
        integrate(integrand, c0, c1, rel_tol=1e-10)
        for c0, c1 in zip(cuts, cuts[1:])
    ]
    return math.fsum(pieces)
