"""Integral representations of f-divergences via the relative information
spectrum.

Every engine here reduces the spectrum to segments on which it is constant.
The named, general and inverse-g engines are one exact sum over those
segments (``_g_sum``): the paper's general representation, whose kernel
|h'| integrates on a segment to |g(x1) - g(x0)|, with g read from a shifted
term (``terms.Breg``); its c part integrates to exactly 0 under the mutual
continuity the general engine requires.  A named kind is resolved by
``divergence()``'s own resolver, ``divergences._kind_sum``, with that sum
in place of the direct one; so a named representation is checked against
the paper's per-kind kernels (the tests' 40-digit quadrature), not against
``divergence()`` alone.  Only the DeGroot-weight engine integrates, by
adaptive 21-point Gauss-Kronrod quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, compress, islice, repeat
from math import exp, expm1, isfinite, log, nan
from operator import gt, lt, neg, sub

from .distributions import (
    DiscreteDistribution, SpectrumFunction, _atoms, _pair_slot, _spectrum, spectrum
)
from .divergences import _kind_sum, _shifted_sum
from .errors import (
    AbsoluteContinuityError,
    CapabilityError,
    DomainError,
    KinkError,
    _real,
)
from .generators import GeneratorFunction, kind_args
from .terms import Breg, _degroot_breg, _g_edge
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


def _require_mutual(q_where_p0: float, p_where_q0: float) -> None:
    _require_pq_dominated(p_where_q0)
    _require_qp_dominated(q_where_p0)


def _g_sum(b: Breg, spec: SpectrumFunction) -> float:
    """The sum over the spectrum segments [x0, x1] (cut at 0), on which F
    equals cdf, of G |g(x1) - g(x0)|, G = 1 - cdf above 0 and cdf below.

    The segments are read in one walk over the breakpoints below 0 and one
    from 0 up, 0 a point of both, F at 0 being the value of the last
    breakpoint below it (0 if none).  So the stretch between 0 and the
    nearest breakpoint is a segment when every ratio sits on one side of 1,
    which rounding in the masses can cause, and an empty spectrum sums to 0.

    g is the shifted term ``b`` as ``terms._g_edge`` takes it, called once
    per breakpoint; ``_g_edge`` itself only past x = 700 and where the term
    raises or is not finite.  Above 0 the term is read at e^-x.  Below 0
    each piece is formed from cdf e^-x = exp(ln cdf - x), at most the Q-mass
    below the ratio, times the term at (e^x - 1, 1, e^x), so that e^-x
    never leaves the float range.  The sum telescopes, so a kink in f costs
    nothing: g is continuous and monotone on each side of 0 for every
    convex f.

    A singular mass is refused only where the term charges it: Q-mass where
    p = 0 unless ``at_zero`` is 0, P-mass where q = 0 unless ``at_inf`` is 0.
    Where it is 0 the mass adds nothing, since g rises on [0, inf) to
    ``at_inf``.
    """
    xs, cdfs, p_where_q0, q_where_p0 = spec
    if q_where_p0 != 0.0 and b.at_zero != 0.0:
        _require_qp_dominated(q_where_p0)
    if p_where_q0 != 0.0 and b.at_inf != 0.0:
        _require_pq_dominated(p_where_q0)
    term, reads = b.term, b.reads
    k = bisect_left(xs, 0.0)
    pieces: list[float] = []
    # below 0, then 0 itself, where the term reads (0, 1, 1) on either side
    for j, x in enumerate(chain(islice(xs, k), (0.0,))):
        try:
            v = term(*(expm1(x), 1.0, exp(x))[reads])
        except (OverflowError, ValueError):
            v = nan
        if not isfinite(v):
            v = _g_edge(b, x)
        if j:  # the segment [x0, x]
            cdf = cdfs[j - 1]
            if cdf != 0.0:
                log_cdf = log(cdf)
                a0, a1 = exp(log_cdf - x0), exp(log_cdf - x)
                pieces.append(a0 * v0 - a1 * v)
        x0, v0 = x, v
    k = bisect_right(xs, 0.0, k)  # past a breakpoint at 0
    cdf = cdfs[k - 1] if k else 0.0
    for j in range(k, len(xs)):  # the segment from the point before x up to x
        x = xs[j]
        try:
            v = term(*(-expm1(-x), exp(-x), 1.0)[reads]) if x <= 700.0 else nan
        except (OverflowError, ValueError):
            v = nan
        if not isfinite(v):
            v = _g_edge(b, x)
        tail = 1.0 - cdf
        if tail != 0.0 and v != v0:  # not the same inf at both ends, past x = 700
            pieces.append(tail * (v - v0))
        v0, cdf = v, cdfs[j]
    return math.fsum(pieces)


def _smooth_spectrum(
    f: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution
) -> SpectrumFunction:
    """The spectrum of a mutually absolutely continuous pair, for an engine
    of a differentiable generator."""
    if not f.is_smooth:
        raise KinkError(
            f"generator {f.family} has a kink; use represent_named instead"
        )
    spec = spectrum(p, q)
    _require_mutual(spec.singular_mass_q, spec.singular_mass_p)
    return spec


def represent_general(
    f: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    c: float = 0.0,
) -> float:
    """Divergence as the integral of the weight kernel w_{f,c} against the
    spectral tail function G, taken exactly.

    The kernel is |h'|, h(beta) = (f(beta) + f'(1))/beta = g(ln beta) + f'(1)
    monotone on either side of 1, plus the c part (c/beta^2)(1{beta>=1} -
    1{beta<1}).  G is constant on each spectrum segment, so the |h'| part
    is ``_g_sum``; the c part integrates to c Q(p = 0), exactly 0 under the
    mutual continuity required here (``spectrum_identity``).  So every
    finite real c gives ``represent_inverse_g``'s float, and any other c is
    refused.  Works for any generator differentiable on (0, inf); kinked
    generators are routed to the named catalog.
    """
    spec = _smooth_spectrum(f, p, q)
    if not isfinite(_real(c, "c")):
        raise DomainError(f"parameter 'c' must be finite, got {c!r}")
    return _g_sum(f._breg, spec)


def represent_inverse_g(
    f: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution
) -> float:
    """Divergence via the two inverse branches of the g transform.

    The integrands 1 - F(l1(t)) and F(l2(t)) are step functions of t with
    jumps at the g(x_j), so the integral over t is an exact sum over the
    spectrum segments [x0, x1] (cut at 0) on which F is constant:
    (g(x1) - g(x0)) (1 - F) for x0 >= 0 and (g(x0) - g(x1)) F below 0 --
    the general engine's sum.  No quadrature and no inversion of
    g, so it agrees with the direct sum to rounding error.  Requires a
    differentiable f and mutual absolute continuity.
    """
    return _g_sum(f._breg, _smooth_spectrum(f, p, q))


def _spectral_sum(b: Breg, pair: tuple) -> float:
    """``_g_sum`` of the shifted term b over the spectrum of ``pair``
    (``_pair_slot``)."""
    return _g_sum(b, _spectrum(pair))


def represent_named(
    kind: str, p: DiscreteDistribution, q: DiscreteDistribution, **params: float
) -> float:
    """The paper's general representation of a named divergence, taken
    exactly: ``_g_sum`` over the spectrum, for the sum ``divergence()``
    resolves for the kind (``divergences._kind_sum``): the term of its
    family, or, for squared Hellinger, Bhattacharyya, alpha and Renyi, a
    map of the Hellinger family's sum, with Renyi's log-sum-exp taken over
    the pair's masses.

    A singular mass is refused where the kind's term charges it, so E_gamma
    and DeGroot with omega <= 1/2 need only P << Q, DeGroot with
    omega > 1/2 only Q << P, and every other kind both.
    """
    try:
        total = _kind_sum(kind, _spectral_sum, **params)
    except TypeError:  # an unhashable kind or parameter, which kind_args refuses
        kind_args(kind, params)
        raise
    return total(_pair_slot(p, q))


def spectrum_identity(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """The exact integral of F(ln beta)/beta^2 over (0, inf).

    The integral equals the expectation of the inverse likelihood ratio
    under P, i.e. the Q-mass of P's support, so it is 1 exactly when
    Q << P (P may still put mass where Q vanishes).  It is the sum of
    cdf_j (e^-x_j - e^-x_(j+1)) over the breakpoints, with e^-x_(j+1) = 0
    past the last, each F e^-x mapped as exp(ln F - x), at most the Q-mass
    below the ratio, and all of them summed by one ``fsum``.
    """
    f = spectrum(p, q)
    _require_qp_dominated(f.singular_mass_q)
    bps = f.breakpoints
    logs = list(map(math.log, f.cum_masses))
    heads = map(math.exp, map(sub, logs, bps))
    tails = map(math.exp, map(sub, logs, bps[1:]))
    return math.fsum(chain(heads, map(neg, tails)))


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
    NaN x is refused, as ``spectrum_eval`` refuses it.  It reads the pair's
    ``_atoms``, never the spectrum: an independent check of the identity.
    """
    pms, xs, q_where_p0, p_where_q0 = _atoms(_pair_slot(p, q))
    _require_mutual(q_where_p0, p_where_q0)
    if math.isnan(_real(x, "x")):
        raise DomainError("x must not be NaN")
    if x >= 0.0:
        return 1.0 - math.fsum(compress(pms, map(lt, repeat(x), xs)))
    # -E'_gamma(Q||P) at gamma = exp(-x), with the swapped-pair right-derivative
    return math.fsum(compress(pms, map(gt, repeat(x), xs)))


def _degroot_sum(p: DiscreteDistribution, q: DiscreteDistribution, omega: float) -> float:
    """I_omega(P||Q), the sum ``divergence("degroot")`` takes, with its term
    built afresh, past the pair memo: the priors here are quadrature nodes,
    each asked for once, which the term cache and the memo would churn."""
    return _shifted_sum(_degroot_breg.__wrapped__(omega), *_pair_slot(p, q)[:2])


def spectrum_from_degroot(
    p: DiscreteDistribution, q: DiscreteDistribution, x: float
) -> float:
    """Reconstruct the spectrum CDF at x from the DeGroot information
    curve, read at the prior whose log-odds ln((1-omega)/omega) is x.

    There I_omega = m E_gamma at gamma = e^|x| (``terms.prior_scale``), on
    (P, Q) for x >= 0 and on (Q, P) below, and the scale m cancels from the
    one-sided derivative that gives the CDF; what is left is the E_gamma
    reconstruction, with its convention at atoms.  So it answers every x,
    and refuses NaN.
    """
    return spectrum_from_egamma(p, q, x)


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
    the likelihood-ratio atoms (and at 1/2), each prior 1/(1 + e^x) taken
    as e^-x/(1 + e^-x) above x = 0, so that no e^x leaves the float range.
    A node whose omega^3 underflows (near a log-ratio of 250), or whose
    integrand is not finite though the integral may be, is refused with
    DomainError.
    """
    if f._second is None:
        raise CapabilityError(
            f"generator {f.family} supplies no second derivative"
        )
    spec = spectrum(p, q)
    _require_mutual(spec.singular_mass_q, spec.singular_mass_p)
    if not spec.breakpoints:
        return 0.0
    priors = [
        1.0 / (1.0 + exp(x)) if x <= 0.0 else exp(-x) / (1.0 + exp(-x))
        for x in spec.breakpoints
    ]
    lo, hi = priors[-1], priors[0]
    if lo >= hi:
        return 0.0
    cuts = sorted({lo, hi, 0.5, *priors})
    cuts = [c for c in cuts if lo <= c <= hi]

    def integrand(omega: float) -> float:
        cube = omega**3
        if cube == 0.0:
            raise DomainError(
                f"the largest log-ratio {spec.breakpoints[-1]!r} puts a quadrature node "
                f"at the prior {omega!r}, whose cube underflows"
            )
        i_val = _degroot_sum(p, q, omega)
        t = (1.0 - omega) / omega
        value = i_val * f.second(t) / cube
        if isfinite(value):
            return value
        raise DomainError(
            f"the integrand at the prior {omega!r} is {value!r}, past the float range"
        )

    pieces = [
        integrate(integrand, c0, c1, rel_tol=1e-10)
        for c0, c1 in zip(cuts, cuts[1:])
    ]
    return math.fsum(pieces)
