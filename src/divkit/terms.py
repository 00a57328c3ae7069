"""Each generator family's shifted term f(1 + x) - c x (``Breg``), which
the catalog generators, the direct sums, the mixture paths and the
spectral engines read through the one family table,
``generators._FAMILIES``, and the passes that take a term where a ratio
leaves the float range.  Terms are immutable, so each is built once per
(family, parameter) and shared.  In nats throughout.

It also holds the one map from a DeGroot prior omega to E_gamma
(``prior_scale``): with m = min(omega, 1 - omega) and gamma =
max(omega, 1 - omega) / m = e^|l|, l = ln((1 - omega)/omega) the log-odds,
I_omega(P||Q) = m E_gamma, on (P, Q) for omega <= 1/2 and on (Q, P) above.
The DeGroot term, the E_gamma route to DeGroot information and the DeGroot
bounds take their sides from it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import _CACHE_SIZE, DomainError, _real

# A family's (or kind's) shifted terms, generators or resolved sums; an
# exception is never kept, so a refused parameter is refused again, and
# ``typed`` keeps alpha=2 and alpha=2.0 apart, as their params print.
_shared = lru_cache(maxsize=_CACHE_SIZE, typed=True)


class Breg(NamedTuple):
    """A family's shifted term f(1 + x) - c x, c a subgradient of f at 1: the
    same for f and every f + k (t - 1), >= 0, and written without
    cancellation.  ``term`` is q times it at x = d/q, called with the slice
    ``reads`` of (d, q, p), p = q + d the first measure's mass: a direct sum
    passes d = p - q, a mixture path d = +-lam (p - q), which its rounded
    masses no longer carry.  A term takes p/q from d except near d/q = -1,
    where d no longer carries it and the term reads p; elsewhere p is at
    most a factor, whose rounding costs an ulp.  The E_gamma and DeGroot
    terms, and a custom generator's, read the masses only, (q, p), so no
    sum forms d for them.
    ``at_zero`` = f(0) + c and ``at_inf`` = f*(0) - c are the terms per unit
    of mass where p = 0 and where q = 0.  ``at_log``, where given, is the
    term at x = ln(p/q) > 0 from x and p, for an atom whose p/q, or a power
    of it, passes the float range, and for the spectral engines past
    x = 700 (``_g_edge``).
    """

    term: Callable[..., float]
    at_zero: float
    at_inf: float
    at_log: Optional[Callable[[float, float], float]] = None
    reads: slice = slice(3)


# below this x = d/q, d = p - q no longer carries p/q to full precision
_LOW_EDGE = -1.0 + 2.0**-8
# for |x| below this (over the order, for Hellinger orders above 1) the
# Hellinger term is ten terms of its power series, at full precision; above
# it the closed form loses a few ulps at most
_SERIES_AT = 2.0**-5


def _exp_times(m: float, y: float) -> float:
    """m e^y, where e^y alone may pass the float range and m e^y not; inf
    where m e^y does."""
    if y < 700.0:
        return m * math.exp(y)
    y += math.log(m)
    return math.exp(y) if y < 709.78 else math.inf


def _kl_term(d: float, q: float, p: float) -> float:
    """q ((1+x) ln(1+x) - x) at x = d/q, i.e. p ln(p/q) - (p - q): Loader's
    (2000) bd0(p, q).  For |x| < 1/4 it is his series in v = x/(2+x),
    d v + 2 p (v^3/3 + v^5/5 + ...), whose first omitted term is below
    1e-17 of the sum; beyond, the logarithm's form holds ~2e-15 relative.
    Finite at every p, q > 0; p = 0 raises, and ``_edge_term`` takes the
    singular part."""
    x = d / q
    if -0.25 < x < 0.25:
        v = x / (2.0 + x)
        w = v * v
        s = 2 / 11 + w * (2 / 13 + w * (2 / 15 + w * (2 / 17 + w * (2 / 19))))
        s = 2 / 3 + w * (2 / 5 + w * (2 / 7 + w * (2 / 9 + w * s)))
        return v * (d + p * w * s)
    if _LOW_EDGE < x < math.inf:
        return p * math.log1p(x) - d
    # ln p - ln q, where d no longer carries p/q or p/q passes the float range
    return p * (math.log(p) - math.log(q)) - d


# past the float range of p/q, p (x - (1 - e^-x)) at x = ln(p/q)
_KL = Breg(_kl_term, 1.0, math.inf, lambda x, p: p * (x + math.expm1(-x)))
# (p - q) ln(p/q), the KL terms of P against Q and of Q against P; past the
# float range, p (1 - e^-x) x
_JEFFREYS = Breg(
    lambda d, q, p: _kl_term(d, q, p) + _kl_term(-d, p, q), math.inf, math.inf,
    lambda x, p: -p * x * math.expm1(-x),
)


# q x^2; past the float range of p/q, p e^x (1 - e^-x)^2 at x = ln(p/q)
_CHI2 = Breg(
    lambda d, q: d * (d / q), 1.0, math.inf,
    lambda x, p: _exp_times(p, x) * math.expm1(-x) ** 2, reads=slice(2),
)


def _hellinger_half_term(d: float, q: float, p: float) -> float:
    # order 1/2: q (sqrt(p/q) - 1)^2 = (sqrt p - sqrt q)^2, where
    # sqrt p - sqrt q = d / (sqrt p + sqrt q)
    r = d / (math.sqrt(p) + math.sqrt(q))
    return r * r


_HELLINGER_HALF = Breg(_hellinger_half_term, 1.0, 1.0)


@_shared
def _hellinger_breg(alpha: float) -> Breg:
    if alpha == 0.5:
        return _HELLINGER_HALF
    if alpha == 2.0:
        return _CHI2  # q x^2
    return _power_breg(alpha, 1.0)


@_shared
def _alpha_breg(alpha: float) -> Breg:
    """The Hellinger term over alpha, divided inside its forms: a (x - L)
    and the series' coefficients, all multiples of a, keep no bits at a
    subnormal order.  The alpha kind takes it below order 1/2."""
    return _power_breg(alpha, alpha)


def _power_breg(alpha: float, over: float) -> Breg:
    """The Hellinger term of order alpha over ``over``."""
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise DomainError("Hellinger order must lie in (0,1) or (1,inf)")
    am1 = alpha - 1.0
    near = _SERIES_AT / alpha if alpha > 1.0 else _SERIES_AT
    scale = alpha / over
    # ((1+x)^a - 1 - a x)/(a - 1) over x^2, to x^9
    coefs = [scale / 2.0]
    for k in range(2, 11):
        coefs.append(coefs[-1] * (alpha - k) / (k + 1))
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = coefs
    if not math.isfinite(c9):
        # past order ~1e31 the coefficients overflow, and x is below 2^-5
        # over the order only where it is ~0: the closed form takes it
        near = 0.0
    small = alpha < 0.5

    def term(d: float, q: float, p: float) -> float:
        x = d / q
        if -near < x < near:
            s = c5 + x * (c6 + x * (c7 + x * (c8 + x * c9)))
            return d * x * (c0 + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * s)))))
        # L = ln(p/q), from the masses where d no longer carries it or p/q
        # passes the float range
        log_ratio = math.log1p(x) if _LOW_EDGE < x < math.inf else math.log(p) - math.log(q)
        if small:
            # q (a (x - L) - (e^(aL) - 1 - aL)) over 1 - a: both parts >= 0,
            # the second below ~a times the first, where the form below
            # cancels d to ~1/a of its bits
            y = alpha * log_ratio
            return (scale * (d - q * log_ratio) - q * (math.expm1(y) - y) / over) / -am1
        # p ((p/q)^(a-1) - 1)/(a-1) - d, which tends to the KL term at a = 1;
        # not finite where (p/q)^(a-1) passes the float range, which sends
        # the atom to at_log
        return (p * (math.expm1(am1 * log_ratio) / am1) - d) / over

    def at_log(x: float, p: float) -> float:
        # p (e^((a-1) x) - 1)/(a-1) - p (1 - e^-x); past e^700 the first
        # part alone holds every bit
        y = am1 * x
        if y < 700.0:
            return p * (math.expm1(y) / am1 + math.expm1(-x)) / over
        return _exp_times(p, y - math.log(am1)) / over

    return Breg(term, 1.0 / over, (alpha / -am1 if alpha < 1.0 else math.inf) / over, at_log)


_TV = Breg(abs, 1.0, 1.0, reads=slice(1))


@_shared
def _chi_s_breg(s: float) -> Breg:
    if not s >= 1.0:
        raise DomainError("chi^s order must satisfy s >= 1")
    if s == 1.0:
        return _TV
    if s == 2.0:
        return _CHI2  # q |x|^2

    def term(d: float, q: float) -> float:
        return q * abs(d / q) ** s

    def at_log(x: float, p: float) -> float:
        # p e^-x (e^x - 1)^s, from its logarithm
        return _exp_times(p, s * (x + math.log1p(-math.exp(-x))) - x)

    return Breg(term, 1.0, math.inf, at_log, reads=slice(2))


# q x^2/(2 + x) at x = d/q
_TRIANGULAR = Breg(lambda d, q: d * (d / (2.0 * q + d)), 1.0, 1.0, reads=slice(2))


@_shared
def _lin_breg(theta: float) -> Breg:
    if not 0.0 < theta < 1.0:
        raise DomainError("Lin parameter must lie in (0, 1)")
    comp = 1.0 - theta

    def term(d: float, q: float, p: float) -> float:
        # theta KL(P||M) + (1-theta) KL(Q||M) at one atom, M = theta P +
        # (1-theta) Q: two KL terms, at p - m = comp d and q - m = -theta d
        m = q + theta * d
        return theta * _kl_term(comp * d, m, p) + comp * _kl_term(-theta * d, m, q)

    # f(0) = -(1 - theta) ln(1 - theta), with ln(1 - theta) taken from theta:
    # comp is already rounded, which ln would magnify where theta is small
    return Breg(term, -comp * math.log1p(-theta), -theta * math.log(theta))


_JS = _lin_breg(0.5)
_MASSES = slice(1, 3)  # the (q, p) of (d, q, p), for a term of the masses alone


@_shared
def _e_gamma_breg(gamma: float) -> Breg:
    if not gamma >= 1.0:
        raise DomainError("E_gamma order must satisfy gamma >= 1")

    def term(q: float, p: float) -> float:
        # from the masses, keeping every bit of them; where q = 0 the term is
        # p, also at gamma = inf, where gamma q is NaN: E_inf = P(q = 0)
        x = p - gamma * q if q > 0.0 else p
        return x if x > 0.0 else 0.0

    def at_log(x: float, p: float) -> float:
        # p (1 - gamma e^-x), which e^-x as a subnormal would round
        return p * max(-math.expm1(math.log(gamma) - x), 0.0)

    return Breg(term, 0.0, 1.0, at_log, _MASSES)


def prior_scale(omega: float) -> tuple[float, float, bool]:
    """(m, big, swap) for a DeGroot prior omega: m = min(omega, 1 - omega),
    big = max(omega, 1 - omega) and swap = omega > 1/2, so that
    I_omega(P||Q) = m E_{big/m}, taken on (Q, P) where swap is set."""
    if not 0.0 < (omega if type(omega) is float else _real(omega, "omega")) < 1.0:
        raise DomainError("DeGroot prior must lie in (0, 1)")
    comp = 1.0 - omega
    return (comp, omega, True) if omega > 0.5 else (omega, comp, False)


@_shared
def _degroot_breg(omega: float) -> Breg:
    # min(omega, 1-omega) - min(omega t, 1-omega) less the subgradient's
    # line: the positive part of m p - big q, from the masses; with P and Q
    # swapped above 1/2 that is (-big) p - (-m) q, the same floats
    m, big, swap = prior_scale(omega)
    a, b = (-big, -m) if swap else (m, big)

    def term(q: float, p: float) -> float:
        x = a * p - b * q
        return x if x > 0.0 else 0.0

    if swap:
        return Breg(term, m, 0.0, None, _MASSES)
    # m p (1 - e^(l - x)), l = ln(big/m) the log-odds, which e^-x as a
    # subnormal would round
    log_odds = math.log(big) - math.log(m)
    return Breg(term, 0.0, m, lambda x, p: m * p * max(-math.expm1(log_odds - x), 0.0), _MASSES)


def _edge_term(b: Breg, d: float, qm: float, pm: float) -> float:
    """Any atom's term, where the pass over all atoms failed: the term if
    finite; at p = 0 or q = 0 its singular part q at_zero or p at_inf (0
    where both masses are 0); else its form in x = ln(p/q), ``at_log``, or
    where the family has none its limit at x = +-inf."""
    try:
        term = b.term(*(d, qm, pm)[b.reads])
    except (ZeroDivisionError, OverflowError, ValueError):
        term = math.nan
    if math.isfinite(term):
        return term
    if pm == 0.0:
        return qm * b.at_zero if qm > 0.0 else 0.0
    if qm == 0.0:
        return pm * b.at_inf
    # ln(p/q) from d where d carries it, as the terms take it; p/q rounds it
    x = math.log1p(d / qm) if _LOW_EDGE < d / qm < math.inf else math.log(pm) - math.log(qm)
    if x > 0.0 and b.at_log is not None:
        return b.at_log(x, pm)
    return pm * b.at_inf if x > 0.0 else qm * b.at_zero


def _g_edge(b: Breg, x: float) -> float:
    """The shifted term at the pair (p, q) = (e^x, 1) scaled so that the
    larger mass is 1: g(x) at (1 - e^-x, e^-x, 1) for x >= 0 and e^x g(x)
    at (e^x - 1, 1, e^x) for x <= 0, so that no argument leaves [-1, 1].
    Past x = 700, where e^-x would lose bits as a subnormal, the term is
    ``at_log`` at p = 1, or where the family has none its limit ``at_inf``,
    which every such family reaches by then.
    """
    if x > 700.0:
        return b.at_inf if b.at_log is None else b.at_log(x, 1.0)
    if x >= 0.0:
        return _edge_term(b, -math.expm1(-x), math.exp(-x), 1.0)
    return _edge_term(b, math.expm1(x), 1.0, math.exp(x))
