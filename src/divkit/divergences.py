"""Direct computation of f-divergences on finite alphabets.

The generic engine sums q f(p/q) over atoms with mass under both measures
and adds the two singular contributions Q(p=0) f(0) and P(q=0) f*(0) with
the 0 * inf = 0 convention.  Named divergences use cheaper closed forms
but agree with the generic engine to within accumulation error.

Infinities are first-class values here, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .distributions import DiscreteDistribution, mixture
from .errors import DomainError, ValidationError
from .generators import GeneratorFunction, _exp_or_inf, kind_args

__all__ = [
    "DivergenceValue",
    "f_divergence",
    "divergence",
    "renyi",
    "degroot_from_egamma",
]


@dataclass(frozen=True)
class DivergenceValue:
    """A named divergence result: non-negative, possibly +inf, in nats
    where the quantity is information-like."""

    value: float
    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


def _zip_masses(p: DiscreteDistribution, q: DiscreteDistribution):
    if len(p.masses) != len(q.masses):
        raise ValidationError(
            "distributions live on different alphabets "
            f"({len(p.masses)} vs {len(q.masses)} atoms)"
        )
    return zip(p.masses, q.masses)


def _singular_masses(p: DiscreteDistribution, q: DiscreteDistribution):
    """(Q-mass where p = 0, P-mass where q = 0), in one pass."""
    q_where_p0, p_where_q0 = [], []
    for pm, qm in _zip_masses(p, q):
        if pm == 0.0:
            if qm > 0.0:
                q_where_p0.append(qm)
        elif qm == 0.0:
            p_where_q0.append(pm)
    return math.fsum(q_where_p0), math.fsum(p_where_q0)


def f_divergence(
    f: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution
) -> DivergenceValue:
    """D_f(P||Q) from the definition, singular parts included.

    One pass over the masses collects the terms q f(p/q) and the two
    singular masses.  A ratio u = p/q or a value f(u) past the float range
    makes its term q f(u) inf, nan or an OverflowError; only then is the
    pass redone, with such terms as p f(u)/u, which is
    p f._eval_log(ln p - ln q) where the family supplies it and p f*(0)
    otherwise.  For convex f with finite f*(0), q f(u) - p f*(0) is q
    times a bounded function of u, and q is below 1e-150 wherever u or
    f(u) of a catalog family overflows.
    """
    pairs = _zip_masses(p, q)
    ev = f._eval
    terms, q_p0, p_q0 = [], [], []
    try:
        for pm, qm in pairs:
            if qm > 0.0:
                if pm > 0.0:
                    terms.append(qm * ev(pm / qm))
                else:
                    q_p0.append(qm)
            elif pm > 0.0:
                p_q0.append(pm)
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a power overflowed, or inf - inf
        total = math.nan
    if math.isfinite(total):
        singular = (math.fsum(q_p0), math.fsum(p_q0))
    else:
        total = math.fsum(
            _overflow_term(f, pm, qm)
            for pm, qm in zip(p.masses, q.masses)
            if pm > 0.0 and qm > 0.0
        )
        singular = _singular_masses(p, q)
    for mass, limit in zip(singular, (f.f_at_zero, f.fstar_at_zero)):
        if mass > 0.0:
            if math.isinf(limit):
                return DivergenceValue(math.inf, f.family, dict(f.params))
            total += mass * limit
    return DivergenceValue(total, f.family, dict(f.params))


def _overflow_term(f: GeneratorFunction, pm: float, qm: float) -> float:
    ratio = pm / qm
    if ratio < math.inf:
        try:
            term = qm * f._eval(ratio)
        except OverflowError:
            term = math.inf
        if math.isfinite(term):
            return term
    if f._eval_log is None:
        return pm * f.fstar_at_zero
    return pm * f._eval_log(math.log(pm) - math.log(qm))


# closed forms ---------------------------------------------------------------


def _kl(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    terms = []
    for pm, qm in _zip_masses(p, q):
        if pm > 0.0:
            if qm == 0.0:
                return math.inf
            terms.append(pm * math.log(pm / qm))
    total = math.fsum(terms)
    if total == math.inf:
        # a ratio pm/qm passed the float range; ln pm - ln qm keeps its
        # term finite
        total = math.fsum(
            pm * (math.log(pm / qm) if pm / qm < math.inf else math.log(pm) - math.log(qm))
            for pm, qm in _zip_masses(p, q)
            if pm > 0.0
        )
    return total


def _tv(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    return math.fsum(abs(pm - qm) for pm, qm in _zip_masses(p, q))


def _chi2(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    terms = []
    for pm, qm in _zip_masses(p, q):
        if qm == 0.0:
            if pm > 0.0:
                return math.inf
        else:
            d = pm - qm
            terms.append(d * d / qm)
    return math.fsum(terms)


def _hellinger(p: DiscreteDistribution, q: DiscreteDistribution, alpha: float) -> float:
    if alpha <= 0.0:
        raise DomainError("Hellinger order must be positive")
    if alpha == 1.0:
        return _kl(p, q)  # analytic extension at order 1
    s_terms = []
    try:
        for pm, qm in _zip_masses(p, q):
            if qm == 0.0:
                if pm > 0.0 and alpha > 1.0:
                    return math.inf
            elif pm > 0.0:
                s_terms.append(qm * (pm / qm) ** alpha)
        s = math.fsum(s_terms)
    except OverflowError:
        s = math.inf
    if math.isinf(s):
        # a term or the sum left the float range: (S - 1)/(alpha - 1) from ln S
        log_s = _log_hellinger_sum(p, q, alpha)
        if log_s < 700.0:
            return math.expm1(log_s) / (alpha - 1.0)
        try:
            return math.exp(log_s - math.log(alpha - 1.0))
        except OverflowError:
            return math.inf
    return (s - 1.0) / (alpha - 1.0)


def _log_hellinger_sum(
    p: DiscreteDistribution, q: DiscreteDistribution, alpha: float
) -> float:
    """ln of sum q (p/q)^alpha by log-sum-exp, for orders at which the
    terms leave the float range; +inf when alpha > 1 and P has mass where
    Q vanishes."""
    logs = []
    for pm, qm in _zip_masses(p, q):
        if qm == 0.0:
            if pm > 0.0 and alpha > 1.0:
                return math.inf
        elif pm > 0.0:
            logs.append(math.log(qm) + alpha * (math.log(pm) - math.log(qm)))
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _sq_hellinger(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    s = math.fsum(math.sqrt(pm * qm) for pm, qm in _zip_masses(p, q))
    return 1.0 - s


def _bhattacharyya(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    s = math.fsum(math.sqrt(pm * qm) for pm, qm in _zip_masses(p, q))
    if s == 0.0:
        return math.inf
    return -math.log(s)


def _chi_s(p: DiscreteDistribution, q: DiscreteDistribution, s: float) -> float:
    if s < 1.0:
        raise DomainError("chi^s order must satisfy s >= 1")
    if s == 1.0:
        return _tv(p, q)
    terms = []
    try:
        for pm, qm in _zip_masses(p, q):
            if qm == 0.0:
                if pm > 0.0:
                    return math.inf
            else:
                terms.append(abs(pm - qm) ** s / qm ** (s - 1.0))
    except (OverflowError, ZeroDivisionError):
        # a power left the float range: take each term from its logarithm
        if any(qm == 0.0 < pm for pm, qm in _zip_masses(p, q)):
            return math.inf
        terms = [
            _exp_or_inf(s * math.log(abs(pm - qm)) - (s - 1.0) * math.log(qm))
            for pm, qm in _zip_masses(p, q)
            if qm > 0.0 and pm != qm
        ]
    return math.fsum(terms)


def _triangular(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    terms = []
    for pm, qm in _zip_masses(p, q):
        tot = pm + qm
        if tot > 0.0:
            d = pm - qm
            terms.append(d * d / tot)
    return math.fsum(terms)


def _lin(p: DiscreteDistribution, q: DiscreteDistribution, theta: float) -> float:
    if not 0.0 < theta < 1.0:
        raise DomainError("Lin parameter must lie in (0, 1)")
    m = mixture(p, q, theta)
    return theta * _kl(p, m) + (1.0 - theta) * _kl(q, m)


def _e_gamma(p: DiscreteDistribution, q: DiscreteDistribution, gamma: float) -> float:
    if gamma < 1.0:
        raise DomainError("E_gamma order must satisfy gamma >= 1")
    return math.fsum(
        pm - gamma * qm for pm, qm in _zip_masses(p, q) if pm > gamma * qm
    )


def _degroot(p: DiscreteDistribution, q: DiscreteDistribution, omega: float) -> float:
    if not 0.0 < omega < 1.0:
        raise DomainError("DeGroot prior must lie in (0, 1)")
    # min(omega, 1-omega) - sum min(omega p, (1-omega) q) as a sum of
    # positive parts, so no cancellation can push it below zero
    if omega <= 0.5:
        return math.fsum(
            max(omega * pm - (1.0 - omega) * qm, 0.0) for pm, qm in _zip_masses(p, q)
        )
    return math.fsum(
        max((1.0 - omega) * qm - omega * pm, 0.0) for pm, qm in _zip_masses(p, q)
    )


def _renyi(p: DiscreteDistribution, q: DiscreteDistribution, alpha: float) -> float:
    if alpha <= 0.0:
        raise DomainError("Renyi order must be positive")
    if alpha == 1.0:
        return _kl(p, q)
    arg = 1.0 + (alpha - 1.0) * _hellinger(p, q, alpha)
    if math.isinf(arg):
        # 1 + (alpha - 1) H = S passed the float range; ln S is finite
        # unless P has mass where Q vanishes
        return _log_hellinger_sum(p, q, alpha) / (alpha - 1.0)
    if arg <= 0.0:
        return math.inf  # disjoint supports at alpha < 1
    return math.log(arg) / (alpha - 1.0)


_CLOSED_FORMS: dict[str, Callable[..., float]] = {
    "kl": _kl,
    "jeffreys": lambda p, q: _kl(p, q) + _kl(q, p),
    "hellinger": _hellinger,
    "chi2": _chi2,
    "sq_hellinger": _sq_hellinger,
    "bhattacharyya": _bhattacharyya,
    "alpha": lambda p, q, alpha: _hellinger(p, q, alpha) / alpha,
    "chi_s": _chi_s,
    "tv": _tv,
    "triangular": _triangular,
    "lin": _lin,
    "js": lambda p, q: _lin(p, q, 0.5),
    "e_gamma": _e_gamma,
    "degroot": _degroot,
    "renyi": _renyi,
}


def divergence(
    kind: str, p: DiscreteDistribution, q: DiscreteDistribution, **params: float
) -> DivergenceValue:
    """Dispatch a named divergence.

    Kinds: kl, jeffreys, hellinger(alpha), chi2, sq_hellinger,
    bhattacharyya, alpha(alpha), chi_s(s), tv, triangular, lin(theta), js,
    e_gamma(gamma), degroot(omega), renyi(alpha).
    """
    args = kind_args(kind, params)  # refuses kinds outside KINDS
    return DivergenceValue(_CLOSED_FORMS[kind](p, q, *args), kind, dict(params))


def renyi(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> DivergenceValue:
    """Renyi divergence of positive order, in nats.

    Order 1 is relative entropy by analytic extension; any other order is
    the one-to-one transform log(1 + (a-1) H_a) / (a-1) of the Hellinger
    divergence of the same order.
    """
    return DivergenceValue(_renyi(p, q, alpha), "renyi", {"alpha": alpha})


def degroot_from_egamma(
    omega: float, p: DiscreteDistribution, q: DiscreteDistribution
) -> DivergenceValue:
    """DeGroot statistical information through its E_gamma scaling.

    For omega <= 1/2 this is omega * E_{(1-omega)/omega}(P||Q); above 1/2
    the roles swap.  Matches the direct DeGroot computation.
    """
    if not 0.0 < omega < 1.0:
        raise DomainError("DeGroot prior must lie in (0, 1)")
    if omega <= 0.5:
        val = omega * _e_gamma(p, q, (1.0 - omega) / omega)
    else:
        val = (1.0 - omega) * _e_gamma(q, p, omega / (1.0 - omega))
    return DivergenceValue(val, "degroot_from_egamma", {"omega": omega})
