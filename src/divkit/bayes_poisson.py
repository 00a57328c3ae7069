"""Bayesian binary hypothesis testing between two Poisson models.

Observation Y follows a Poisson law with rate mu under the null (prior
omega) and rate lam under the alternative (prior 1 - omega).  The module
gives the closed-form KL and chi^2 divergences between the models, the
decision threshold where the weighted likelihoods cross, the exact DeGroot
statistical information as one sum of positive terms, and the report
comparing it against its closed-form upper bounds.

Every function here accepts rates in (0, MAX_RATE].  The exact DeGroot
sum keeps one slot: the last (mu, lam, omega) it summed and that value
(``functools.lru_cache(maxsize=1, typed=True)``), so a report on the
triple just summed reads the kept value instead of summing again.  A
refused call raises on every call and is never kept.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .bounds import _DEGROOT_INPUTS, CATALOG, BoundReport, make_report
from .errors import DomainError, _real, refuse_change
from .terms import _kl_term, prior_scale

__all__ = [
    "MAX_RATE",
    "PoissonModel",
    "poisson_pmf",
    "poisson_divergences",
    "poisson_k0",
    "poisson_degroot_exact",
    "poisson_bound_report",
]

# the exact DeGroot sum takes 0.1-0.4 s at MAX_RATE (Python 3.11, 2-CPU x86-64)
MAX_RATE = 1e9

# Loader (2000): ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
_LN_2PI = math.log(2.0 * math.pi)
# a direction of the DeGroot sum stops once the geometric bound on what it
# has left falls below this share of the running sum
_TAIL_RTOL = 1e-17


def _check_rates(*rates: float) -> None:
    for rate in rates:
        if not 0.0 < _real(rate, "rate") <= MAX_RATE:
            raise DomainError(f"Poisson rate must lie in (0, {MAX_RATE:g}], got {rate!r}")


def _stirlerr(n: int) -> float:
    if n <= 15:
        return _STIRLERR[n]
    # Stirling series: 1/12 - 1/360 n^-2 + 1/1260 n^-4 - 1/1680 n^-6 + ... over n
    nn = float(n) * n
    s = 1.0 / 1680 - 1.0 / (1188 * nn)
    s = 1.0 / 1260 - s / nn
    s = 1.0 / 360 - s / nn
    return (1.0 / 12 - s / nn) / n


class PoissonModel:
    """Poisson law with rate in (0, MAX_RATE].

    The log-mass is Loader's saddle-point form
    -stirlerr(k) - bd0(k, rate) - ln(2 pi k) / 2, bd0 being the KL family's
    shifted term (``terms._kl_term``), accurate to ~2e-15 times its size,
    where k ln(rate) - rate - lgamma(k + 1) would lose ~1e-16 k.  An
    immutable record: assigning or deleting ``rate`` raises AttributeError,
    and a model equals only itself.
    """

    __slots__ = ("rate",)
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, rate: float) -> None:
        _check_rates(rate)
        object.__setattr__(self, "rate", rate)

    def __reduce__(self):
        return type(self), (self.rate,)

    def log_pmf(self, k: int) -> float:
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise DomainError(f"Poisson support is the non-negative integers, got {k!r}")
        if k == 0:
            return -self.rate
        bd0 = _kl_term(_real(k, "k") - self.rate, self.rate, k)
        return -_stirlerr(k) - bd0 - 0.5 * (_LN_2PI + math.log(k))

    def pmf(self, k: int) -> float:
        return math.exp(self.log_pmf(k))


def poisson_pmf(lam: float, k: int) -> float:
    """Poisson mass e^(-lam) lam^k / k! in Loader's saddle-point form."""
    return PoissonModel(lam).pmf(k)


def poisson_divergences(mu: float, lam: float) -> tuple[float, float]:
    """Closed-form (KL, chi^2) between Poisson(mu) and Poisson(lam).

    KL(P_mu || P_lam) = mu ln(mu/lam) + lam - mu  (nats);
    chi^2(P_mu || P_lam) = exp((mu - lam)^2 / lam) - 1.
    """
    _check_rates(mu, lam)
    kl = _kl_term(mu - lam, lam, mu)
    try:
        chi2 = math.expm1((mu - lam) ** 2 / lam)
    except OverflowError:
        chi2 = math.inf
    return kl, chi2


def _threshold(
    lam: float, mu: float, omega: float, flip: bool = False
) -> tuple[int, float, float, float]:
    """(k0, L(k0), L(k0 + 1), ell) for the weighted log-likelihood ratio
    L(k) = ln(t P_mu[k] / ((1-t) P_lam[k])) = ell (k - q), where t is omega,
    or 1 - omega when flip is set, and k0 = floor(q), so L(k0) <= 0 < L(k0+1).

    q and ell are taken to 40 digits: in double precision L near the
    threshold would carry an absolute error of ~1e-16 (mu - lam), as large
    as L itself there once the rates reach ~1e4.
    """
    # imported here so that importing divkit does not load decimal
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        m, l, w = Decimal(mu), Decimal(lam), Decimal(omega)
        ell = (m / l).ln()
        prior = ((1 - w) / w).ln()
        q = (m - l + (-prior if flip else prior)) / ell
        k0 = math.floor(q)
        return k0, float(ell * (k0 - q)), float(ell * (k0 + 1 - q)), float(ell)


def poisson_k0(lam: float, mu: float, omega: float) -> int:
    """Largest count where the omega-weighted null likelihood still loses.

    floor((mu - lam + ln((1-omega)/omega)) / ln(mu/lam)); requires mu > lam
    (swap the roles and replace omega by 1-omega otherwise).  May be
    negative when the prior strongly favors the null.
    """
    _check_rates(mu, lam)
    if not mu > lam:
        raise DomainError("threshold formula needs mu > lam > 0")
    prior_scale(omega)  # refuses a prior outside (0, 1)
    return _threshold(lam, mu, omega)[0]


def _walk(w, p, k, step, last, rate, x_a, a, ell, total):
    """Terms w p_j (-expm1(x_a - |j - a| ell)) for j = k + step, k + 2 step,
    ... up to last (None: unbounded), with p_j from the mass ratio of
    neighbours.  Stops once the geometric bound w p_j rho / (1 - rho) on the
    rest, rho the next mass ratio (< 1 past the mode), drops below
    _TAIL_RTOL of the running total."""
    terms = []
    while k != last:
        rho = rate / (k + 1) if step > 0 else k / rate
        if rho < 1.0 and w * p * rho <= _TAIL_RTOL * total * (1.0 - rho):
            break
        p *= rho
        k += step
        t = w * p * -math.expm1(x_a - abs(k - a) * ell)
        terms.append(t)
        total += t
    return terms


@lru_cache(maxsize=1, typed=True)
def poisson_degroot_exact(mu: float, lam: float, omega: float) -> float:
    """Exact DeGroot information I_omega(P_mu || P_lam) as one sum of
    positive terms.

    Put the larger rate first (I_omega(P||Q) = I_{1-omega}(Q||P)), let t be
    its prior and L(k) = ln(t P_hi[k] / ((1-t) P_lo[k])), increasing in k.
    For t <= 1/2 the information is the sum over L(k) > 0 of
    t P_hi[k] (1 - e^-L(k)); for t > 1/2 the sum over L(k) <= 0 of
    (1-t) P_lo[k] (1 - e^L(k)).  Every term is >= 0, so the value is never
    negative and a tiny information keeps its relative accuracy.  The sum
    starts at the mode of the weighted law, clipped to its side of the
    threshold, with Loader's saddle-point mass there, and steps outward by
    mass ratios until the geometric bound on the rest is below 1e-17 of the
    sum: O(sqrt(rate)) terms.

    Against 40-digit sums (rates 0.1 to 3e4, and 1e6) the relative error
    stays within 7e-16 (1 + |ln I|): 2e-15 at the paper's mu=101, lam=99,
    omega=0.1, where I = 4.08e-24.  The |ln I| part is the rounding of the
    exponent of a tail mass.  Values below the float range underflow to 0.
    The last triple and its value are kept (see the module docstring);
    ``poisson_degroot_exact.cache_clear()`` empties the slot.
    """
    _check_rates(mu, lam)
    w, _, swap = prior_scale(omega)  # w = min(omega, 1 - omega)
    if mu == lam:
        return 0.0
    # I_omega(P||Q) = I_{1-omega}(Q||P): put the larger rate first
    flip = mu < lam
    hi, lo = (lam, mu) if flip else (mu, lam)
    k0, l_at_k0, l_past_k0, ell = _threshold(lo, hi, omega, flip)
    # x_a = -|L(a)| at the side's edge a; x falls by ell per count away
    # from a, so every term's factor -expm1(x) lies in [0, 1]
    if swap == flip:
        # the prior of hi is <= 1/2: sum over counts above the threshold
        rate = hi
        a = max(k0 + 1, 0)
        x_a = -(l_past_k0 + (a - k0 - 1) * ell)
        down, up = a, None
        m = max(math.floor(rate), a)
    else:
        rate = lo
        a = k0
        if a < 0:
            return 0.0
        x_a = l_at_k0
        down, up = 0, a
        m = min(math.floor(rate), a)
    p = PoissonModel(rate).pmf(m)
    if p == 0.0:
        return 0.0
    first = w * p * -math.expm1(x_a - abs(m - a) * ell)
    upper = _walk(w, p, m, 1, up, rate, x_a, a, ell, first)
    lower = _walk(w, p, m, -1, down, rate, x_a, a, ell, first + sum(upper))
    # when the side holds all of the law's mass, the rounded masses can sum
    # a few ulps past 1, and the information never exceeds w
    return min(math.fsum([first, *upper, *lower]), w)


# (name, direction, bound) of the catalog's DeGroot bounds, in table order
_DEGROOT_BOUNDS = tuple(
    (name, direction, bound)
    for name, (direction, keys, bound) in CATALOG.items()
    if keys == _DEGROOT_INPUTS
)


def poisson_bound_report(mu: float, lam: float, omega: float) -> list[BoundReport]:
    """The DeGroot upper bounds of ``bounds.CATALOG`` on the Poisson
    divergences, certified against the exact DeGroot value, which it reads
    from the kept slot when the triple was just summed."""
    kl_pq, chi_pq = poisson_divergences(mu, lam)
    kl_qp, chi_qp = poisson_divergences(lam, mu)
    exact = poisson_degroot_exact(mu, lam, omega)
    inputs = (omega, kl_pq, kl_qp, chi_pq, chi_qp)
    return [
        make_report(name, bound(*inputs), exact, direction)
        for name, direction, bound in _DEGROOT_BOUNDS
    ]
