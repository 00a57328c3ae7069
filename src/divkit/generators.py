"""Generator functions of f-divergences.

A generator is a convex function f on (0, inf) with f(1) = 0.  Each family
ships analytic first (and where available second) derivatives; numerical
differentiation is never used because the derivatives feed integrands where
noise compounds.  Kinked families (total variation, E_gamma, DeGroot,
chi^s at s = 1) expose their derivative as undefined exactly at the kink
abscissa.  Each family also ships its shifted term f(1+d) - f'(1) d
(``Breg``), from the one table ``_BREGS`` that the generators and the
direct sums in ``divkit.divergences`` both read; the g transform of the
spectral engines (``g_eval``) is read from it too.  Catalog generators and
shifted terms are immutable, so each is built once per (family, parameter)
and shared; the families with a parameter keep theirs in bounded caches.

Everything here is in nats: the catalog's logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .errors import (
    CapabilityError,
    DomainError,
    KinkError,
    UnknownKindError,
    ValidationError,
)

__all__ = [
    "GeneratorFunction",
    "KINDS",
    "generator",
    "kind_args",
    "parse_kind",
    "parse_number",
    "parse_generator",
    "conjugate",
    "affine_shift",
    "g_eval",
]

# Distinct parameters whose shifted term, generator or resolved divergence
# sum is kept per family (or kind).  An exception is never kept, so a
# refused parameter is refused again; ``typed`` keeps alpha=2 and alpha=2.0
# apart, since their params print differently.
_CACHE_SIZE = 256
_shared = lru_cache(maxsize=_CACHE_SIZE, typed=True)


@dataclass(frozen=True)
class GeneratorFunction:
    """A member of the convex class with f(1) = 0, plus family metadata.

    ``f_at_zero`` is lim_{t->0} f(t) and ``fstar_at_zero`` is
    lim_{u->inf} f(u)/u; both live in (-inf, +inf].  ``right_deriv_at_one``
    always exists and is finite; ``left_deriv_at_one`` differs from it only
    at a kink sitting exactly at 1.  ``second_at_one`` is f''(1) when
    defined. ``kink`` is the abscissa where the derivative fails, or None.
    ``_breg`` is the family's shifted term (see ``Breg``), which the direct
    sums and the mixture-path sums read; a generator built without one, such
    as a custom or a conjugate generator, gets ``_generic_breg``'s.
    """

    family: str
    params: tuple[tuple[str, float], ...]
    f_at_zero: float
    fstar_at_zero: float
    right_deriv_at_one: float
    left_deriv_at_one: float
    second_at_one: Optional[float]
    kink: Optional[float]
    _eval: Callable[[float], float]
    _deriv: Optional[Callable[[float], float]]
    _second: Optional[Callable[[float], float]]
    _breg: Optional["Breg"] = None

    def __post_init__(self) -> None:
        if abs(self._eval(1.0)) > 1e-12:
            raise ValidationError(f"generator {self.family} violates f(1)=0")
        if self._breg is None:
            object.__setattr__(self, "_breg", _generic_breg(self))

    def __call__(self, t: float) -> float:
        return self._eval(t)

    def eval(self, t: float) -> float:
        """f(t) for t > 0 (f_at_zero is used for the t = 0 limit)."""
        if t < 0.0:
            raise DomainError("generator argument must be non-negative")
        if t == 0.0:
            return self.f_at_zero
        return self._eval(t)

    def deriv(self, t: float) -> float:
        """f'(t); raises KinkError exactly at the kink abscissa."""
        if t <= 0.0:
            raise DomainError("derivative defined on (0, inf) only")
        if self.kink is not None and t == self.kink:
            raise KinkError(
                f"generator {self.family} is not differentiable at t={t!r}"
            )
        if self._deriv is None:
            raise CapabilityError(f"generator {self.family} supplies no derivative")
        return self._deriv(t)

    def second(self, t: float) -> float:
        """f''(t) where the family supplies it."""
        if t <= 0.0:
            raise DomainError("second derivative defined on (0, inf) only")
        if self._second is None:
            raise CapabilityError(
                f"generator {self.family} supplies no second derivative"
            )
        if t == 1.0:
            if self.second_at_one is None:
                raise CapabilityError(
                    f"generator {self.family} has no second derivative at 1"
                )
            return self.second_at_one

        return self._second(t)

    @property
    def is_smooth(self) -> bool:
        return self.kink is None and self._deriv is not None


def _named(**kv: float) -> tuple[tuple[str, float], ...]:
    return tuple(kv.items())


# shifted terms ---------------------------------------------------------------


class Breg(NamedTuple):
    """A family's shifted term f(1 + x) - c x, c a subgradient of f at 1: the
    same for f and every f + k (t - 1), >= 0, and written without
    cancellation.  ``term`` is q times it at x = d/q, called with the first
    ``reads`` of (d, q, p), p = q + d the first measure's mass: a direct sum
    passes d = p - q, a mixture path d = +-lam (p - q), which its rounded
    masses no longer carry.  A term takes p/q from d except near d/q = -1,
    where d no longer carries it and the term reads p; elsewhere p is at
    most a factor, whose rounding costs an ulp.  ``at_zero`` = f(0) + c and
    ``at_inf`` = f*(0) - c are the terms per unit of mass where p = 0 and
    where q = 0.  ``at_log``, where given, is the term at x = ln(p/q) > 0
    from x and p, for an atom whose p/q, or a power of it, passes the float
    range, and for the spectral engines past x = 700 (``_g_edge``).
    """

    term: Callable[..., float]
    at_zero: float
    at_inf: float
    at_log: Optional[Callable[[float, float], float]] = None
    reads: int = 3


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
    Finite at every p, q > 0; p = 0 raises, for the singular pass."""
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
    lambda x, p: _exp_times(p, x) * math.expm1(-x) ** 2, reads=2,
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


_TV = Breg(abs, 1.0, 1.0, reads=1)


@_shared
def _chi_s_breg(s: float) -> Breg:
    if not s >= 1.0:
        raise DomainError("chi^s order must satisfy s >= 1")
    if s == 1.0:
        return _TV

    def term(d: float, q: float) -> float:
        return q * abs(d / q) ** s

    def at_log(x: float, p: float) -> float:
        # p e^-x (e^x - 1)^s, from its logarithm
        return _exp_times(p, s * (x + math.log1p(-math.exp(-x))) - x)

    return Breg(term, 1.0, math.inf, at_log, reads=2)


# q x^2/(2 + x) at x = d/q
_TRIANGULAR = Breg(lambda d, q: d * (d / (2.0 * q + d)), 1.0, 1.0, reads=2)


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

    return Breg(term, -comp * math.log(comp), -theta * math.log(theta))


_JS = _lin_breg(0.5)


@_shared
def _e_gamma_breg(gamma: float) -> Breg:
    if not gamma >= 1.0:
        raise DomainError("E_gamma order must satisfy gamma >= 1")

    def term(d: float, q: float, p: float) -> float:
        # from the masses, keeping every bit of them; where q = 0 the term is
        # p, also at gamma = inf, where gamma q is NaN: E_inf = P(q = 0)
        x = p - gamma * q if q > 0.0 else p
        return x if x > 0.0 else 0.0

    def at_log(x: float, p: float) -> float:
        # p (1 - gamma e^-x), which e^-x as a subnormal would round
        return p * max(-math.expm1(math.log(gamma) - x), 0.0)

    return Breg(term, 0.0, 1.0, at_log)


@_shared
def _degroot_breg(omega: float) -> Breg:
    if not 0.0 < omega < 1.0:
        raise DomainError("DeGroot prior must lie in (0, 1)")
    comp = 1.0 - omega
    # min(omega, 1-omega) - min(omega t, 1-omega) less the subgradient's
    # line: the positive part of omega p - (1-omega) q, from the masses,
    # with its sign turned for omega > 1/2
    side = 1.0 if omega <= 0.5 else -1.0

    def term(d: float, q: float, p: float) -> float:
        x = side * (omega * p - comp * q)
        return x if x > 0.0 else 0.0

    def at_log(x: float, p: float) -> float:
        # omega p (1 - e^(l - x)), l = ln((1-omega)/omega) the log-odds,
        # which e^-x as a subnormal would round
        log_odds = math.log1p(-omega) - math.log(omega)
        return omega * p * max(-math.expm1(log_odds - x), 0.0)

    return Breg(term, 0.0, omega, at_log) if omega <= 0.5 else Breg(term, comp, 0.0)


# family -> its shifted term, made from the family's parameter; the
# generators below and divergences.divergence() both read it.  The kinds
# take Hellinger order 1 as KL, by analytic extension, where a generator
# refuses it.
_BREGS: dict[str, Callable[..., Breg]] = {
    "kl": lambda: _KL,
    "jeffreys": lambda: _JEFFREYS,
    "hellinger": lambda alpha: _KL if alpha == 1.0 else _hellinger_breg(alpha),
    "chi_squared": lambda: _CHI2,
    "chi_s": _chi_s_breg,
    "total_variation": lambda: _TV,
    "triangular": lambda: _TRIANGULAR,
    "lin": _lin_breg,
    "jensen_shannon": lambda: _JS,
    "e_gamma": _e_gamma_breg,
    "degroot": _degroot_breg,
}


def _edge_term(b: Breg, d: float, qm: float, pm: float) -> float:
    """One atom's term, p and q > 0, where the pass over all atoms failed:
    the term if finite, else its form in x = ln(p/q), ``at_log``, or where
    the family has none its limit at x = +-inf."""
    try:
        term = b.term(*(d, qm, pm)[: b.reads])
    except (OverflowError, ValueError):
        term = math.nan
    if math.isfinite(term):
        return term
    x = math.log(pm) - math.log(qm)
    if x > 0.0 and b.at_log is not None:
        return b.at_log(x, pm)
    return pm * b.at_inf if x > 0.0 else qm * b.at_zero


def _generic_breg(f: GeneratorFunction) -> Breg:
    """q f(p/q) - f'(1) d for a generator outside the catalog, from p/q in
    the masses, so that it is never rounded through d."""
    ev, c = f._eval, f.right_deriv_at_one

    def term(d: float, q: float, p: float) -> float:
        return q * ev(p / q) - c * d

    return Breg(term, f.f_at_zero + c, f.fstar_at_zero - c)


# generators ------------------------------------------------------------------


def _make(
    family: str,
    *,
    params: tuple[tuple[str, float], ...] = (),
    breg: Optional[Breg] = None,
    eval: Callable[[float], float],
    deriv: Optional[Callable[[float], float]] = None,
    second: Optional[Callable[[float], float]] = None,
    f_at_zero: float,
    fstar_at_zero: float,
    right_deriv_at_one: float,
    left_deriv_at_one: Optional[float] = None,
    second_at_one: Optional[float] = None,
    kink: Optional[float] = None,
) -> GeneratorFunction:
    """A GeneratorFunction whose left derivative at 1 is its right one
    unless given; the catalog's families and ``custom`` are built here."""
    return GeneratorFunction(
        family=family,
        params=params,
        f_at_zero=f_at_zero,
        fstar_at_zero=fstar_at_zero,
        right_deriv_at_one=right_deriv_at_one,
        left_deriv_at_one=(
            right_deriv_at_one if left_deriv_at_one is None else left_deriv_at_one
        ),
        second_at_one=second_at_one,
        kink=kink,
        _eval=eval,
        _deriv=deriv,
        _second=second,
        _breg=breg,
    )


def _kl() -> GeneratorFunction:
    return _make(
        "kl", breg=_KL, f_at_zero=0.0, fstar_at_zero=math.inf,
        right_deriv_at_one=1.0, second_at_one=1.0,
        eval=lambda t: t * math.log(t),
        deriv=lambda t: math.log(t) + 1.0,
        second=lambda t: 1.0 / t,
    )


def _jeffreys() -> GeneratorFunction:
    return _make(
        "jeffreys", breg=_JEFFREYS, f_at_zero=math.inf, fstar_at_zero=math.inf,
        right_deriv_at_one=0.0, second_at_one=2.0,
        eval=lambda t: (t - 1.0) * math.log(t),
        deriv=lambda t: math.log(t) + 1.0 - 1.0 / t,
        second=lambda t: 1.0 / t + 1.0 / (t * t),
    )


@_shared
def _hellinger(alpha: float) -> GeneratorFunction:
    breg = _hellinger_breg(alpha)
    am1 = alpha - 1.0
    return _make(
        "hellinger", params=_named(alpha=alpha), breg=breg,
        f_at_zero=1.0 / (1.0 - alpha), fstar_at_zero=math.inf if alpha > 1.0 else 0.0,
        right_deriv_at_one=alpha / am1, second_at_one=alpha,
        eval=lambda t: (t**alpha - 1.0) / am1,
        deriv=lambda t: alpha * t ** (alpha - 1.0) / am1,
        second=lambda t: alpha * t ** (alpha - 2.0),
    )


def _chi_squared() -> GeneratorFunction:
    return _make(
        "chi_squared", breg=_CHI2, f_at_zero=1.0, fstar_at_zero=math.inf,
        right_deriv_at_one=0.0, second_at_one=2.0,
        eval=lambda t: (t - 1.0) ** 2,
        deriv=lambda t: 2.0 * (t - 1.0),
        second=lambda t: 2.0,
    )


def _total_variation(family: str = "total_variation") -> GeneratorFunction:
    return _make(
        family, params=_named(s=1.0) if family == "chi_s" else (), breg=_TV,
        f_at_zero=1.0, fstar_at_zero=1.0,
        right_deriv_at_one=1.0, left_deriv_at_one=-1.0, kink=1.0,
        eval=lambda t: abs(t - 1.0),
        deriv=lambda t: 1.0 if t > 1.0 else -1.0,
    )


@_shared
def _chi_s(s: float) -> GeneratorFunction:
    breg = _chi_s_breg(s)
    if s == 1.0:
        return _total_variation(family="chi_s")
    if s == 2.0:
        second_at_one: Optional[float] = 2.0
    elif s > 2.0:
        second_at_one = 0.0
    else:
        second_at_one = None  # |t-1|^(s-2) blows up at 1 for s in (1,2)

    def dv(t: float) -> float:
        d = t - 1.0
        if d == 0.0:
            return 0.0
        return s * abs(d) ** (s - 1.0) * math.copysign(1.0, d)

    return _make(
        "chi_s", params=_named(s=s), breg=breg, f_at_zero=1.0, fstar_at_zero=math.inf,
        right_deriv_at_one=0.0, second_at_one=second_at_one,
        eval=lambda t: abs(t - 1.0) ** s,
        deriv=dv,
        second=lambda t: s * (s - 1.0) * abs(t - 1.0) ** (s - 2.0),
    )


def _triangular() -> GeneratorFunction:
    return _make(
        "triangular", breg=_TRIANGULAR, f_at_zero=1.0, fstar_at_zero=1.0,
        right_deriv_at_one=0.0, second_at_one=1.0,
        eval=lambda t: (t - 1.0) ** 2 / (t + 1.0),
        deriv=lambda t: (t - 1.0) * (t + 3.0) / (t + 1.0) ** 2,
        second=lambda t: 8.0 / (t + 1.0) ** 3,
    )


@_shared
def _lin(theta: float, family: str = "lin") -> GeneratorFunction:
    breg = _lin_breg(theta)
    comp = 1.0 - theta

    def ev(t: float) -> float:
        m = theta * t + comp
        return theta * t * math.log(t) - m * math.log(m)

    return _make(
        family, params=_named(theta=theta) if family == "lin" else (), breg=breg,
        f_at_zero=breg.at_zero, fstar_at_zero=breg.at_inf,
        right_deriv_at_one=0.0, second_at_one=theta * comp,
        eval=ev,
        deriv=lambda t: theta * (math.log(t) - math.log(theta * t + comp)),
        second=lambda t: theta * comp / (t * (theta * t + comp)),
    )


@_shared
def _e_gamma(gamma: float) -> GeneratorFunction:
    breg = _e_gamma_breg(gamma)
    return _make(
        "e_gamma", params=_named(gamma=gamma), breg=breg, f_at_zero=0.0, fstar_at_zero=1.0,
        right_deriv_at_one=1.0 if gamma == 1.0 else 0.0, left_deriv_at_one=0.0, kink=gamma,
        eval=lambda t: max(t - gamma, 0.0),
        deriv=lambda t: 1.0 if t > gamma else 0.0,
    )


@_shared
def _degroot(omega: float) -> GeneratorFunction:
    breg = _degroot_breg(omega)
    m = min(omega, 1.0 - omega)
    kink = (1.0 - omega) / omega
    if omega < 0.5:
        d_right = d_left = -omega
    elif omega > 0.5:
        d_right = d_left = 0.0
    else:
        d_right, d_left = 0.0, -0.5
    return _make(
        "degroot", params=_named(omega=omega), breg=breg, f_at_zero=m, fstar_at_zero=0.0,
        right_deriv_at_one=d_right, left_deriv_at_one=d_left, kink=kink,
        eval=lambda t: m - min(omega * t, 1.0 - omega),
        deriv=lambda t: -omega if t < kink else 0.0,
    )


# family -> (name of its one parameter, its memoized builder), or (None,
# the family's one generator, built here once)
_FAMILIES: dict[str, tuple[Optional[str], Any]] = {
    "kl": (None, _kl()),
    "jeffreys": (None, _jeffreys()),
    "hellinger": ("alpha", _hellinger),
    "chi_squared": (None, _chi_squared()),
    "chi_s": ("s", _chi_s),
    "total_variation": (None, _total_variation()),
    "triangular": (None, _triangular()),
    "lin": ("theta", _lin),
    "jensen_shannon": (None, _lin(0.5, family="jensen_shannon")),
    "e_gamma": ("gamma", _e_gamma),
    "degroot": ("omega", _degroot),
}


def generator(family: str, **params: float) -> GeneratorFunction:
    """A catalog generator, e.g. generator("hellinger", alpha=2).

    Families: kl, jeffreys, hellinger(alpha), chi_squared, chi_s(s),
    total_variation, triangular, lin(theta), jensen_shannon,
    e_gamma(gamma), degroot(omega), custom.  Catalog generators are shared
    immutable instances, built once per (family, parameters); a ``custom``
    generator is built on every call.
    """
    if family == "custom":
        return _make("custom", **params)  # type: ignore[arg-type]
    try:
        pname, made = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown generator family {family!r}") from None
    if pname is None:
        if params:
            raise DomainError(f"generator {family!r} takes no parameter")
        return made
    if len(params) != 1 or pname not in params:
        raise DomainError(f"generator {family!r} takes the one parameter {pname!r}")
    return made(params[pname])


# Every divergence kind: name -> (catalog generator family or None, name of
# its one parameter or None).  The direct sums, the named representations
# and the CLI all read kind and parameter names from here.
KINDS: dict[str, tuple[Optional[str], Optional[str]]] = {
    "kl": ("kl", None),
    "jeffreys": ("jeffreys", None),
    "hellinger": ("hellinger", "alpha"),
    "chi2": ("chi_squared", None),
    "sq_hellinger": (None, None),
    "bhattacharyya": (None, None),
    "alpha": (None, "alpha"),
    "chi_s": ("chi_s", "s"),
    "tv": ("total_variation", None),
    "triangular": ("triangular", None),
    "lin": ("lin", "theta"),
    "js": ("jensen_shannon", None),
    "e_gamma": ("e_gamma", "gamma"),
    "degroot": ("degroot", "omega"),
    "renyi": (None, "alpha"),
}


def kind_args(kind: str, params: Mapping[str, float]) -> tuple[float, ...]:
    """The parameter of ``kind`` taken from ``params``, as a 0- or 1-tuple."""
    try:
        _, pname = KINDS[kind]
    except KeyError:
        raise UnknownKindError(f"unknown divergence kind {kind!r}") from None
    if pname is None:
        return ()
    if pname not in params:
        raise DomainError(f"{kind!r} needs the parameter {pname!r}")
    return (params[pname],)


def parse_number(raw: str, what: str) -> float:
    """A finite float from text; anything else is a ValidationError."""
    try:
        x = float(raw)
    except ValueError:
        raise ValidationError(f"{what}: not a number: {raw!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"{what}: must be finite, got {raw!r}")
    return x


def parse_kind(spec: str) -> tuple[str, dict[str, float]]:
    """Split a CLI kind like "kl", "hellinger:0.5" or "degroot:0.25" into
    the kind and its parameter mapping."""
    name, _, raw = spec.partition(":")
    try:
        _, pname = KINDS[name]
    except KeyError:
        raise UnknownKindError(f"unknown divergence kind {spec!r}") from None
    if pname is None:
        if raw:
            raise DomainError(f"{name!r} takes no parameter")
        return name, {}
    if not raw:
        raise DomainError(f"{name!r} needs a parameter, e.g. {name}:0.5")
    return name, {pname: parse_number(raw, f"{name} parameter {pname}")}


def parse_generator(spec: str) -> GeneratorFunction:
    """Resolve a CLI name like "kl", "hellinger:0.5" or "degroot:0.25"."""
    kind, params = parse_kind(spec)
    family = KINDS[kind][0]
    if family is None:
        raise DomainError(f"{kind!r} has no catalog generator")
    return generator(family, **params)


def conjugate(f: GeneratorFunction) -> GeneratorFunction:
    """The conjugate generator f*(t) = t f(1/t); swaps divergence arguments.

    Conjugation is an involution; f* inherits limits and the second
    derivative at 1 from f.  Its shifted term is ``_generic_breg``'s.  The
    bounds in ``divkit.bounds`` do not build it: they evaluate t f(1/t), and
    f*(0) = ``f.fstar_at_zero``, in place.
    """
    base_eval, base_deriv, base_second = f._eval, f._deriv, f._second

    def ev(t: float) -> float:
        return t * base_eval(1.0 / t)

    dv = None
    if base_deriv is not None:

        def dv(t: float) -> float:  # type: ignore[misc]
            u = 1.0 / t
            return base_eval(u) - u * base_deriv(u)

    sd = None
    if base_second is not None:

        def sd(t: float) -> float:  # type: ignore[misc]
            u = 1.0 / t
            return base_second(u) * u**3

    return GeneratorFunction(
        family=f.family + "*",
        params=f.params,
        f_at_zero=f.fstar_at_zero,
        fstar_at_zero=f.f_at_zero,
        right_deriv_at_one=-f.left_deriv_at_one,
        left_deriv_at_one=-f.right_deriv_at_one,
        second_at_one=f.second_at_one,
        kink=None if f.kink is None else 1.0 / f.kink,
        _eval=ev,
        _deriv=dv,
        _second=sd,
    )


def affine_shift(f: GeneratorFunction, c: float) -> GeneratorFunction:
    """f(t) + c (t - 1); defines the same divergence as f, and shares its
    shifted term."""
    base_eval, base_deriv = f._eval, f._deriv

    def ev(t: float) -> float:
        return base_eval(t) + c * (t - 1.0)

    dv = None
    if base_deriv is not None:

        def dv(t: float) -> float:  # type: ignore[misc]
            return base_deriv(t) + c

    return GeneratorFunction(
        family=f.family,
        params=f.params,
        f_at_zero=f.f_at_zero - c,
        fstar_at_zero=f.fstar_at_zero + c,
        right_deriv_at_one=f.right_deriv_at_one + c,
        left_deriv_at_one=f.left_deriv_at_one + c,
        second_at_one=f.second_at_one,
        kink=f.kink,
        _eval=ev,
        _deriv=dv,
        _second=f._second,
        _breg=f._breg,  # the shifted term is the same for f + c (t - 1)
    )


def g_eval(f: GeneratorFunction, x: float) -> float:
    """The transform g(x) = e^-x f(e^x) - c (1 - e^-x): f's shifted term
    (``f._breg``) at (d, q, p) = (1 - e^-x, e^-x, 1), by ``_g_edge``.

    Non-negative with g(0) = 0; decreasing on (-inf, 0] and increasing on
    [0, inf), strictly where f is strictly convex.  c is the subgradient of
    f at 1 that the term uses: f'(1) for a differentiable f; for a kinked
    family it can differ from ``right_deriv_at_one`` (total variation's
    term |d| takes c = 0 where that is 1).  The named representations sum
    g's increments for kinked families too, which needs no derivative; the
    general and inverse-g engines, whose generators may be custom, refuse
    a kinked one.
    """
    v = _g_edge(f._breg, x)
    if x >= 0.0 or v == 0.0:
        return v
    return _exp_times(v, -x)  # e^-x passes the float range below x ~ -709.78


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
