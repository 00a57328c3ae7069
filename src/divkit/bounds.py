"""The inequality catalog: E_gamma / DeGroot lower bounds on general
f-divergences, closed-form upper bounds on E_gamma and DeGroot information,
the Pinsker / Bretagnolle-Huber / Vajda frontier (through Lambert W), and
the straight-line constant c_gamma.

All bound functions are pure scalar maps, so they compose with divergence
values computed elsewhere (or supplied externally).  KL and Renyi
quantities are in nats throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import DomainError, RootError, ValidationError, _real
from .terms import _edge_term, _exp_times, prior_scale

if TYPE_CHECKING:
    from .generators import GeneratorFunction

__all__ = [
    "BoundReport",
    "lambert_w",
    "c_gamma",
    "straight_line_egamma_ub",
    "fdiv_lower_via_egamma",
    "fdiv_lower_via_degroot",
    "egamma_upper",
    "hellinger_renyi_lower",
    "tv_kl_frontier",
    "degroot_upper",
    "chi2_lower_from_tv",
    "kl_upper_log_chi2",
    "crossover_d",
    "pinsker_bh_switch",
    "make_report",
    "CATALOG",
]

_BRANCH_POINT = -math.exp(-1.0)


class BoundReport(NamedTuple):
    """Outcome of one certified inequality, a tuple of its five fields.

    ``slack`` is certified - bound for lower bounds and bound - certified
    for upper bounds, so a satisfied inequality has non-negative slack.
    """

    name: str
    bound_value: float
    certified_quantity: Optional[float]
    direction: str
    slack: Optional[float]


def make_report(
    name: str, bound_value: float, certified_quantity: Optional[float], direction: str
) -> BoundReport:
    if direction not in ("lower", "upper"):
        raise DomainError(f"direction must be 'lower' or 'upper', got {direction!r}")
    if math.isnan(_real(bound_value, "bound_value")) or (
        certified_quantity is not None
        and math.isnan(_real(certified_quantity, "certified_quantity"))
    ):
        raise DomainError(
            f"{name}: NaN bound {bound_value!r} or certified value "
            f"{certified_quantity!r}"
        )
    slack: Optional[float] = None
    if certified_quantity is not None:
        if bound_value == certified_quantity:
            slack = 0.0  # also the same infinity on both sides
        elif direction == "lower":
            slack = certified_quantity - bound_value
        else:
            slack = bound_value - certified_quantity
    return BoundReport(name, bound_value, certified_quantity, direction, slack)


def _halley(x: float, w0: float) -> float:
    w = w0
    for _ in range(100):
        ew = math.exp(w)
        err = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            break  # landed on the branch point
        denom = ew * wp1 - (w + 2.0) * err / (2.0 * wp1)
        dw = err / denom
        w -= dw
        if abs(dw) <= 1e-15 * (1.0 + abs(w)):
            break
    return w


def _log_newton(lx: float, w: float) -> float:
    """Newton from w on ln|w| + w = lx, the logarithm of w e^w = x."""
    for _ in range(100):
        dw = w * (math.log(abs(w)) + w - lx) / (w + 1.0)
        w -= dw
        if abs(dw) <= 1e-15 * abs(w):
            break
    return w


def lambert_w(branch: str, x: float) -> float:
    """Real Lambert W: solve w e^w = x on the requested branch.

    principal: x >= -1/e, w >= -1 (inf at x = inf);  secondary:
    -1/e <= x < 0, w <= -1.  Halley iteration from a branch-appropriate
    seed; round-trip accurate to ~1e-15 relative away from the branch
    point.  Past 1e300 (principal) and within 1e-300 of 0 (secondary),
    where w e^w or e^w leaves the float range, it solves
    ln|w| + w = ln|x| instead.
    """
    if math.isnan(x if type(x) is float else _real(x, "x")):
        raise DomainError("NaN argument")
    if branch == "principal":
        if x < _BRANCH_POINT:
            raise DomainError(f"x={x!r} below the branch point -1/e")
        if x == _BRANCH_POINT:
            return -1.0
        if x == 0.0 or x == math.inf:
            return x
        delta = 1.0 + math.e * x
        if delta < 5e-13:
            # series around the branch point; Halley stalls at w = -1
            return -1.0 + math.sqrt(2.0 * delta)
        if x <= -0.27:
            w0 = -1.0 + math.sqrt(2.0 * delta)
        elif x <= math.e:
            w0 = math.log1p(x) if x > -0.9 else x
        else:
            lx = math.log(x)
            w0 = lx - math.log(lx)
            if x > 1e300:
                return _log_newton(lx, w0)
        return _halley(x, w0)
    if branch == "secondary":
        if x < _BRANCH_POINT or x >= 0.0:
            raise DomainError(f"x={x!r} outside [-1/e, 0) for the secondary branch")
        if x == _BRANCH_POINT:
            return -1.0
        delta = 1.0 + math.e * x
        if delta < 5e-13:
            return -1.0 - math.sqrt(2.0 * delta)
        if x >= -0.27:
            lx = math.log(-x)
            w0 = lx - math.log(-lx)
            if x > -1e-300:
                return _log_newton(lx, w0)
        else:
            w0 = -1.0 - math.sqrt(2.0 * delta)
        return _halley(x, w0)
    raise DomainError(f"unknown branch {branch!r}")


# (1/(k+1)!, k/(k+1)!) for k = 15 .. 1: the series of (e^u - 1 - u)/u and
# of its derivative, by Horner
_EXCESS_COEFS = tuple(
    (1.0 / math.factorial(k + 1), k / math.factorial(k + 1)) for k in range(15, 0, -1)
)


def _excess_ratio(u: float) -> tuple[float, float]:
    """(e^u - 1 - u)/u and its derivative, for 0 < u < 1.3.  Below 1/2 it
    is the series sum over k >= 1 of u^k/(k+1)!, whose terms are all
    positive and whose first omitted one is below 1e-17 of the sum; above,
    e^u - 1 - u loses at most a factor 4 to cancellation."""
    if u >= 0.5:
        em1 = math.expm1(u)
        return (em1 - u) / u, ((u - 1.0) * em1 + u) / (u * u)
    value = slope = 0.0
    for c, kc in _EXCESS_COEFS:
        value = value * u + c
        slope = slope * u + kc
    return value * u, slope


def _log_ratio(u: float) -> tuple[float, float]:
    """ln((e^u - 1)/u) and its derivative, for u > 1.2."""
    return u + math.log1p(-math.exp(-u)) - math.log(u), 1.0 / -math.expm1(-u) - 1.0 / u


def c_gamma(gamma: float) -> float:
    """Tightest constant c with E_gamma <= c * KL, for gamma in (1, inf]
    (nats); the limit at gamma = inf is 0.

    The two roots of w e^w = -(1/gamma) e^(-1/gamma) are -1/gamma and
    -t/gamma, t = 1 + s the secondary Lambert root, so s = gamma log1p(s)
    and c = (t - gamma) / (t ln t + 1 - t) = gamma/s.  In u = log1p(s) =
    s/gamma that is e^u - 1 = gamma u and c = 1/u.  Newton solves it on a
    convex increasing function: for gamma <= 2 as
    (e^u - 1 - u)/u = gamma - 1, which is exact in floats and whose
    series holds every bit as u nears 0 with gamma near 1; above 2 as
    ln((e^u - 1)/u) = ln gamma, so that e^u, past the float range from
    gamma ~ 1e306, is never formed.
    """
    if not _real(gamma, "gamma") > 1.0:
        raise DomainError("c_gamma defined for gamma > 1")
    return _c_gamma(gamma, gamma - 1.0)


@lru_cache(maxsize=1, typed=True)
def _c_gamma(gamma: float, gm1: float) -> float:
    """``c_gamma`` with gm1 = gamma - 1 given, as ``_egamma_upper`` takes it; keeps its last."""
    if gamma == math.inf:
        return 0.0
    if gamma <= 2.0:
        # the root of u/2 + u^2/6 = gamma - 1, the series' first two terms
        target, solve = gm1, _excess_ratio
        u = 2.0 * target / (math.sqrt(0.25 + target / 1.5) + 0.5)
    else:
        # u = ln gamma + ln u, less ln(1 - e^-u), from u ~ 1 + ln gamma
        target, solve = math.log(gamma), _log_ratio
        u = target + math.log1p(target)
    for _ in range(100):
        value, slope = solve(u)
        step = (value - target) / slope
        u -= step
        # Newton converges quadratically here: a step below 1e-8 u leaves
        # an error below 1e-16 u
        if abs(step) <= 1e-8 * u:
            break
    return 1.0 / u


def straight_line_egamma_ub(gamma: float, d: float) -> float:
    """Straight-line bound E_gamma <= c_gamma * KL (nats), gamma > 1."""
    if not _real(d, "d") >= 0.0:
        raise DomainError("relative entropy must be non-negative")
    c = c_gamma(gamma)
    return math.inf if d == math.inf else c * d  # also at gamma = inf, where c is 0


def _jensen(f: GeneratorFunction, up: float, down: float, base: float) -> float:
    """f*(up) + f*(down) - f*(base) for up + down - base = 1, up >= 1 and
    down <= base <= 1, with the conjugate f*(t) = t f(1/t) and its limit
    f*(0) at t = 0 evaluated in place; where f* passes the float range, the
    same sum of f's shifted term T(t) = f*(t) - c (1 - t), whose c parts
    cancel, each from ``terms._edge_term``, which reads T(0) = f*(0) - c
    as the singular part ``at_inf``.  For down = base the last two cancel,
    also where both are 0 (gamma = inf); a lower bound must not overstate,
    so past the float range their difference is refused."""
    ev, at_zero = f._eval, f.fstar_at_zero
    try:
        value = up * ev(1.0 / up) + (down * ev(1.0 / down) if down else at_zero)
        value -= base * ev(1.0 / base) if base else at_zero
        if value == value:  # not NaN
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    b = f._breg

    def term(t: float) -> float:
        return _edge_term(b, 1.0 - t, t, 1.0)

    value = term(up)
    if down != base:
        value += term(down) - term(base)
        if not value < math.inf:
            raise DomainError(f"generator {f.family}: f* passes the float range at {base!r}")
    return value


def fdiv_lower_via_egamma(f: GeneratorFunction, e_val: float, gamma: float) -> float:
    """Jensen lower bound on D_f(P||Q) from one E_gamma value.

    f*(1 + E/g) + f*((1 - E)/g) - f*(1/g), valid for every pair with
    E_gamma(P||Q) = e_val.  Tight for f = total variation at gamma = 1.
    """
    if not 0.0 <= (e_val if type(e_val) is float else _real(e_val, "e_val")) < 1.0:
        raise DomainError("E_gamma value must lie in [0, 1)")
    if not (gamma if type(gamma) is float else _real(gamma, "gamma")) >= 1.0:
        raise DomainError("gamma must be >= 1")
    return _jensen(f, 1.0 + e_val / gamma, (1.0 - e_val) / gamma, 1.0 / gamma)


def fdiv_lower_via_degroot(f: GeneratorFunction, omega: float, i_val: float) -> float:
    """Lower bound on D_f(P||Q) from one DeGroot information value.

    For omega <= 1/2 pass I_omega(P||Q); for omega > 1/2 pass I_omega(Q||P).
    It is the E_gamma bound at E = i_val / m and gamma = big / m, with
    (m, big) from ``terms.prior_scale``.
    """
    m, big, _ = prior_scale(omega)
    if not 0.0 <= (i_val if type(i_val) is float else _real(i_val, "i_val")) <= m:
        raise DomainError(
            f"DeGroot value {i_val!r} outside [0, min(omega, 1-omega)]"
        )
    return _jensen(f, 1.0 + i_val / big, (m - i_val) / big, m / big)


def _root_gap(b: float, r: float) -> float:
    """sqrt(b^2 + a) - b for b >= 0 and a = r^2 >= 0, as a / (sqrt(b^2 + a)
    + b), without cancellation; from r, and with a halved denominator, so
    that no intermediate leaves the float range for finite b and r."""
    if r == 0.0:
        return 0.0
    return r * (0.5 * r / (0.5 * math.hypot(b, r) + 0.5 * b))


def _share(x: float, scale: float) -> float:
    """x / (scale + x) for x >= 0 and scale > 0, 1 at x = inf, divided
    through by the larger of the two so that no intermediate overflows."""
    if x == math.inf:
        return 1.0
    if x > scale:
        return 1.0 / (1.0 + scale / x)
    r = x / scale
    return r / (1.0 + r)


def egamma_upper(kind: str, gamma: float, value: float) -> float:
    """Closed-form upper bounds on E_gamma from chi^2 or KL (nats).

    kind="chi2":  (1/2)[1 - g + sqrt((g-1)^2 + 4 g x / (1 + g + x))];
    kind="kl":    (1/2)[1 - g + sqrt((g-1)^2 + 4 g (1 - e^(-D)))].
    At gamma = 1 the KL form is the Bretagnolle-Huber bound on E_1.  Both
    are (1/2)(sqrt(b^2 + a) - b) with b = g - 1, taken by ``_root_gap``
    without cancellation, so they hold for gamma up to the float range.
    With a = 4 g s, s the share under the root, they tend to the limit of
    s as gamma grows, which is their value at gamma = inf.
    """
    if not (gamma if type(gamma) is float else _real(gamma, "gamma")) >= 1.0:
        raise DomainError("gamma must be >= 1")
    value = value if type(value) is float else _real(value, "value")
    return _egamma_upper(kind, gamma, gamma - 1.0, value)


def _egamma_upper(kind: str, gamma: float, gm1: float, value: float) -> float:
    """``egamma_upper`` with gm1 = gamma - 1 given, so that a caller that has
    it exactly keeps the relative accuracy of the bound as gamma nears 1."""
    if not value >= 0.0:
        raise DomainError("divergence input must be non-negative")
    if kind == "chi2":
        share = _share(value, 1.0 + gamma)
    elif kind == "kl":
        share = -math.expm1(-value)
    else:
        raise DomainError(f"unknown egamma_upper kind {kind!r}")
    # at share 1 the root is exactly gamma + 1 and the bound exactly 1
    if gamma == math.inf or share == 1.0:
        return share
    return 0.5 * _root_gap(gm1, 2.0 * math.sqrt(gamma) * math.sqrt(share))


def hellinger_renyi_lower(kind: str, alpha: float, gamma: float, e_val: float) -> float:
    """Lower bounds on the Hellinger or Renyi divergence of order alpha
    from one E_gamma value (alpha = 1 is the logarithmic branch; nats).

    With a = alpha, up = 1 + E/gamma, down = 1 - E and t = down^(1-a) - 1,
    the Hellinger bound is (up^(1-a) - 1)/(a-1) + gamma^(a-1) t/(a-1) and
    the Renyi bound ln(up^(1-a) + gamma^(a-1) t)/(a-1).  t/(a-1) >= 0, and
    gamma^(a-1) |t| is taken from its logarithm, so a bound is inf only
    where it passes the float range.
    """
    if not 0.0 < (alpha if type(alpha) is float else _real(alpha, "alpha")) < math.inf:
        raise DomainError("order must be positive and finite")
    if not (gamma if type(gamma) is float else _real(gamma, "gamma")) >= 1.0:
        raise DomainError("gamma must be >= 1")
    if not 0.0 <= (e_val if type(e_val) is float else _real(e_val, "e_val")) < 1.0:
        raise DomainError("E_gamma value must lie in [0, 1)")
    if kind not in ("hellinger", "renyi"):
        raise DomainError(f"unknown kind {kind!r}")
    if alpha == 1.0:  # -ln(up down), up down = 1 - u, from u while it is small
        u = e_val * ((gamma - 1.0 + e_val) / gamma)
        if u < 0.5:
            return -math.log1p(-u)
        return -(math.log1p(e_val / gamma) + math.log1p(-e_val))
    if e_val == 0.0:
        return 0.0  # t = 0 and up = 1
    am1 = alpha - 1.0
    up_m1 = math.expm1(-am1 * math.log1p(e_val / gamma))  # up^(1-alpha) - 1
    y = -am1 * math.log1p(-e_val)  # ln down^(1-alpha), of the sign of alpha - 1
    if y > 0.0:
        log_t = y + math.log(-math.expm1(-y))  # ln|t|
    else:  # -inf where alpha - 1 times E underflows
        log_t = math.log(-math.expm1(y)) if y < 0.0 else -math.inf
    log_b = am1 * math.log(gamma) + log_t  # ln(gamma^(alpha-1) |t|)
    if kind == "hellinger":
        return up_m1 / am1 + _exp_times(1.0 / abs(am1), log_b)
    if am1 < 0.0 or log_b < 0.0:  # 1 + up_m1 + b, b = gamma^(alpha-1) t
        return math.log1p(up_m1 + math.copysign(math.exp(log_b), am1)) / am1
    return (log_b + math.log1p((1.0 + up_m1) * math.exp(-log_b))) / am1


def tv_kl_frontier(kind: str, value: float) -> float:
    """Classical total-variation / relative-entropy frontier (nats).

    Lower bounds on KL from TV: pinsker_lb_kl, bh_lb_kl, vajda_lb_kl.
    Upper bounds on TV from KL: bh_ub_tv, vajda_ub_tv (principal Lambert
    branch).
    """
    if kind in ("pinsker_lb_kl", "bh_lb_kl", "vajda_lb_kl"):
        tv = value if type(value) is float else _real(value, "value")
        if not 0.0 <= tv < 2.0:
            raise DomainError("total variation must lie in [0, 2)")
        if kind == "pinsker_lb_kl":
            return 0.5 * tv * tv
        if kind == "bh_lb_kl":
            return -math.log1p(-0.25 * tv * tv)
        return math.log((2.0 + tv) / (2.0 - tv)) - 2.0 * tv / (2.0 + tv)
    if kind in ("bh_ub_tv", "vajda_ub_tv"):
        d = value if type(value) is float else _real(value, "value")
        if not d >= 0.0:
            raise DomainError("relative entropy must be non-negative")
        if kind == "bh_ub_tv":
            return 2.0 * math.sqrt(-math.expm1(-d))
        # 1 + w for w = W0(-e^(-1-D)); next to the branch point, where z
        # would lose its distance 1 - e^-D from -1/e, from the branch-point
        # series in r = sqrt(2 (1 - e^-D)), whose next term is below 2e-13 r
        delta = -math.expm1(-d)
        if delta < 1e-4:
            r = math.sqrt(2.0 * delta)
            tail = 43.0 / 540.0 - r * (769.0 / 17280.0 - r * (221.0 / 8505.0))
            one_plus_w = r * (1.0 - r * (1.0 / 3.0 - r * (11.0 / 72.0 - r * tail)))
        else:
            one_plus_w = 1.0 + lambert_w("principal", -math.exp(-1.0 - d))
        return 2.0 * one_plus_w / (2.0 - one_plus_w)
    raise DomainError(f"unknown frontier kind {kind!r}")


# the DeGroot upper bounds are rounded up by 6 units of 2^-52: against the
# 700-digit oracle each form is within 3.4 such units of its exact value,
# and the product with this factor rounds by half a unit more
_OUTWARD = 1.0 + 6.0 * 2.0**-52


def _need(val: Optional[float], name: str, kind: str, omega: float) -> float:
    """The input ``name`` of ``degroot_upper``: given, a real number and >= 0."""
    if type(val) is not float:
        if val is None:
            raise ValidationError(f"{kind} with omega={omega} needs {name}")
        _real(val, name)
    if not val >= 0.0:
        raise DomainError(f"{name} must be non-negative")
    return val


def degroot_upper(
    kind: str,
    omega: float,
    d_pq: Optional[float] = None,
    d_qp: Optional[float] = None,
    chi_pq: Optional[float] = None,
    chi_qp: Optional[float] = None,
) -> float:
    """Closed-form upper bounds on the DeGroot information I_omega(P||Q):
    m times an E_gamma bound at gamma = big/m, as I_omega = m E_{big/m},
    with (m, big, swap) from ``terms.prior_scale``.

    Each reads the divergence of the side that map picks, P||Q for
    omega <= 1/2 and Q||P above: kind="chi2" chi^2 (``egamma_upper``);
    kind="kl_line" D (``straight_line_egamma_ub``), with the Pinsker form
    sqrt(min(D_pq, D_qp)/8) at omega = 1/2; kind="kl_bh" D (the
    Bretagnolle-Huber-style ``egamma_upper``).  All bounds approach
    m = min(omega, 1-omega) as the divergences grow, and equal m where
    the share under the root is 1 in floats.  Each takes gamma - 1 as
    |1 - 2 omega|/m, exact near omega = 1/2 where big/m - 1 would lose it
    to the rounding of big/m, and is rounded up by the factor _OUTWARD.
    """
    m, big, swap = prior_scale(omega)
    gm1 = abs(1.0 - 2.0 * omega) / m
    if kind == "kl_line" and omega == 0.5:
        d = min(_need(d_pq, "d_pq", kind, omega), _need(d_qp, "d_qp", kind, omega))
        bound = math.sqrt(d / 8.0)
    elif kind == "chi2":
        value = (
            _need(chi_qp, "chi_qp", kind, omega) if swap else _need(chi_pq, "chi_pq", kind, omega)
        )
        bound = m * _egamma_upper("chi2", big / m, gm1, value)
    elif kind == "kl_bh":
        value = _need(d_qp, "d_qp", kind, omega) if swap else _need(d_pq, "d_pq", kind, omega)
        bound = m * _egamma_upper("kl", big / m, gm1, value)
    elif kind == "kl_line":
        value = _need(d_qp, "d_qp", kind, omega) if swap else _need(d_pq, "d_pq", kind, omega)
        bound = math.inf if value == math.inf else m * (_c_gamma(big / m, gm1) * value)
    else:
        raise DomainError(f"unknown degroot_upper kind {kind!r}")
    return bound * _OUTWARD


def chi2_lower_from_tv(kind: str, tv: float) -> float:
    """Lower bounds on chi^2 from total variation.

    kind="tight" is the two-branch optimal curve; kind="jensen" the single
    closed form 2 tv^2 / (4 - tv^2), at most a factor 2 (resp. 3/2) below
    the tight curve on tv < 1 (resp. tv >= 1).
    """
    if not 0.0 <= (tv if type(tv) is float else _real(tv, "tv")) < 2.0:
        raise DomainError("total variation must lie in [0, 2)")
    if kind == "tight":
        if tv < 1.0:
            return tv * tv
        return tv / (2.0 - tv)
    if kind == "jensen":
        return 2.0 * tv * tv / (4.0 - tv * tv)
    raise DomainError(f"unknown chi2_lower_from_tv kind {kind!r}")


def kl_upper_log_chi2(chi2: float) -> float:
    """KL <= ln(1 + chi^2), in nats."""
    if not (chi2 if type(chi2) is float else _real(chi2, "chi2")) >= 0.0:
        raise DomainError("chi^2 must be non-negative")
    return math.log1p(chi2)


def _bisect(h, lo: float, hi: float, rtol: float, iters: int = 200) -> float:
    h_lo = h(lo)
    h_hi = h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if (h_lo > 0.0) == (h_hi > 0.0):
        raise RootError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        if hi - lo <= rtol * hi:
            break
        mid = 0.5 * (lo + hi)
        if (h(mid) > 0.0) == (h_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossover_d(gamma: float) -> float:
    """Relative entropy (nats) where the straight-line E_gamma bound stops
    being tighter than the Bretagnolle-Huber-style curve, for gamma > 1."""
    if _real(gamma, "gamma") <= 1.0:
        raise DomainError("crossover defined for gamma > 1")
    c = c_gamma(gamma)

    def h(d: float) -> float:
        return c * d - egamma_upper("kl", gamma, d)

    # the crossover is ~2 (gamma - 1)^2 near gamma = 1 and grows like
    # ln gamma; h < 0 at the lower end and > 0 at the upper one for every
    # finite gamma > 1 (697.3 at gamma = 1e300)
    lo = min(1e-6, 0.5 * (gamma - 1.0) * (gamma - 1.0))
    return _bisect(h, lo, 50.0 + 2.0 * math.log(gamma), rtol=1e-12)


def pinsker_bh_switch() -> float:
    """Relative entropy (nats) where the Pinsker and Bretagnolle-Huber
    upper bounds on total variation cross: the positive root of
    2(1 - e^(-D)) = D, which is 2 + W0(-2 e^-2) (principal Lambert branch;
    the secondary one gives the root D = 0)."""
    return 2.0 + lambert_w("principal", -2.0 * math.exp(-2.0))


# the inequality catalog: bound name -> (direction, the names of its inputs
# in call order, the function of them), read by the CLI's ``bounds`` and by
# ``bayes_poisson.poisson_bound_report``.  The DeGroot bounds take
# ``degroot_upper``'s inputs: the side a bound reads depends on omega
_DEGROOT_INPUTS = ("omega", "d_pq", "d_qp", "chi_pq", "chi_qp")
CATALOG: dict[str, tuple[str, tuple[str, ...], Callable[..., float]]] = {
    "pinsker_lb_kl": ("lower", ("tv",), partial(tv_kl_frontier, "pinsker_lb_kl")),
    "bh_lb_kl": ("lower", ("tv",), partial(tv_kl_frontier, "bh_lb_kl")),
    "vajda_lb_kl": ("lower", ("tv",), partial(tv_kl_frontier, "vajda_lb_kl")),
    "bh_ub_tv": ("upper", ("kl",), partial(tv_kl_frontier, "bh_ub_tv")),
    "vajda_ub_tv": ("upper", ("kl",), partial(tv_kl_frontier, "vajda_ub_tv")),
    "egamma_ub_chi2": ("upper", ("gamma", "chi2"), partial(egamma_upper, "chi2")),
    "egamma_ub_kl": ("upper", ("gamma", "kl"), partial(egamma_upper, "kl")),
    "straight_line_egamma_ub": ("upper", ("gamma", "kl"), straight_line_egamma_ub),
    "chi2_lb_tv_tight": ("lower", ("tv",), partial(chi2_lower_from_tv, "tight")),
    "chi2_lb_tv_jensen": ("lower", ("tv",), partial(chi2_lower_from_tv, "jensen")),
    "kl_ub_log_chi2": ("upper", ("chi2",), kl_upper_log_chi2),
    "degroot_ub_from_chi2": ("upper", _DEGROOT_INPUTS, partial(degroot_upper, "chi2")),
    "degroot_ub_kl_line": ("upper", _DEGROOT_INPUTS, partial(degroot_upper, "kl_line")),
    "degroot_ub_kl_bh": ("upper", _DEGROOT_INPUTS, partial(degroot_upper, "kl_bh")),
    "c_gamma": ("upper", ("gamma",), c_gamma),
    "crossover_d": ("upper", ("gamma",), crossover_d),
    "pinsker_bh_switch": ("upper", (), pinsker_bh_switch),
}
