"""Local behavior of f-divergences along mixture paths.

As the mixture weight of P in lam*P + (1-lam)*Q goes to zero, every
divergence with a finite f''(1) scales like (1/2) f''(1) chi^2(P||Q) lam^2.
This module holds the chi^2 / chi^s mixture identities, the three-measure
chi^2 expansion, and the lam -> 0 limits, each read at one point lam* of
the path.  All sum each family's shifted term at d = lam (p - q)/q, so
rounding the mixture's masses never swamps the lam^s they are divided by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

from .distributions import DiscreteDistribution, _masses
from .divergences import _shifted_sum, divergence
from .errors import CapabilityError, DomainError, _real
from .generators import _FAMILIES, GeneratorFunction
from .terms import Breg

__all__ = [
    "LocalLimitEstimate",
    "chi2_mixture_scaling",
    "chis_mixture_scaling",
    "chi2_mixture_three",
    "local_limit_estimate",
    "renyi_local_estimate",
    "ratio_limit_pair",
]

# the leads of k in lam* = 2^-k (``LocalLimitEstimate``); past k = 500, Q's
# masses scaled by 4^k would near the end of the float range
_K_FLOOR, _K_MASSES, _K_CAP = 66, 12, 500


@dataclass(frozen=True)
class LocalLimitEstimate:
    """The lam -> 0 limit of D(mixture)/lam^2, read at one point of the path.

    ``ratios`` holds D(lam)/lam^2 at each of ``lambdas`` = (8 lam*, lam*);
    ``extrapolated`` is the last, at lam* = 2^-k, k = 66 + the binary
    exponent of max |p - q|/q, never below 66.  ``residual`` =
    |r(8 lam*) - r(lam*)|, seven times the O(lam*) term the reading keeps --
    an honest error estimate -- and inf where a ratio leaves the float range
    or k passes 500, where lam* = 2^-500 is read instead.  A term of the
    masses alone (a custom generator's) sees the step only through the
    mixture's rounded masses: k = 12 + that exponent (lam* past 1 for a
    near-equal pair, on the path past P), and the residual adds their
    rounding, (1 + |c|) 2^-50 / lam*^2.  ``target`` is (1/2) f''(1) chi^2(P||Q).
    """

    lambdas: tuple[float, ...]
    ratios: tuple[float, ...]
    extrapolated: float
    target: float
    residual: float


def _supported_masses(
    p: DiscreteDistribution, q: DiscreteDistribution, direction: str = "mixture_first"
):
    """Q's masses, the differences p - q, refused unless P << Q, and whether
    ``direction`` puts the mixture first."""
    if direction not in ("mixture_first", "mixture_second"):
        raise DomainError(f"unknown direction {direction!r}")
    ps, qs = _masses(p, q)
    for i, (pm, qm) in enumerate(zip(ps, qs)):
        if pm > 0.0 and qm == 0.0:
            raise DomainError(f"atom {i} has P-mass where Q vanishes")
    return qs, list(map(sub, ps, qs)), direction == "mixture_first"


def _path_masses(p: DiscreteDistribution, q: DiscreteDistribution, lam: float):
    """The pair's masses, refused unless the mixture weight lies in [0, 1]."""
    if not 0.0 <= _real(lam, "lam") <= 1.0:
        raise DomainError("mixture weight must lie in [0, 1]")
    return _masses(p, q)


def chi2_mixture_scaling(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> float:
    """chi^2(lam P + (1-lam) Q || Q), the mixture-path sum that equals
    lam^2 chi^2(P||Q) to rounding."""
    return chis_mixture_scaling(p, q, 2.0, lam)


def chis_mixture_scaling(
    p: DiscreteDistribution, q: DiscreteDistribution, s: float, lam: float
) -> float:
    """chi^s(lam P + (1-lam) Q || Q), the mixture-path sum that equals
    lam^s chi^s(P||Q) to rounding."""
    ps, qs = _path_masses(p, q, lam)
    b = _FAMILIES["chi_s"].term(_real(s, "s"))
    return _mixture_divergence(b, list(map(sub, ps, qs)), qs, lam, True)


def chi2_mixture_three(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    r: DiscreteDistribution,
    lam: float,
) -> tuple[float, float]:
    """chi^2 of the (P,Q)-mixture against a third measure R.

    Returns (value, c) where value = chi^2(lam P + (1-lam) Q || R) and
    c = 2 sum (p-q) q / r is the linear coefficient of the exact expansion
    value - chi^2(Q||R) = c lam + (chi^2(P||R) - chi^2(Q||R) - c) lam^2,
    i.e. the derivative of the mixture chi^2 in lam at 0.  (Expanding
    (mix - r)^2 = lam^2 (p-q)^2 + 2 lam (p-q)(q-r) + (q-r)^2 shows the
    cross term integrates to 2 sum (p-q) q / r; without the factor 2 the
    expansion does not close.)  c vanishes when Q = R, recovering the pure
    quadratic scaling.  The value is the shifted sum at
    d = (q - r) + lam (p - q), which keeps lam^2 chi^2(P||Q) exact at R = Q.
    """
    ps, qs = _path_masses(p, q, lam)
    terms, ms, rs, ds = [], [], [], []
    for pm, qm, rm in zip(ps, qs, _masses(q, r)[1]):
        if rm == 0.0:
            if pm > 0.0 or qm > 0.0:
                raise DomainError("R must dominate both P and Q")
            continue
        terms.append((pm - qm) * qm / rm)
        step = lam * (pm - qm)
        ms.append(qm + step)
        rs.append(rm)
        ds.append((qm - rm) + step)
    c = 2.0 * math.fsum(terms)
    return _shifted_sum(_FAMILIES["chi_squared"].term(), ms, rs, ds), c


def _mixture_divergence(b: Breg, ds, qs, lam: float, first: bool) -> float:
    """D(M||Q) (first) or D(Q||M) for M = lam P + (1-lam) Q, from Q's masses
    and the differences p - q of a pair already read through the gate, which
    a caller takes once for every lam: the shifted sum at d = +-lam (p - q),
    exact where the mixture's rounded masses would swamp the lam^2 of its
    value; M's masses are read only where a term asks for them."""
    steps = [lam * d for d in ds]
    ms = [qm + step for qm, step in zip(qs, steps)]
    if first:
        return _shifted_sum(b, ms, qs, steps)
    return _shifted_sum(b, qs, ms, [-step for step in steps])


def _path_ratio(b: Breg, ds, qs, k: int, first: bool) -> float:
    """D(lam)/lam^2 at lam = 2^-k: the path sum with Q's masses scaled by 4^k
    and the step by 2^k, which scales each term, q times a function of d/q,
    by 1/lam^2 exactly in binary, so no D(lam) underflows before the division."""
    scale = 2.0**k
    return _mixture_divergence(b, ds, [qm * scale * scale for qm in qs], scale, first)


def _estimate(ratio_at, qs, ds, target: float, noise: float | None = None) -> LocalLimitEstimate:
    """The estimate from ``ratio_at(k)``, the ratio at lam = 2^-k, read at
    the check point 8 lam* and at lam* (``LocalLimitEstimate``).  ``noise``
    is given for a term of the masses alone: its rounding per unit of Q's
    mass (which sums to 1), which the residual takes in 1/lam*^2 times over."""
    peak = max((abs(d) / qm for qm, d in zip(qs, ds) if d), default=0.0)
    e = math.frexp(peak)[1] if peak < math.inf else math.inf
    k = _K_FLOOR + max(e, 0) if noise is None else _K_MASSES + e
    read = min(k, _K_CAP)
    ratios = ratio_at(read - 3), ratio_at(read)
    resolved = k <= _K_CAP and all(map(math.isfinite, ratios))  # no inf - inf
    residual = abs(ratios[0] - ratios[1]) + (noise or 0.0) * 4.0**read if resolved else math.inf
    return LocalLimitEstimate((2.0 ** (3 - read), 2.0**-read), ratios, ratios[1], target, residual)


def _renyi_ratio(alpha: float, r: float, k: int) -> float:
    """ln(1 + (alpha-1) H)/(alpha-1) over lam^2 at lam = 2^-k from the
    Hellinger sum's r = H/lam^2: r ln(1+y)/y at y = (alpha-1) H, r at y = 0."""
    y = (alpha - 1.0) * (r * 4.0**-k)
    if not math.isfinite(y):
        return math.inf
    return r * (math.log1p(y) / y) if y else r


def local_limit_estimate(
    f: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    direction: str = "mixture_first",
) -> LocalLimitEstimate:
    """Estimate the lam -> 0 limit of D_f(mixture)/lam^2.

    direction="mixture_first" perturbs the first argument,
    "mixture_second" the second; both converge to the same target
    (1/2) f''(1) chi^2(P||Q).
    """
    if f.second_at_one is None or not math.isfinite(f.second_at_one):
        raise CapabilityError(f"generator {f.family} lacks a finite f''(1)")
    qs, ds, first = _supported_masses(p, q, direction)
    # 0 where f''(1) is, also where chi^2 passes the float range (0 inf)
    target = 0.5 * f.second_at_one * float(divergence("chi2", p, q)) if f.second_at_one else 0.0
    noise = 2.0**-50 * (1.0 + abs(f.right_deriv_at_one)) if f._breg.reads.start else None
    return _estimate(lambda k: _path_ratio(f._breg, ds, qs, k, first), qs, ds, target, noise)


def renyi_local_estimate(
    alpha: float,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    direction: str = "mixture_first",
) -> LocalLimitEstimate:
    """Same mixture-path limit for the Renyi divergence of order alpha;
    the target is (1/2) alpha chi^2(P||Q) in nats.

    Order 0 vanishes identically along mixture paths (the mixture keeps
    Q's support); order infinity diverges and is reported as such, its
    ratios read from D_inf(M||Q) = max ln(m/q) or D_inf(Q||M) = max ln(q/m).
    """
    if _real(alpha, "alpha") < 0.0:
        raise DomainError("Renyi order must be non-negative")
    qs, ds, first = _supported_masses(p, q, direction)
    chi2 = float(divergence("chi2", p, q))
    if alpha == 0.0:
        return LocalLimitEstimate((2.0**-63, 2.0**-66), (0.0, 0.0), 0.0, 0.0, 0.0)
    if math.isinf(alpha):
        sign = 1.0 if first else -1.0  # ln(q/m) = -ln(m/q)
        xs = [d / qm for qm, d in zip(qs, ds) if qm > 0.0]
        est = _estimate(
            lambda k: max(sign * math.log1p(x / 2.0**k) for x in xs) * 4.0**k, qs, ds, 0.0
        )
        target = math.inf if chi2 > 0.0 else 0.0
        return LocalLimitEstimate(est.lambdas, est.ratios, target, target, math.inf)
    # ln(1 + (alpha-1) H)/(alpha-1) of the Hellinger sum along the path
    b = _FAMILIES["hellinger"].term(alpha)
    return _estimate(
        lambda k: _renyi_ratio(alpha, _path_ratio(b, ds, qs, k, first), k),
        qs, ds, 0.5 * alpha * chi2,
    )


def ratio_limit_pair(
    f: GeneratorFunction,
    g: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
) -> float:
    """D_f/D_g along the mixture path at lam* (``LocalLimitEstimate``), which
    reads f''(1)/g''(1) whenever both second derivatives exist and
    g''(1) > 0.  Where the residual is inf -- a ratio that is not finite, or
    a pair whose lam* passes the cap -- DomainError."""
    if g.second_at_one is None or not g.second_at_one > 0.0:
        raise DomainError("denominator generator needs g''(1) > 0")
    if f.second_at_one is None or not math.isfinite(f.second_at_one):
        raise CapabilityError(f"generator {f.family} lacks a finite f''(1)")
    qs, ds, _ = _supported_masses(p, q)

    def ratio_at(k: int) -> float:
        num, den = (_path_ratio(h._breg, ds, qs, k, True) for h in (f, g))
        if den == 0.0:
            raise DomainError("distributions must differ for the ratio limit")
        return num / den

    noise = 0.0 if f._breg.reads.start or g._breg.reads.start else None  # k's lead only
    est = _estimate(ratio_at, qs, ds, f.second_at_one / g.second_at_one, noise)
    if est.residual == math.inf:
        raise DomainError("the ratio of the mixture-path sums is not resolved in the float range")
    return est.extrapolated
