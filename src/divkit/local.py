"""Local behavior of f-divergences along mixture paths.

As the mixture weight of P in lam*P + (1-lam)*Q goes to zero, every
divergence with a finite f''(1) scales like (1/2) f''(1) chi^2(P||Q) lam^2.
This module holds the chi^2 / chi^s mixture identities, the
three-measure chi^2 expansion, and Richardson-extrapolated estimates of
the lam -> 0 limits used to verify the scaling numerically.  The
identities and the estimates sum each family's shifted term at
d = lam (p - q)/q, so rounding the mixture's masses never swamps the
lam^s they are divided by.
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

# the shifted terms keep D(lam) accurate to rounding at every lam, so the
# grid starts where the O(lam^2) truncation of one Richardson level is
# already below 1e-6 of the limit for mass ratios up to ~100
_LAMBDA_GRID = (1e-2, 1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class LocalLimitEstimate:
    """Richardson-extrapolated lam -> 0 limit of D(mixture)/lam^2.

    ``residual`` is the change between the last two extrapolants -- an
    honest stability estimate, reported rather than hidden -- and inf where
    a ratio or an extrapolant leaves the float range; ``extrapolated`` is
    then the last finite extrapolant, or inf where none is.  ``target`` is
    the predicted limit (1/2) f''(1) chi^2(P||Q).
    """

    lambdas: tuple[float, ...]
    ratios: tuple[float, ...]
    extrapolated: float
    target: float
    residual: float


def _supported_masses(p: DiscreteDistribution, q: DiscreteDistribution):
    """The pair's masses and their differences p - q, refused unless P << Q."""
    ps, qs = _masses(p, q)
    for i, (pm, qm) in enumerate(zip(ps, qs)):
        if pm > 0.0 and qm == 0.0:
            raise DomainError(f"atom {i} has P-mass where Q vanishes")
    return ps, qs, list(map(sub, ps, qs))


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
    ps, qs = _path_masses(p, q, lam)
    return _mixture_divergence(_FAMILIES["chi_squared"].term(), list(map(sub, ps, qs)), qs, lam, True)


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


def _richardson(ratios) -> tuple[float, float]:
    # assumes an expansion ratio(lam) = L + a lam + O(lam^2) on a grid
    # shrinking by 10x; one elimination level per adjacent pair
    extraps = [
        (10.0 * r1 - r0) / 9.0 for r0, r1 in zip(ratios, ratios[1:])
    ]
    finite = [e for e in extraps if math.isfinite(e)]
    if len(finite) < len(extraps) or not all(map(math.isfinite, ratios)):
        return (finite[-1] if finite else math.inf), math.inf
    residual = abs(extraps[-1] - extraps[-2]) if len(extraps) > 1 else math.inf
    return extraps[-1], residual


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
    if direction not in ("mixture_first", "mixture_second"):
        raise DomainError(f"unknown direction {direction!r}")
    if f.second_at_one is None or not math.isfinite(f.second_at_one):
        raise CapabilityError(f"generator {f.family} lacks a finite f''(1)")
    _, qs, ds = _supported_masses(p, q)
    first = direction == "mixture_first"
    ratios = [
        _mixture_divergence(f._breg, ds, qs, lam, first) / (lam * lam)
        for lam in _LAMBDA_GRID
    ]
    # 0 where f''(1) is, also where chi^2 passes the float range (0 inf)
    target = 0.5 * f.second_at_one * float(divergence("chi2", p, q)) if f.second_at_one else 0.0
    extrapolated, residual = _richardson(ratios)
    return LocalLimitEstimate(
        lambdas=_LAMBDA_GRID,
        ratios=tuple(ratios),
        extrapolated=extrapolated,
        target=target,
        residual=residual,
    )


def renyi_local_estimate(
    alpha: float,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    direction: str = "mixture_first",
) -> LocalLimitEstimate:
    """Same mixture-path limit for the Renyi divergence of order alpha;
    the target is (1/2) alpha chi^2(P||Q) in nats.

    Order 0 vanishes identically along mixture paths (the mixture keeps
    Q's support); order infinity diverges and is reported as such.
    """
    if _real(alpha, "alpha") < 0.0:
        raise DomainError("Renyi order must be non-negative")
    ps, qs, ds = _supported_masses(p, q)
    chi2 = float(divergence("chi2", p, q))
    if alpha == 0.0:
        zeros = tuple(0.0 for _ in _LAMBDA_GRID)
        return LocalLimitEstimate(_LAMBDA_GRID, zeros, 0.0, 0.0, 0.0)
    if math.isinf(alpha):
        ratios = [
            max(math.log1p(lam * (pm - qm) / qm) for pm, qm in zip(ps, qs) if qm > 0.0)
            / (lam * lam)
            for lam in _LAMBDA_GRID
        ]
        target = math.inf if chi2 > 0.0 else 0.0
        return LocalLimitEstimate(_LAMBDA_GRID, tuple(ratios), target, target, math.inf)
    # ln(1 + (alpha-1) H)/(alpha-1) of the Hellinger sum along the path
    first = direction == "mixture_first"
    b = _FAMILIES["hellinger"].term(alpha)
    ratios = []
    for lam in _LAMBDA_GRID:
        h_sum = _mixture_divergence(b, ds, qs, lam, first)
        if alpha != 1.0:
            h_sum = math.log1p((alpha - 1.0) * h_sum) / (alpha - 1.0)
        ratios.append(h_sum / (lam * lam))
    extrapolated, residual = _richardson(ratios)
    return LocalLimitEstimate(
        lambdas=_LAMBDA_GRID,
        ratios=tuple(ratios),
        extrapolated=extrapolated,
        target=0.5 * alpha * chi2,
        residual=residual,
    )


def ratio_limit_pair(
    f: GeneratorFunction,
    g: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
) -> float:
    """Extrapolated limit of D_f/D_g along the mixture path; converges to
    f''(1)/g''(1) whenever both second derivatives exist and g''(1) > 0.
    Where a ratio or an extrapolant on the grid is not finite, DomainError."""
    if g.second_at_one is None or not g.second_at_one > 0.0:
        raise DomainError("denominator generator needs g''(1) > 0")
    if f.second_at_one is None or not math.isfinite(f.second_at_one):
        raise CapabilityError(f"generator {f.family} lacks a finite f''(1)")
    _, qs, ds = _supported_masses(p, q)
    ratios = []
    for lam in _LAMBDA_GRID[1:]:
        num = _mixture_divergence(f._breg, ds, qs, lam, True)
        den = _mixture_divergence(g._breg, ds, qs, lam, True)
        if den == 0.0:
            raise DomainError("distributions must differ for the ratio limit")
        ratios.append(num / den)
    extrapolated, residual = _richardson(ratios)
    if residual == math.inf:
        raise DomainError("the ratio of the mixture-path sums leaves the float range")
    return extrapolated
