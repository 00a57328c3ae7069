"""Direct computation of f-divergences on finite alphabets.

Every catalog divergence is one sum of its family's shifted term
q (f(p/q) - c (p/q - 1)) (``terms.Breg``) over every atom, each term
non-negative and written without cancellation; the singular parts are
terms of that sum, q (f(0) + c) where p = 0 and p (f*(0) - c) where
q = 0, with the 0 * inf = 0 convention.  The paper's
invariance D_f = D_{f + c(t-1)} makes this the divergence; on stored masses
it differs from sum q f(p/q) by c (sum P - sum Q), which the normalization
tolerance holds to 1e-12 |c|.  The Hellinger-based kinds (squared
Hellinger, Bhattacharyya, alpha, Renyi) are maps of the Hellinger sum.
One resolver (``_kind_sum``) turns a kind into its sum, for the direct
sums here and for the spectral ones of ``spectrum_repr.represent_named``.
The pair memo of ``divkit.distributions`` keeps each sum over a pair's
masses by its shifted term and, once a term reads them, the differences
p - q, so each is taken once per pair and orientation; quadrature nodes
and mixture paths sum past it.

Infinities are first-class values here, never exceptions.
"""

from __future__ import annotations

import math
from functools import partial
from operator import sub
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from .distributions import DiscreteDistribution, _kept, _pair_slot
from .errors import _CACHE_SIZE, DomainError
from .generators import _FAMILIES, KINDS, GeneratorFunction, kind_args
from .terms import Breg, _alpha_breg, _edge_term, _shared, prior_scale

__all__ = [
    "DivergenceValue",
    "f_divergence",
    "divergence",
    "renyi",
    "degroot_from_egamma",
]


class DivergenceValue(NamedTuple):
    """A named divergence result: non-negative, possibly +inf, in nats
    where the quantity is information-like.  An immutable record."""

    value: float
    kind: str
    params: Mapping[str, float] = MappingProxyType({})

    def __float__(self) -> float:
        return self.value


def _shifted_sum(
    b: Breg,
    ps: Sequence[float],
    qs: Sequence[float],
    ds: Optional[Sequence[float]] = None,
) -> float:
    """sum term(d, q, p), or the slice ``b.reads`` of it, over every atom,
    the singular parts q at_zero where p = 0 and p at_inf where q = 0
    among its terms; P's masses ``ps``, Q's ``qs``, and ``ds`` their
    differences where a caller keeps them (``_pair_sum``) or where p - q
    would round them away (a mixture path's).

    One pass maps every atom through the term, which gives the singular
    parts at p = 0 and q = 0, or raises.  Only where it raises or the sum
    is not finite -- a singular part the term cannot take, or a ratio past
    the float range -- is every atom taken again through ``_edge_term``,
    into one fsum.
    """
    diffs = map(sub, ps, qs) if ds is None else ds
    try:
        total = math.fsum(map(b.term, *(diffs, qs, ps)[b.reads]))
    except (ZeroDivisionError, OverflowError, ValueError):
        total = math.nan
    if math.isfinite(total):
        return total
    try:
        return math.fsum(
            map(partial(_edge_term, b), map(sub, ps, qs) if ds is None else ds, qs, ps)
        )
    except OverflowError:  # finite terms whose sum passes the float range
        return math.inf


def f_divergence(
    f: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution
) -> DivergenceValue:
    """D_f(P||Q) from the definition, singular parts included.

    The sum runs over f's shifted term f(u) - c (u - 1) (``f._breg``), so
    the result differs from sum q f(p/q) by c (sum P - sum Q), at most
    1e-12 |c| on normalized masses; for the catalog families every term is
    non-negative.  A ratio p/q past the float range takes its term from
    ln p - ln q; see ``_shifted_sum``.
    """
    value = _pair_sum(f._breg, _pair_slot(p, q))
    return tuple.__new__(DivergenceValue, (value, f.family, dict(f.params)))


def _pair_sum(b: Breg, pair: tuple) -> float:
    """b's shifted sum over ``pair`` (``_pair_slot``), kept with b, which
    keeps b's id, the key, from being reused.  A term that reads
    d = p - q takes the pair's one kept list of them, made by the first.
    A sum is kept in place, the entries cleared at _CACHE_SIZE as
    ``distributions._kept`` clears them."""
    ps, qs, entries, swapped = pair
    key = id(b), swapped
    hit = entries.get(key)
    if hit is not None:
        return hit[0]
    ds = entries.get(("diffs", swapped))
    if ds is None and b.reads.start is None:
        ds = _kept(entries, ("diffs", swapped), list(map(sub, ps, qs)))
    total = _shifted_sum(b, ps, qs, ds)
    if len(entries) >= _CACHE_SIZE:
        entries.clear()
    entries[key] = total, b
    return total


def _log_sum_exp(ws: list[float], s: float) -> float:
    """ln(sum e^(s w)) / s over ``ws``, -inf / s for none, taken around the
    largest s w, so that s w may pass the float range where the result
    does not."""
    if not ws:
        return -math.inf / s
    top = max(ws) if s > 0.0 else min(ws)
    return top + math.log(math.fsum(math.exp(s * (w - top)) for w in ws)) / s


def _renyi_terms(pair: tuple, alpha: float) -> float:
    """ln(sum q (p/q)^alpha) / (alpha - 1) by log-sum-exp from the masses of
    ``pair`` (``_pair_slot``), each term's logarithm over alpha - 1 taken as
    c ln p - ln q, c = alpha / (alpha - 1): +inf when alpha > 1 and P has
    mass where Q vanishes, and when alpha < 1 and the supports are disjoint."""
    c = alpha / (alpha - 1.0)
    ws = []
    for pm, qm in zip(pair[0], pair[1]):
        if qm == 0.0:
            if pm > 0.0 and alpha > 1.0:
                return math.inf
        elif pm > 0.0:
            ws.append(c * math.log(pm) - math.log(qm))
    return _log_sum_exp(ws, alpha - 1.0)


_hellinger_term = _FAMILIES["hellinger"].term


def _renyi_map(hellinger: Callable[[Breg, Any], float], pair: Any, alpha: float) -> float:
    """Renyi of order alpha from the Hellinger divergence
    H = ``hellinger(<Hellinger term of order alpha>, pair)``:
    ln(1 + (alpha - 1) H) / (alpha - 1), KL at order 1."""
    if alpha <= 0.0:
        raise DomainError("Renyi order must be positive")
    h = hellinger(_hellinger_term(alpha), pair)
    if alpha == 1.0:
        return h
    arg = (alpha - 1.0) * h
    if -0.5 < arg < math.inf:
        return math.log1p(arg) / (alpha - 1.0)
    # S = 1 + (alpha - 1) H is below 1/2 (alpha < 1), where ln S is better
    # taken from its terms than from the shift, and 0 exactly on disjoint
    # supports; or S passed the float range (alpha > 1)
    return _renyi_terms(pair, alpha)


def _alpha_map(h: Callable[[Breg, Any], float], pair: Any, alpha: float) -> float:
    """H_alpha / alpha; below order 1/2 the division sits inside the term
    (``terms._alpha_breg``), since H_alpha underflows at a subnormal
    order, where H_alpha / alpha tends to KL(Q||P)."""
    if alpha < 0.5:
        return h(_alpha_breg(alpha), pair)
    return h(_hellinger_term(alpha), pair) / alpha


# The kinds that are maps of a Hellinger sum; every other kind, the
# Hellinger divergence itself included, is the sum of its family's shifted
# term.  A map is called as map(h, pair, *param), where h(b, pair) sums the
# shifted term b over a ``_pair_slot`` (the Hellinger divergence, for a
# Hellinger term): divergence() passes the direct sum over the pair's
# masses, spectrum_repr.represent_named() the spectral one.  Renyi's
# log-sum-exp is always ``_renyi_terms`` over the pair's masses.
_HELLINGER_MAPS: dict[str, Callable[..., float]] = {
    "sq_hellinger": lambda h, pair: 0.5 * h(_hellinger_term(0.5), pair),
    # -ln sum sqrt(p q), half the Renyi divergence of order 1/2
    "bhattacharyya": lambda h, pair: 0.5 * _renyi_map(h, pair, 0.5),
    "alpha": _alpha_map,
    "renyi": _renyi_map,
}


def divergence(
    kind: str, p: DiscreteDistribution, q: DiscreteDistribution, **params: float
) -> DivergenceValue:
    """Dispatch a named divergence.

    Kinds: kl, jeffreys, hellinger(alpha), chi2, sq_hellinger,
    bhattacharyya, alpha(alpha), chi_s(s), tv, triangular, lin(theta), js,
    e_gamma(gamma), degroot(omega), renyi(alpha).  A kind with a generator
    family is the sum of that family's shifted term, the same sum
    ``f_divergence`` takes, resolved once per (kind, parameters) without
    building the generator; it differs from sum q f(p/q) by
    f'(1) (sum P - sum Q), which the 1e-12 normalization tolerance bounds.
    """
    try:
        total = _kind_sum(kind, _pair_sum, **params)
    except TypeError:  # an unhashable kind or parameter, which kind_args refuses
        kind_args(kind, params)
        raise
    # the record's fields as one tuple, past its Python-level constructor
    return tuple.__new__(DivergenceValue, (total(_pair_slot(p, q)), kind, params))


@_shared
def _kind_sum(
    kind: str, h: Callable[[Breg, tuple], float], /, **params: float
) -> Callable[[tuple], float]:
    """The sum of ``kind`` at ``params`` over a ``_pair_slot``, resolved
    once per (kind, h, parameters): h(b, pair) over its family's shifted
    term b, or its map of the Hellinger sum h.  ``divergence()`` passes the
    direct sum ``_pair_sum``, ``spectrum_repr.represent_named()`` the
    spectral one.  An unknown kind or a missing parameter raises here, and
    an exception is never kept."""
    args = kind_args(kind, params)
    mapped = _HELLINGER_MAPS.get(kind)
    if mapped is None:
        return partial(h, _FAMILIES[KINDS[kind][0]].term(*args))
    return lambda pair: mapped(h, pair, *args)


def renyi(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> DivergenceValue:
    """Renyi divergence of positive order, in nats.

    Order 1 is relative entropy by analytic extension; any other order is
    the one-to-one transform log(1 + (a-1) H_a) / (a-1) of the Hellinger
    divergence of the same order.
    """
    return divergence("renyi", p, q, alpha=alpha)


def degroot_from_egamma(
    omega: float, p: DiscreteDistribution, q: DiscreteDistribution
) -> DivergenceValue:
    """DeGroot statistical information through its E_gamma scaling:
    m E_{big/m}(P||Q), (P, Q) swapped for omega > 1/2, with (m, big, swap)
    from ``terms.prior_scale``.  Matches the direct DeGroot computation.
    """
    m, big, swap = prior_scale(omega)
    pair = _pair_slot(q, p) if swap else _pair_slot(p, q)
    val = m * _pair_sum(_FAMILIES["e_gamma"].term(big / m), pair)
    return DivergenceValue(val, "degroot_from_egamma", {"omega": omega})
