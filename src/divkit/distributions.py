"""Finite discrete probability distributions and the relative information spectrum.

Conventions used throughout the package:

* natural logarithms everywhere -- every information quantity is in nats;
* the relative information at an atom is ``ln p - ln q`` so that swapping
  the pair negates it exactly in floating point;
* atoms whose log-ratios compare bit-equal are merged into one spectrum
  breakpoint; no epsilon merging is applied beyond that;
* ``_masses(p, q)`` is the one gate of every function of a pair (P, Q):
  it returns their masses, and refuses with ValidationError anything but
  two DiscreteDistribution records on one alphabet;
* each record's memo (``_pair_slot``) keeps its last partner, weakly, and
  the pair's spectrum, atoms, sums and differences p - q by orientation; a
  pair is on P's memo or, reversed, on Q's, and dies with that record.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from itertools import compress, repeat
from operator import itemgetter, sub, truediv
from typing import Any, NamedTuple, Sequence
from weakref import ref

from .errors import (
    _CACHE_SIZE, DomainError, UndefinedAtomError, ValidationError, _real, refuse_change
)

__all__ = [
    "DiscreteDistribution",
    "SpectrumFunction",
    "make_distribution",
    "relative_information",
    "spectrum",
    "spectrum_eval",
    "g_big",
    "mixture",
]

_NORMALIZATION_TOL = 1e-12
# Prefix length past which spectrum() carries the prefix as its exact
# expansion; below it the prefix is summed as it stands.
_EXPANSION_AT = 16


class DiscreteDistribution:
    """Probability mass function over an indexed finite alphabet.

    Masses are non-negative, sum to one (within normalization tolerance)
    and at least one is strictly positive.  Instances are immutable
    (assigning or deleting an attribute raises AttributeError) and compare
    and hash by their masses; all operations on them are pure functions.
    """

    __slots__ = ("masses", "_memo", "__weakref__")
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, masses: tuple[float, ...]) -> None:
        if not masses:
            raise ValidationError("distribution needs at least one atom")
        for m in masses:
            if not math.isfinite(m) or m < 0.0:
                raise ValidationError(f"invalid mass {m!r}")
        total = math.fsum(masses)
        if total <= 0.0:
            raise ValidationError("at least one mass must be strictly positive")
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValidationError(
                f"masses sum to {total!r}, outside normalization tolerance"
            )
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_memo", None)

    def __len__(self) -> int:
        return len(self.masses)

    def __getitem__(self, i: int) -> float:
        return self.masses[i]

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.masses == other.masses

    def __hash__(self) -> int:
        return hash(self.masses)

    def __repr__(self) -> str:
        return f"DiscreteDistribution(masses={self.masses!r})"

    def __reduce__(self):
        return type(self), (self.masses,)


class SpectrumFunction(NamedTuple):
    """The relative information spectrum as an exact right-continuous step
    function.

    ``breakpoints`` are the distinct finite values of ``ln(p/q)`` over atoms
    carrying mass under both measures, sorted increasingly; ``cum_masses[j]``
    is the value of the CDF on ``[breakpoints[j], breakpoints[j+1])``.
    ``singular_mass_p`` is the P-mass where q vanishes (pushed to +inf in
    log-ratio), ``singular_mass_q`` the Q-mass where p vanishes.  A tuple of
    these four fields: it iterates, compares and hashes as one.
    """

    breakpoints: tuple[float, ...]
    cum_masses: tuple[float, ...]
    singular_mass_p: float
    singular_mass_q: float


def make_distribution(weights: Sequence[float]) -> DiscreteDistribution:
    """Normalize non-negative weights into a DiscreteDistribution.

    Any iterable of real numbers is read in order, and atom order is
    preserved.  Raises ValidationError on negative, non-finite, non-numeric
    or all-zero weights (text, which ``float`` would parse, included), and
    on a non-iterable, a string, bytes, a bytearray or memoryview (whose
    items are byte values), a mapping, or a set or frozenset (which has no
    atom order).  Weights whose sum overflows are divided by the largest
    one before normalizing.

    One check gates the weights: the smallest is >= 0 and their ``fsum``
    is finite (a NaN or an inf makes it NaN, inf or raise).  Only where it
    fails are the weights walked in order, so the first bad weight names
    the error, or, when none is bad, the sum overflowed.  That ``fsum`` is
    taken over the weights as given, which refuses text and sums each
    number as ``float`` converts it.
    """
    if type(weights) not in (list, tuple):
        if isinstance(weights, (str, bytes, bytearray, memoryview, Mapping, set, frozenset)):
            raise ValidationError("weights must be a sequence of real numbers")
        try:
            weights = list(weights)  # an iterator is read twice below
        except TypeError:
            raise ValidationError("weights must be a sequence of real numbers") from None
    try:
        ws = list(map(float, weights))
    except OverflowError:  # an integer past the float range
        raise ValidationError("a weight passes the float range") from None
    except (TypeError, ValueError):  # an entry not a number
        raise ValidationError("weights must be a sequence of real numbers") from None
    if not ws:
        raise ValidationError("empty weight sequence")
    try:
        total = math.fsum(weights)
    except TypeError:  # text, which float() parsed
        raise ValidationError("weights must be a sequence of real numbers") from None
    except (OverflowError, ValueError):  # the sum overflows, or inf - inf
        total = math.nan
    if not (min(ws) >= 0.0 and math.isfinite(total)):
        for w in ws:
            if not math.isfinite(w):
                raise ValidationError(f"non-finite weight {w!r}")
            if w < 0.0:
                raise ValidationError(f"negative weight {w!r}")
        # no weight is bad, so the sum overflowed: scale by the largest first
        ws = list(map(truediv, ws, repeat(max(ws))))
        total = math.fsum(ws)
    if total <= 0.0:
        raise ValidationError("weights sum to zero")
    # each w / total lies in [0, 1], the largest is >= 1/n and their fsum is
    # within ~1e-16 of 1, so the record's own checks would pass: build it
    # without a second pass over the masses
    dist = object.__new__(DiscreteDistribution)
    object.__setattr__(dist, "masses", tuple(map(truediv, ws, repeat(total))))
    object.__setattr__(dist, "_memo", None)
    return dist


def _masses(p: DiscreteDistribution, q: DiscreteDistribution):
    """(P's masses, Q's masses): the one gate of every pair function,
    which refuses anything but two DiscreteDistribution records (the exact
    type) on one alphabet with ValidationError."""
    if type(p) is not DiscreteDistribution or type(q) is not DiscreteDistribution:
        raise ValidationError(
            "P and Q must be DiscreteDistribution records, "
            f"got {type(p).__name__} and {type(q).__name__}"
        )
    if len(p.masses) != len(q.masses):
        raise ValidationError(
            "distributions live on different alphabets "
            f"({len(p.masses)} vs {len(q.masses)} atoms)"
        )
    return p.masses, q.masses


def relative_information(
    p: DiscreteDistribution, q: DiscreteDistribution, atom: int
) -> float:
    """Log-likelihood ratio ln(p/q) at one atom, in nats.

    Returns +inf when q vanishes under positive p, -inf in the mirrored
    case.  Computed as ``ln p - ln q`` so the swap antisymmetry holds
    exactly.  An atom with p == q == 0 carries no information and raises
    UndefinedAtomError; an atom that is not an int in ``range(n)`` raises
    ValidationError.
    """
    ps, qs = _masses(p, q)
    if type(atom) is bool or not isinstance(atom, int) or not 0 <= atom < len(ps):
        raise ValidationError(f"atom {atom!r} is not an index in range({len(ps)})")
    pm, qm = ps[atom], qs[atom]
    if pm == 0.0 and qm == 0.0:
        raise UndefinedAtomError(f"atom {atom} has zero mass under both measures")
    if pm == 0.0:
        return -math.inf
    if qm == 0.0:
        return math.inf
    return math.log(pm) - math.log(qm)


def _exact_expansion(xs: list[float], total: float) -> list[float]:
    """A few floats whose exact sum is the exact sum of xs.

    ``total`` is ``fsum(xs)``; each further element is the correctly rounded
    residual of xs minus the elements so far, until a residual is zero.
    """
    out: list[float] = []
    while total != 0.0:
        out.append(total)
        total = math.fsum(xs + [-v for v in out])
    return out


def _pair_slot(p: DiscreteDistribution, q: DiscreteDistribution):
    """(P's masses, Q's masses, entries, swapped if kept for (Q, P)), from
    P's memo if its partner is Q, else from Q's; else the pair is gated and
    replaces P's memo: a weak reference to Q and what each order returns."""
    try:
        memo = p._memo
        if memo is not None and memo[0]() is q:
            return memo[1]
        memo = q._memo
        if memo is not None and memo[0]() is p:
            return memo[2]
    except AttributeError:  # not a record: the gate refuses it
        pass
    ps, qs = _masses(p, q)
    fwd = ps, qs, {}, False
    object.__setattr__(p, "_memo", (ref(q), fwd, (qs, ps, fwd[2], True)))
    return fwd


def _kept(entries: dict, key: tuple, value: Any) -> Any:
    """value, kept under key in a pair's entries (``_pair_slot``), which are
    cleared at _CACHE_SIZE; a value, so an exception is never kept."""
    if len(entries) >= _CACHE_SIZE:
        entries.clear()
    entries[key] = value
    return value


def spectrum(p: DiscreteDistribution, q: DiscreteDistribution) -> SpectrumFunction:
    """The relative information spectrum of (P, Q), built once per pair and
    orientation from its ``_atoms`` and kept; ``spectrum_from_egamma`` and
    ``spectrum_from_degroot`` read the atoms and never the spectrum."""
    return _spectrum(_pair_slot(p, q))


def _spectrum(pair: tuple) -> SpectrumFunction:
    """The spectrum of ``pair`` (``_pair_slot``), kept in its entries."""
    entries, key = pair[2], ("spectrum", pair[3])
    spec = entries.get(key)
    return _kept(entries, key, _build_spectrum(_atoms(pair))) if spec is None else spec


def _atoms(pair: tuple) -> tuple:
    """(P-masses, log-ratios ln p - ln q) of the atoms both measures charge,
    the Q-mass where p = 0 and the P-mass where q = 0, kept per
    orientation in ``pair``'s entries."""
    ps, qs, entries, swapped = pair
    atoms = entries.get(("atoms", swapped))
    if atoms is None:
        singular = 0.0, 0.0
        try:
            xs = list(map(sub, map(math.log, ps), map(math.log, qs)))
        except ValueError:  # a mass is 0: keep the atoms both measures charge
            singular = (
                math.fsum([qm for pm, qm in zip(ps, qs) if pm == 0.0 < qm]),
                math.fsum([pm for pm, qm in zip(ps, qs) if qm == 0.0 != pm]),
            )
            both = [pm > 0.0 < qm for pm, qm in zip(ps, qs)]
            ps, qs = list(compress(ps, both)), list(compress(qs, both))
            xs = list(map(sub, map(math.log, ps), map(math.log, qs)))
        atoms = _kept(entries, ("atoms", swapped), (ps, xs, *singular))
    return atoms


def _build_spectrum(atoms: tuple) -> SpectrumFunction:
    """Build the relative information spectrum from a pair's ``_atoms``.

    Each charged atom contributes a breakpoint at its log-ratio, ties
    merged by summing P-mass; the singular masses are the two kept ones,
    and p == q == 0 atoms were dropped with them.  One sort of the
    (log-ratio, mass) pairs on the log-ratio alone puts each tie group in
    one run, in atom order.

    ``cum_masses[j]`` is ``fsum`` of the P-masses of every atom up to
    breakpoint j, correctly rounded, in O(n log n) time (the sort).  The
    running prefix is carried exactly: at the end of a tie group that
    leaves it with more than ``_EXPANSION_AT`` addends it is replaced by its
    exact expansion, a few floats with the same exact sum.  Since ``fsum``
    rounds the exact sum of its addends, every prefix sum is bit-identical
    to ``fsum`` over the whole prefix, while no ``fsum`` call sees more than
    a few dozen addends beyond the current tie group.
    """
    pms, xs, q_where_p0, p_where_q0 = atoms
    breakpoints: list[float] = []
    cums: list[float] = []
    seen: list[float] = []
    last = math.nan  # equal to no log-ratio, so the first atom opens a group
    for x, pm in sorted(zip(xs, pms), key=itemgetter(0)):
        if x != last:
            if breakpoints:
                cums.append(math.fsum(seen))
                if len(seen) > _EXPANSION_AT:
                    seen = _exact_expansion(seen, cums[-1])
            breakpoints.append(x)
            last = x
        seen.append(pm)
    if breakpoints:
        cums.append(math.fsum(seen))
    return SpectrumFunction(
        breakpoints=tuple(breakpoints),
        cum_masses=tuple(cums),
        singular_mass_p=p_where_q0,
        singular_mass_q=q_where_p0,
    )


def spectrum_eval(f: SpectrumFunction, x: float) -> float:
    """Right-continuous evaluation of the spectrum CDF at x."""
    if math.isnan(_real(x, "x")):
        raise DomainError("x must not be NaN")
    j = bisect_right(f.breakpoints, x)
    return f.cum_masses[j - 1] if j else 0.0


def g_big(p: DiscreteDistribution, q: DiscreteDistribution, beta: float) -> float:
    """Tail function of the likelihood ratio under P.

    For beta >= 1 this is P[dP/dQ > beta] = 1 - F(ln beta); for beta in
    (0,1) it is F(ln beta).  Identically zero when P == Q.
    """
    if not (_real(beta, "beta") > 0.0) or math.isinf(beta):
        raise DomainError("beta must be a finite positive real")
    cdf = spectrum_eval(spectrum(p, q), math.log(beta))
    return 1.0 - cdf if beta >= 1.0 else cdf


def mixture(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> DiscreteDistribution:
    """Atomwise convex combination lam*P + (1-lam)*Q."""
    ps, qs = _masses(p, q)
    if not 0.0 <= _real(lam, "lam") <= 1.0:
        raise DomainError(f"mixture weight {lam!r} outside [0, 1]")
    return DiscreteDistribution(tuple(lam * pm + (1.0 - lam) * qm for pm, qm in zip(ps, qs)))
