"""Generator functions of f-divergences.

A generator is a convex function f on (0, inf) with f(1) = 0.  Each family
carries f, its analytic second derivative where it has one (the
DeGroot-weight engine reads f''), its limits and one-sided derivatives at
1, and its shifted term f(1+d) - c d (``terms.Breg``), from the module
``divkit.terms`` that the direct sums in ``divkit.divergences`` read too;
the g transform of the spectral engines (``g_eval``) is read from it, so no
engine needs f', and every convex f, kinked or not, goes through every
engine but the DeGroot-weight one.  One table (``_FAMILIES``) gives each
family's kind, parameter name, term and generator.  Catalog generators are
immutable, so each is built once per (family, parameter) and shared, in
bounded caches.

Everything here is in nats: the catalog's logarithms are natural.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .errors import (
    CapabilityError,
    DomainError,
    UnknownKindError,
    ValidationError,
    _real,
    parse_number,
    refuse_change,
)
from .terms import (
    _CHI2, _JEFFREYS, _JS, _KL, _TRIANGULAR, _TV, Breg, _chi_s_breg, _degroot_breg,
    _e_gamma_breg, _edge_term, _exp_times, _g_edge, _hellinger_breg, _lin_breg, _shared,
)

__all__ = [
    "GeneratorFunction",
    "KINDS",
    "generator",
    "kind_args",
    "parse_kind",
    "parse_generator",
    "conjugate",
    "affine_shift",
    "g_eval",
]


class GeneratorFunction:
    """A member of the convex class with f(1) = 0, plus family metadata.

    ``f_at_zero`` is lim_{t->0} f(t) and ``fstar_at_zero`` is
    lim_{u->inf} f(u)/u; both live in (-inf, +inf].  ``right_deriv_at_one``
    always exists and is finite; ``left_deriv_at_one`` differs from it only
    at a kink sitting exactly at 1, and is taken equal to it unless given.
    ``second_at_one`` is f''(1) when defined.  The keywords ``eval`` and
    ``second`` give f and f''
    (kept as ``_eval`` and ``_second``), and ``breg`` the family's shifted
    term (``_breg``, see ``terms.Breg``), which the direct sums and the
    mixture-path sums read; a generator built without one, such as a custom
    generator, gets q f(p/q) - c d with c = ``right_deriv_at_one``, from p/q
    in the masses so that it is never rounded through d.  Where the closed
    form overflows or reads NaN (inf - inf), ``eval`` takes f from the
    shifted term at (t - 1, 1, t) plus c (t - 1), which takes a ratio past
    the float range from its logarithm (``terms._edge_term``); c is the
    term's subgradient at 1: ``right_deriv_at_one``, or at a kink at 1 the
    one its limit at 0 implies.  Calling a generator is ``eval``.  The
    catalog's families, ``custom``, ``conjugate`` and ``affine_shift`` are
    all built by this one constructor.

    An immutable record: assigning or deleting an attribute raises
    AttributeError, and a generator equals only itself.
    """

    __slots__ = (
        "family", "params", "f_at_zero", "fstar_at_zero", "right_deriv_at_one",
        "left_deriv_at_one", "second_at_one", "_eval", "_second", "_breg",
    )
    __setattr__ = __delattr__ = refuse_change

    def __init__(
        self,
        family: str,
        *,
        params: tuple[tuple[str, float], ...] = (),
        breg: Optional[Breg] = None,
        eval: Callable[[float], float],
        second: Optional[Callable[[float], float]] = None,
        f_at_zero: float,
        fstar_at_zero: float,
        right_deriv_at_one: float,
        left_deriv_at_one: Optional[float] = None,
        second_at_one: Optional[float] = None,
    ) -> None:
        if not abs(eval(1.0)) <= 1e-12:  # a NaN f(1) fails too
            raise ValidationError(f"generator {family} violates f(1)=0")
        if left_deriv_at_one is None:
            left_deriv_at_one = right_deriv_at_one
        c = right_deriv_at_one
        if breg is None:
            breg = Breg(
                lambda d, q, p: q * eval(p / q) - c * d, f_at_zero + c, fstar_at_zero - c
            )
        values = (
            family, params, f_at_zero, fstar_at_zero, right_deriv_at_one, left_deriv_at_one,
            second_at_one, eval, second, breg,
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"GeneratorFunction({self.family!r}, params={self.params!r})"

    def __copy__(self) -> GeneratorFunction:
        return self  # immutable, as a tuple is

    def __deepcopy__(self, memo: dict) -> GeneratorFunction:
        return self

    def eval(self, t: float) -> float:
        """f(t) for t > 0 (f_at_zero is used for the t = 0 limit), from the
        shifted term where the closed form is not finite: it overflowed,
        maybe in a factor of a finite value, or read inf - inf."""
        if not _real(t, "t") >= 0.0:
            raise DomainError("generator argument must be non-negative")
        if t == 0.0:
            return self.f_at_zero
        try:
            value = self._eval(t)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if math.isfinite(value):
            return value
        b, c = self._breg, self.right_deriv_at_one
        if self.left_deriv_at_one != c:
            c = b.at_zero - self.f_at_zero
        edge = _edge_term(b, t - 1.0, 1.0, t) + c * (t - 1.0)
        if edge == edge:  # NaN where c (t - 1) cancels an infinite term
            return edge
        if value == value:
            return value
        raise DomainError(f"generator {self.family}: f({t!r}) leaves the float range")

    __call__ = eval

    def second(self, t: float) -> float:
        """f''(t) where the family supplies it."""
        if not (t if type(t) is float else _real(t, "t")) > 0.0:  # NaN too
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
        try:
            value = self._second(t)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if value == value:
            return value
        raise DomainError(f"generator {self.family}: f''({t!r}) leaves the float range")


def _scaled_power(a: float, x: float, y: float) -> float:
    """a x^y, also where x^y alone passes the float range: inf where a x^y
    does, and NaN there for a = 0."""
    try:
        return a * x**y
    except OverflowError:
        return _exp_times(a, y * math.log(x)) if a > 0.0 else math.nan


# generators ------------------------------------------------------------------
# A family with a parameter is built from its value and its ``params``
# record, ((name, value),), which ``generator()`` makes from the table.


def _kl() -> GeneratorFunction:
    return GeneratorFunction(
        "kl", breg=_KL, f_at_zero=0.0, fstar_at_zero=math.inf,
        right_deriv_at_one=1.0, second_at_one=1.0,
        eval=lambda t: t * math.log(t),
        second=lambda t: 1.0 / t,
    )


def _jeffreys() -> GeneratorFunction:
    return GeneratorFunction(
        "jeffreys", breg=_JEFFREYS, f_at_zero=math.inf, fstar_at_zero=math.inf,
        right_deriv_at_one=0.0, second_at_one=2.0,
        eval=lambda t: (t - 1.0) * math.log(t),
        second=lambda t: 1.0 / t + (1.0 / (t * t) if t * t else math.inf),
    )


@_shared
def _hellinger(alpha: float, params: tuple) -> GeneratorFunction:
    breg = _hellinger_breg(alpha)
    am1 = alpha - 1.0
    return GeneratorFunction(
        "hellinger", params=params, breg=breg,
        f_at_zero=1.0 / (1.0 - alpha), fstar_at_zero=math.inf if alpha > 1.0 else 0.0,
        right_deriv_at_one=alpha / am1, second_at_one=alpha,
        eval=lambda t: (t**alpha - 1.0) / am1,
        second=lambda t: _scaled_power(alpha, t, alpha - 2.0),
    )


def _chi_squared() -> GeneratorFunction:
    return GeneratorFunction(
        "chi_squared", breg=_CHI2, f_at_zero=1.0, fstar_at_zero=math.inf,
        right_deriv_at_one=0.0, second_at_one=2.0,
        eval=lambda t: (t - 1.0) ** 2,
        second=lambda t: 2.0,
    )


def _total_variation(family: str = "total_variation", params: tuple = ()) -> GeneratorFunction:
    return GeneratorFunction(
        family, params=params, breg=_TV, f_at_zero=1.0, fstar_at_zero=1.0,
        right_deriv_at_one=1.0, left_deriv_at_one=-1.0,
        eval=lambda t: abs(t - 1.0),
    )


@_shared
def _chi_s(s: float, params: tuple) -> GeneratorFunction:
    breg = _chi_s_breg(s)
    if s == 1.0:
        return _total_variation("chi_s", params)
    if s == 2.0:
        second_at_one: Optional[float] = 2.0
    elif s > 2.0:
        second_at_one = 0.0
    else:
        second_at_one = None  # |t-1|^(s-2) blows up at 1 for s in (1,2)

    return GeneratorFunction(
        "chi_s", params=params, breg=breg, f_at_zero=1.0, fstar_at_zero=math.inf,
        right_deriv_at_one=0.0, second_at_one=second_at_one,
        eval=lambda t: abs(t - 1.0) ** s,
        second=lambda t: _scaled_power(s * (s - 1.0), abs(t - 1.0), s - 2.0),
    )


def _triangular() -> GeneratorFunction:
    return GeneratorFunction(
        "triangular", breg=_TRIANGULAR, f_at_zero=1.0, fstar_at_zero=1.0,
        right_deriv_at_one=0.0, second_at_one=1.0,
        eval=lambda t: (t - 1.0) ** 2 / (t + 1.0),
        second=lambda t: 8.0 / _scaled_power(1.0, t + 1.0, 3.0),
    )


@_shared
def _lin(theta: float, params: tuple, family: str = "lin") -> GeneratorFunction:
    breg = _lin_breg(theta)
    comp = 1.0 - theta

    def ev(t: float) -> float:
        m = theta * t + comp
        return theta * t * math.log(t) - m * math.log(m)

    return GeneratorFunction(
        family, params=params, breg=breg,
        f_at_zero=breg.at_zero, fstar_at_zero=breg.at_inf,
        right_deriv_at_one=0.0, second_at_one=theta * comp,
        eval=ev,
        second=lambda t: theta * comp / (t * (theta * t + comp)),
    )


@_shared
def _e_gamma(gamma: float, params: tuple) -> GeneratorFunction:
    breg = _e_gamma_breg(gamma)
    return GeneratorFunction(
        "e_gamma", params=params, breg=breg, f_at_zero=0.0, fstar_at_zero=1.0,
        right_deriv_at_one=1.0 if gamma == 1.0 else 0.0, left_deriv_at_one=0.0,
        eval=lambda t: max(t - gamma, 0.0),
    )


@_shared
def _degroot(omega: float, params: tuple) -> GeneratorFunction:
    breg = _degroot_breg(omega)
    m = min(omega, 1.0 - omega)
    if omega < 0.5:
        d_right = d_left = -omega
    elif omega > 0.5:
        d_right = d_left = 0.0
    else:
        d_right, d_left = 0.0, -0.5
    return GeneratorFunction(
        "degroot", params=params, breg=breg, f_at_zero=m, fstar_at_zero=0.0,
        right_deriv_at_one=d_right, left_deriv_at_one=d_left,
        eval=lambda t: m - min(omega * t, 1.0 - omega),
    )


class _Family(NamedTuple):
    """A row of the family table: the family's divergence kind, the name of
    its one parameter or None, its shifted term's builder and its
    generator's builder, or the one generator of a family with no
    parameter.  Builders share what they build per value, so a kind's sum
    and its generator's read one term, which keys the pair memo, while the
    bounded caches keep the value.  The kinds take Hellinger order 1 as KL,
    by analytic extension; the generator refuses it."""

    kind: str
    param: Optional[str]
    term: Callable[..., Breg]
    build: Any


_FAMILIES: dict[str, _Family] = {
    "kl": _Family("kl", None, lambda: _KL, _kl()),
    "jeffreys": _Family("jeffreys", None, lambda: _JEFFREYS, _jeffreys()),
    "hellinger": _Family(
        "hellinger", "alpha", lambda a: _KL if a == 1.0 else _hellinger_breg(a), _hellinger
    ),
    "chi_squared": _Family("chi2", None, lambda: _CHI2, _chi_squared()),
    "chi_s": _Family("chi_s", "s", _chi_s_breg, _chi_s),
    "total_variation": _Family("tv", None, lambda: _TV, _total_variation()),
    "triangular": _Family("triangular", None, lambda: _TRIANGULAR, _triangular()),
    "lin": _Family("lin", "theta", _lin_breg, _lin),
    "jensen_shannon": _Family("js", None, lambda: _JS, _lin(0.5, (), "jensen_shannon")),
    "e_gamma": _Family("e_gamma", "gamma", _e_gamma_breg, _e_gamma),
    "degroot": _Family("degroot", "omega", _degroot_breg, _degroot),
}


def generator(family: str, **params: float) -> GeneratorFunction:
    """A catalog generator, e.g. generator("hellinger", alpha=2).

    Families: kl, jeffreys, hellinger(alpha), chi_squared, chi_s(s),
    total_variation, triangular, lin(theta), jensen_shannon,
    e_gamma(gamma), degroot(omega), custom.  Catalog generators are shared
    immutable instances, built once per (family, parameters); a ``custom``
    generator is built on every call, from the ``GeneratorFunction``
    keywords.  A non-number parameter is a DomainError, and so is a missing
    or unknown keyword of ``custom``, or any TypeError its constructor
    raises.
    """
    if family == "custom":
        try:
            return GeneratorFunction("custom", **params)  # type: ignore[arg-type]
        except TypeError as e:
            raise DomainError(f"generator 'custom': {e}") from None
    try:
        _, pname, _, made = _FAMILIES[family]
    except (KeyError, TypeError):  # TypeError: an unhashable family
        raise DomainError(f"unknown generator family {family!r}") from None
    if pname is None:
        if params:
            raise DomainError(f"generator {family!r} takes no parameter")
        return made
    if len(params) != 1 or pname not in params:
        raise DomainError(f"generator {family!r} takes the one parameter {pname!r}")
    value = params[pname]
    value = value if type(value) is float else _real(value, pname)
    return made(value, ((pname, value),))


# Every divergence kind: name -> (catalog generator family or None, name of
# its one parameter or None): each family's kind, then the maps of the
# Hellinger sum (``divergences._HELLINGER_MAPS``), which take its order.
# The direct sums, the named representations and the CLI all read kind and
# parameter names from here.
_ORDER = _FAMILIES["hellinger"].param
KINDS: dict[str, tuple[Optional[str], Optional[str]]] = {
    **{row.kind: (family, row.param) for family, row in _FAMILIES.items()},
    "sq_hellinger": (None, None),
    "bhattacharyya": (None, None),
    "alpha": (None, _ORDER),
    "renyi": (None, _ORDER),
}


def kind_args(kind: str, params: Mapping[str, float]) -> tuple[float, ...]:
    """The parameter of ``kind`` taken from ``params``, as a 0- or 1-tuple.
    A key the kind does not take, or a non-number, raises DomainError."""
    try:
        _, pname = KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise UnknownKindError(f"unknown divergence kind {kind!r}") from None
    unexpected = [key for key in params if key != pname]
    if unexpected:
        raise DomainError(
            f"{kind!r} takes no parameter {', '.join(map(repr, unexpected))}"
        )
    if pname is None:
        return ()
    if pname not in params:
        raise DomainError(f"{kind!r} needs the parameter {pname!r}")
    return (_real(params[pname], pname),)


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
    derivative at 1 from f.  Its shifted term is f's read with P and Q
    swapped, T*(d, q, p) = T(-d, p, q) through ``terms._edge_term``, which
    takes a ratio past the float range, with ``at_zero`` and ``at_inf``
    exchanged: D_{f*}(P||Q) sums the same terms as D_f(Q||P).  The bounds
    in ``divkit.bounds`` do not build it: they evaluate t f(1/t), and
    f*(0) = ``f.fstar_at_zero``, in place.
    """
    base_eval, base_second, b = f._eval, f._second, f._breg

    def ev(t: float) -> float:
        return t * base_eval(1.0 / t)

    sd = None
    if base_second is not None:

        def sd(t: float) -> float:  # type: ignore[misc]
            u = 1.0 / t
            return _scaled_power(base_second(u), u, 3.0)

    return GeneratorFunction(
        f.family + "*",
        params=f.params,
        breg=Breg(lambda d, q, p: _edge_term(b, -d, p, q), b.at_inf, b.at_zero),
        f_at_zero=f.fstar_at_zero,
        fstar_at_zero=f.f_at_zero,
        right_deriv_at_one=-f.left_deriv_at_one,
        left_deriv_at_one=-f.right_deriv_at_one,
        second_at_one=f.second_at_one,
        eval=ev,
        second=sd,
    )


def affine_shift(f: GeneratorFunction, c: float) -> GeneratorFunction:
    """f(t) + c (t - 1); defines the same divergence as f, and shares its
    shifted term, from which ``eval`` takes it past the float range."""
    if not math.isfinite(_real(c, "c")):
        raise DomainError(f"shift c must be finite, got {c!r}")
    base_eval = f._eval

    def ev(t: float) -> float:
        return base_eval(t) + c * (t - 1.0)

    return GeneratorFunction(
        f.family,
        params=f.params,
        f_at_zero=f.f_at_zero - c,
        fstar_at_zero=f.fstar_at_zero + c,
        right_deriv_at_one=f.right_deriv_at_one + c,
        left_deriv_at_one=f.left_deriv_at_one + c,
        second_at_one=f.second_at_one,
        eval=ev,
        second=f._second,
        breg=f._breg,  # the shifted term is the same for f + c (t - 1)
    )


def g_eval(f: GeneratorFunction, x: float) -> float:
    """The transform g(x) = e^-x f(e^x) - c (1 - e^-x): f's shifted term
    (``f._breg``) at (d, q, p) = (1 - e^-x, e^-x, 1), by ``_g_edge``.

    Non-negative with g(0) = 0; decreasing on (-inf, 0] and increasing on
    [0, inf), strictly where f is strictly convex.  c is the subgradient of
    f at 1 that the term uses: f'(1) for a differentiable f; for a kinked
    family it can differ from ``right_deriv_at_one`` (total variation's
    term |d| takes c = 0 where that is 1).  The spectral engines sum g's
    increments, which needs no derivative, so they take a kinked f as they
    take a smooth one.  NaN x is refused, as ``spectrum_eval`` refuses it.
    """
    if math.isnan(_real(x, "x")):
        raise DomainError("x must not be NaN")
    v = _g_edge(f._breg, x)
    if x >= 0.0 or v == 0.0:
        return v
    return _exp_times(v, -x)  # e^-x passes the float range below x ~ -709.78
