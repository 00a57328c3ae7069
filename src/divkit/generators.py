"""Generator functions of f-divergences.

A generator is a convex function f on (0, inf) with f(1) = 0.  Each family
ships analytic first (and where available second) derivatives; numerical
differentiation is never used because the derivatives feed integrands where
noise compounds.  Kinked families (total variation, E_gamma, DeGroot,
chi^s at s = 1) expose their derivative as undefined exactly at the kink
abscissa.

Everything here is in nats: the catalog's logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .errors import (
    CapabilityError,
    DomainError,
    KinkError,
    RangeError,
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
    "weight",
    "g_eval",
    "g_inverse",
]


@dataclass(frozen=True)
class GeneratorFunction:
    """A member of the convex class with f(1) = 0, plus family metadata.

    ``f_at_zero`` is lim_{t->0} f(t) and ``fstar_at_zero`` is
    lim_{u->inf} f(u)/u; both live in (-inf, +inf].  ``right_deriv_at_one``
    always exists and is finite; ``left_deriv_at_one`` differs from it only
    at a kink sitting exactly at 1.  ``second_at_one`` is f''(1) when
    defined. ``kink`` is the abscissa where the derivative fails, or None.
    ``_eval_log``, which the families whose f(u)/u is unbounded supply, is
    x -> f(e^x) e^-x: it gives f(u)/u where u or f(u) leaves the float
    range.
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
    _eval_log: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if abs(self._eval(1.0)) > 1e-12:
            raise ValidationError(f"generator {self.family} violates f(1)=0")

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


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _kl() -> GeneratorFunction:
    return GeneratorFunction(
        family="kl",
        params=(),
        f_at_zero=0.0,
        fstar_at_zero=math.inf,
        right_deriv_at_one=1.0,
        left_deriv_at_one=1.0,
        second_at_one=1.0,
        kink=None,
        _eval=lambda t: t * math.log(t),
        _deriv=lambda t: math.log(t) + 1.0,
        _second=lambda t: 1.0 / t,
        _eval_log=lambda x: x,
    )


def _jeffreys() -> GeneratorFunction:
    return GeneratorFunction(
        family="jeffreys",
        params=(),
        f_at_zero=math.inf,
        fstar_at_zero=math.inf,
        right_deriv_at_one=0.0,
        left_deriv_at_one=0.0,
        second_at_one=2.0,
        kink=None,
        _eval=lambda t: (t - 1.0) * math.log(t),
        _deriv=lambda t: math.log(t) + 1.0 - 1.0 / t,
        _second=lambda t: 1.0 / t + 1.0 / (t * t),
        _eval_log=lambda x: -math.expm1(-x) * x,
    )


def _hellinger(alpha: float) -> GeneratorFunction:
    if alpha <= 0.0 or alpha == 1.0 or math.isinf(alpha):
        raise DomainError("Hellinger order must lie in (0,1) or (1,inf)")
    am1 = alpha - 1.0

    def ev_log(x: float) -> float:
        return (_exp_or_inf(am1 * x) - math.exp(-x)) / am1

    return GeneratorFunction(
        family="hellinger",
        params=_named(alpha=alpha),
        f_at_zero=1.0 / (1.0 - alpha),
        fstar_at_zero=math.inf if alpha > 1.0 else 0.0,
        right_deriv_at_one=alpha / am1,
        left_deriv_at_one=alpha / am1,
        second_at_one=alpha,
        kink=None,
        _eval=lambda t: (t**alpha - 1.0) / am1,
        _deriv=lambda t: alpha * t ** (alpha - 1.0) / am1,
        _second=lambda t: alpha * t ** (alpha - 2.0),
        _eval_log=ev_log if alpha > 1.0 else None,
    )


def _chi_squared() -> GeneratorFunction:
    return GeneratorFunction(
        family="chi_squared",
        params=(),
        f_at_zero=1.0,
        fstar_at_zero=math.inf,
        right_deriv_at_one=0.0,
        left_deriv_at_one=0.0,
        second_at_one=2.0,
        kink=None,
        _eval=lambda t: (t - 1.0) ** 2,
        _deriv=lambda t: 2.0 * (t - 1.0),
        _second=lambda t: 2.0,
        _eval_log=lambda x: _exp_or_inf(x) - 2.0 + math.exp(-x),
    )


def _total_variation() -> GeneratorFunction:
    return GeneratorFunction(
        family="total_variation",
        params=(),
        f_at_zero=1.0,
        fstar_at_zero=1.0,
        right_deriv_at_one=1.0,
        left_deriv_at_one=-1.0,
        second_at_one=None,
        kink=1.0,
        _eval=lambda t: abs(t - 1.0),
        _deriv=lambda t: 1.0 if t > 1.0 else -1.0,
        _second=None,
    )


def _chi_s(s: float) -> GeneratorFunction:
    if s < 1.0:
        raise DomainError("chi^s order must satisfy s >= 1")
    if s == 1.0:
        tv = _total_variation()
        return GeneratorFunction(
            family="chi_s",
            params=_named(s=1.0),
            f_at_zero=tv.f_at_zero,
            fstar_at_zero=tv.fstar_at_zero,
            right_deriv_at_one=tv.right_deriv_at_one,
            left_deriv_at_one=tv.left_deriv_at_one,
            second_at_one=None,
            kink=1.0,
            _eval=tv._eval,
            _deriv=tv._deriv,
            _second=None,
        )
    if s == 2.0:
        second_at_one: Optional[float] = 2.0
    elif s > 2.0:
        second_at_one = 0.0
    else:
        second_at_one = None  # |t-1|^(s-2) blows up at 1 for s in (1,2)

    def ev(t: float) -> float:
        return abs(t - 1.0) ** s

    def dv(t: float) -> float:
        d = t - 1.0
        if d == 0.0:
            return 0.0
        return s * abs(d) ** (s - 1.0) * math.copysign(1.0, d)

    def sd(t: float) -> float:
        return s * (s - 1.0) * abs(t - 1.0) ** (s - 2.0)

    def ev_log(x: float) -> float:
        # e^-x |e^x - 1|^s from its logarithm
        if x == 0.0:
            return 0.0
        if x > 0.0:
            log_gap = x + math.log1p(-math.exp(-x))
        else:
            log_gap = math.log(-math.expm1(x))
        return _exp_or_inf(s * log_gap - x)

    return GeneratorFunction(
        family="chi_s",
        params=_named(s=s),
        f_at_zero=1.0,
        fstar_at_zero=math.inf,
        right_deriv_at_one=0.0,
        left_deriv_at_one=0.0,
        second_at_one=second_at_one,
        kink=None,
        _eval=ev,
        _deriv=dv,
        _second=sd,
        _eval_log=ev_log,
    )


def _triangular() -> GeneratorFunction:
    return GeneratorFunction(
        family="triangular",
        params=(),
        f_at_zero=1.0,
        fstar_at_zero=1.0,
        right_deriv_at_one=0.0,
        left_deriv_at_one=0.0,
        second_at_one=1.0,
        kink=None,
        _eval=lambda t: (t - 1.0) ** 2 / (t + 1.0),
        _deriv=lambda t: (t - 1.0) * (t + 3.0) / (t + 1.0) ** 2,
        _second=lambda t: 8.0 / (t + 1.0) ** 3,
    )


def _lin(theta: float, family: str = "lin") -> GeneratorFunction:
    if not 0.0 < theta < 1.0:
        raise DomainError("Lin parameter must lie in (0, 1)")
    comp = 1.0 - theta

    def ev(t: float) -> float:
        m = theta * t + comp
        return theta * t * math.log(t) - m * math.log(m)

    def dv(t: float) -> float:
        return theta * (math.log(t) - math.log(theta * t + comp))

    def sd(t: float) -> float:
        return theta * comp / (t * (theta * t + comp))

    return GeneratorFunction(
        family=family,
        params=_named(theta=theta) if family == "lin" else (),
        f_at_zero=-comp * math.log(comp),
        fstar_at_zero=-theta * math.log(theta),
        right_deriv_at_one=0.0,
        left_deriv_at_one=0.0,
        second_at_one=theta * comp,
        kink=None,
        _eval=ev,
        _deriv=dv,
        _second=sd,
    )


def _e_gamma(gamma: float) -> GeneratorFunction:
    if gamma < 1.0:
        raise DomainError("E_gamma order must satisfy gamma >= 1")
    return GeneratorFunction(
        family="e_gamma",
        params=_named(gamma=gamma),
        f_at_zero=0.0,
        fstar_at_zero=1.0,
        right_deriv_at_one=1.0 if gamma == 1.0 else 0.0,
        left_deriv_at_one=0.0,
        second_at_one=None,
        kink=gamma,
        _eval=lambda t: max(t - gamma, 0.0),
        _deriv=lambda t: 1.0 if t > gamma else 0.0,
        _second=None,
    )


def _degroot(omega: float) -> GeneratorFunction:
    if not 0.0 < omega < 1.0:
        raise DomainError("DeGroot prior must lie in (0, 1)")
    m = min(omega, 1.0 - omega)
    kink = (1.0 - omega) / omega
    if omega < 0.5:
        d_right = d_left = -omega
    elif omega > 0.5:
        d_right = d_left = 0.0
    else:
        d_right, d_left = 0.0, -0.5
    return GeneratorFunction(
        family="degroot",
        params=_named(omega=omega),
        f_at_zero=m,
        fstar_at_zero=0.0,
        right_deriv_at_one=d_right,
        left_deriv_at_one=d_left,
        second_at_one=None,
        kink=kink,
        _eval=lambda t: m - min(omega * t, 1.0 - omega),
        _deriv=lambda t: -omega if t < kink else 0.0,
        _second=None,
    )


_FAMILIES: dict[str, Callable[..., GeneratorFunction]] = {
    "kl": _kl,
    "jeffreys": _jeffreys,
    "hellinger": _hellinger,
    "chi_squared": _chi_squared,
    "chi_s": _chi_s,
    "total_variation": _total_variation,
    "triangular": _triangular,
    "lin": _lin,
    "jensen_shannon": lambda: _lin(0.5, family="jensen_shannon"),
    "e_gamma": _e_gamma,
    "degroot": _degroot,
}


def generator(family: str, **params: float) -> GeneratorFunction:
    """Build a catalog generator, e.g. generator("hellinger", alpha=2).

    Families: kl, jeffreys, hellinger(alpha), chi_squared, chi_s(s),
    total_variation, triangular, lin(theta), jensen_shannon,
    e_gamma(gamma), degroot(omega), custom.
    """
    if family == "custom":
        return _custom(**params)  # type: ignore[arg-type]
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown generator family {family!r}") from None
    return builder(**params)


def _custom(
    *,
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
    return GeneratorFunction(
        family="custom",
        params=(),
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
    )


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
    derivative at 1 from f.  The bounds in ``divkit.bounds`` do not build
    it: they evaluate t f(1/t), and f*(0) = ``f.fstar_at_zero``, in place.
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
    """f(t) + c (t - 1); defines the same divergence as f."""
    base_eval, base_deriv = f._eval, f._deriv

    def ev(t: float) -> float:
        return base_eval(t) + c * (t - 1.0)

    dv = None
    if base_deriv is not None:

        def dv(t: float) -> float:  # type: ignore[misc]
            return base_deriv(t) + c

    ev_log = None
    if f._eval_log is not None:
        base_log = f._eval_log

        def ev_log(x: float) -> float:  # type: ignore[misc]
            return base_log(x) - c * math.expm1(-x)

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
        _eval_log=ev_log,
    )


def weight(f: GeneratorFunction, beta: float, c: Optional[float] = None) -> float:
    """Weight kernel of the spectral integral representation.

    Without c this is (1/beta)|f'(beta) - (f(beta) + f'(1))/beta|, which is
    non-negative and vanishes at 1.  With c the signed correction
    (c/beta^2) (1{beta>=1} - 1{beta<1}) is added, which leaves every
    divergence representation unchanged but can simplify the kernel.
    """
    if beta <= 0.0:
        raise DomainError("weight defined on beta > 0")
    d = f.deriv(beta)
    w = abs(d - (f._eval(beta) + f.right_deriv_at_one) / beta) / beta
    if c is not None:
        w += (c / (beta * beta)) * (1.0 if beta >= 1.0 else -1.0)
    return w


def g_eval(f: GeneratorFunction, x: float) -> float:
    """The transform exp(-x) f(exp(x)) - f'(1)(1 - exp(-x)).

    Non-negative with g(0) = 0; strictly decreasing on (-inf, 0] and
    increasing on [0, inf) whenever f is strictly convex at 1.
    """
    d1 = f.right_deriv_at_one
    if x > 700.0:
        return f.fstar_at_zero - d1 if math.isfinite(f.fstar_at_zero) else math.inf
    if x < -700.0:
        return math.inf if f.f_at_zero + d1 > 0.0 else 0.0
    ex = math.exp(x)
    emx = math.exp(-x)
    return emx * f._eval(ex) - d1 * (1.0 - emx)


def _g_pos_limit(f: GeneratorFunction) -> float:
    if math.isinf(f.fstar_at_zero):
        return math.inf
    return f.fstar_at_zero - f.right_deriv_at_one


def _g_neg_limit(f: GeneratorFunction) -> float:
    return math.inf if f.f_at_zero + f.right_deriv_at_one > 0.0 else 0.0


def g_inverse(f: GeneratorFunction, t: float, branch: str) -> float:
    """Invert the g transform on one of its two monotone branches.

    branch="positive" returns the solution x >= 0, branch="negative" the
    solution x <= 0.  Requires f strictly convex at 1 (so g is strictly
    monotone per branch).  Closed form for the chi-squared family,
    bracketed bisection elsewhere (absolute tolerance 1e-12 on x).
    """
    if branch not in ("positive", "negative"):
        raise DomainError(f"unknown branch {branch!r}")
    if t < 0.0:
        raise DomainError("g is non-negative; t must be >= 0")
    if t == 0.0:
        return 0.0
    if f.kink is not None:
        raise KinkError("g inversion needs a differentiable, strictly convex f")
    if f.family == "chi_squared":
        # g(x) = 4 sinh^2(x/2); from arcsinh this inverts to
        # 2 ln((sqrt(u) + sqrt(u+4)) / 2) on the positive branch.
        x = 2.0 * math.log((math.sqrt(t) + math.sqrt(t + 4.0)) / 2.0)
        return x if branch == "positive" else -x

    limit = _g_pos_limit(f) if branch == "positive" else _g_neg_limit(f)
    if t >= limit:
        raise RangeError(f"t={t!r} outside the {branch} branch range [0, {limit!r})")
    sign = 1.0 if branch == "positive" else -1.0

    def h(y: float) -> float:
        return g_eval(f, sign * y)

    lo, hi = 0.0, 1.0
    while h(hi) < t:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise RangeError(f"failed to bracket t={t!r} on the {branch} branch")
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) < t:
            lo = mid
        else:
            hi = mid
    return sign * 0.5 * (lo + hi)
