"""divkit command-line front end.

Subcommands: div, represent, spectrum, bounds, figure1, poisson, local,
selftest.  Output is JSON by default (CSV via --format csv) and is
deterministic byte for byte: the same argv prints the same bytes, with
stable key order and floats at 12 significant digits.

Exit status: 0 success, 2 validation/input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Any, Sequence

from .errors import DivkitError, DomainError, UnknownKindError, ValidationError, parse_number

if TYPE_CHECKING:
    from .distributions import DiscreteDistribution

# Each subcommand imports the divkit modules it needs in its handler, so a
# call loads only those: poisson never loads the spectrum engines, spectrum
# never loads the generator catalog.


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".12g")


def _to_json(obj: Any) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_to_json(payload) + "\n")
        return
    # CSV: one header line from the flattened keys, one row of values
    flat: dict[str, Any] = {}

    def _flatten(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                _flatten(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v)
        else:
            flat[prefix] = value

    for k, v in payload.items():
        _flatten(str(k), v)
    sys.stdout.write(",".join(flat.keys()) + "\n")
    sys.stdout.write(
        ",".join(
            format(v, ".12g") if isinstance(v, float) else str(v)
            for v in flat.values()
        )
        + "\n"
    )


def _read_distribution(path: str) -> DiscreteDistribution:
    from .distributions import make_distribution

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        weights = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                weights.append(float(line))
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: not a number: {line!r}"
                ) from None
        return make_distribution(weights)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if isinstance(data, dict):
        if "masses" not in data:
            raise ValidationError(f"{path}: JSON object needs a 'masses' array")
        masses = data["masses"]
        n = data.get("alphabet_size")
        if n is not None and isinstance(masses, list) and n != len(masses):
            raise ValidationError(
                f"{path}: alphabet_size {n} does not match {len(masses)} masses"
            )
        data = masses
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a JSON array of masses")
    for i, x in enumerate(data):
        # JSON numbers only: not true or false, a string, null, an array or an object
        if type(x) not in (int, float):
            raise ValidationError(f"{path}: mass {i} is not a number: {x!r}")
    return make_distribution(data)


def _cmd_div(args: argparse.Namespace, fmt: str) -> int:
    from .divergences import divergence
    from .generators import parse_kind

    kind, params = parse_kind(args.kind)
    p = _read_distribution(args.p)
    q = _read_distribution(args.q)
    result = divergence(kind, p, q, **params)
    _emit(
        {"kind": result.kind, "params": dict(result.params), "value_nats": result.value},
        fmt,
    )
    return 0


def _cmd_represent(args: argparse.Namespace, fmt: str) -> int:
    from .divergences import divergence
    from .generators import parse_generator, parse_kind
    from .spectrum_repr import (
        represent_degroot_weight,
        represent_general,
        represent_inverse_g,
        represent_named,
    )

    p = _read_distribution(args.p)
    q = _read_distribution(args.q)
    kind, params = parse_kind(args.kind)
    direct = float(divergence(kind, p, q, **params))
    if args.engine == "named":
        value = represent_named(kind, p, q, **params)
    else:
        f = parse_generator(args.kind)
        if args.engine == "general":
            value = represent_general(f, p, q, c=args.c)
        elif args.engine == "inverse-g":
            value = represent_inverse_g(f, p, q)
        else:  # degroot-weight
            value = represent_degroot_weight(f, p, q)
    _emit(
        {
            "kind": kind,
            "params": params,
            "engine": args.engine,
            "value": value,
            "direct_value": direct,
            "abs_diff": abs(value - direct),
        },
        fmt,
    )
    return 0


def _cmd_spectrum(args: argparse.Namespace, fmt: str) -> int:
    from .distributions import spectrum

    p = _read_distribution(args.p)
    q = _read_distribution(args.q)
    _emit(spectrum(p, q)._asdict(), fmt)
    return 0


def _parse_args_kv(raw: str, keys: tuple[str, ...]) -> dict[str, float]:
    """The --args k=v items: exactly ``keys``, plus an optional certified,
    each once."""
    out: dict[str, float] = {}
    for item in raw.split(",") if raw else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if not val:
            raise ValidationError(f"bad --args item {item!r}; expected k=v")
        if key not in keys and key != "certified":
            raise ValidationError(
                f"unexpected --args key {key!r}; expected {', '.join(keys) or 'none'}"
            )
        if key in out:
            raise ValidationError(f"repeated --args key {key!r}")
        out[key] = parse_number(val, f"--args {key}")
    missing = [k for k in keys if k not in out]
    if missing:
        raise ValidationError(f"--args is missing {', '.join(missing)}")
    return out


def _cmd_bounds(args: argparse.Namespace, fmt: str) -> int:
    from .bounds import CATALOG, make_report

    if args.list:
        _emit({"bounds": sorted(CATALOG)}, fmt)
        return 0
    if not args.name:
        raise ValidationError("bounds needs --name or --list")
    if args.name not in CATALOG:
        raise UnknownKindError(f"unknown bound {args.name!r}")
    direction, keys, bound = CATALOG[args.name]
    kv = _parse_args_kv(args.args or "", keys)
    value = bound(*(kv[k] for k in keys))
    report = make_report(args.name, value, kv.get("certified"), direction)
    _emit(report._asdict(), fmt)
    return 0


def _cmd_figure1(args: argparse.Namespace, fmt: str) -> int:
    from .bounds import egamma_upper, straight_line_egamma_ub

    gammas = [parse_number(g, "--gammas") for g in args.gammas.split(",") if g]
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    if not args.d_max > 0.0:
        raise ValidationError("--d-max must be positive")
    for g in gammas:
        if g <= 1.0:
            raise DomainError(f"gamma {g} must exceed 1")
    sys.stdout.write("D,gamma,straight_line,bh_curve\n")
    for g in gammas:
        for i in range(1, args.steps + 1):
            d = args.d_max * i / args.steps
            straight = straight_line_egamma_ub(g, d)
            curve = egamma_upper("kl", g, d)
            sys.stdout.write(
                f"{d:.12g},{g:.12g},{straight:.12g},{curve:.12g}\n"
            )
    return 0


def _cmd_poisson(args: argparse.Namespace, fmt: str) -> int:
    from .bayes_poisson import _threshold, poisson_bound_report, poisson_divergences

    mu, lam, omega = args.mu, args.lam, args.omega
    kl, chi2 = poisson_divergences(mu, lam)
    reports = poisson_bound_report(mu, lam, omega)
    bound_dicts = []
    for r in reports:
        d = r._asdict()
        # bounds are quoted to two significant figures in the write-ups;
        # echo that rounding next to the full-precision value
        d["bound_value_2sig"] = f"{r.bound_value:.1e}"
        bound_dicts.append(d)
    # for mu < lam the roles swap and the prior becomes 1 - omega, taken
    # exactly: in floats 1 - omega rounds to 1 for omega below ~1e-16
    k0 = None if mu == lam else _threshold(min(mu, lam), max(mu, lam), omega, mu < lam)[0]
    payload = {
        "mu": mu,
        "lambda": lam,
        "omega": omega,
        "kl": kl,
        "chi2": chi2,
        "k0": k0,
        "exact_degroot": reports[0].certified_quantity,
        "bounds": bound_dicts,
    }
    _emit(payload, fmt)
    return 0


def _cmd_local(args: argparse.Namespace, fmt: str) -> int:
    from .generators import parse_generator
    from .local import local_limit_estimate

    f = parse_generator(args.f)
    p = _read_distribution(args.p)
    q = _read_distribution(args.q)
    est = local_limit_estimate(f, p, q, direction=args.direction)
    _emit({"family": args.f, "direction": args.direction, **vars(est)}, fmt)
    return 0


def _cmd_selftest(args: argparse.Namespace, fmt: str) -> int:
    from .distributions import make_distribution, mixture
    from .divergences import f_divergence
    from .generators import conjugate, parse_generator
    from .spectrum_repr import represent_general, spectrum_identity

    bern_p = make_distribution([0.7, 0.3])
    bern_q = make_distribution([0.5, 0.5])
    tri_p = make_distribution([0.2, 0.3, 0.5])
    tri_q = make_distribution([1.0, 1.0, 1.0])
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures += 1

    for name, (p, q) in {
        "bernoulli": (bern_p, bern_q),
        "trinomial": (tri_p, tri_q),
        "identical": (bern_q, bern_q),
    }.items():
        check(
            f"spectrum identity ({name})",
            abs(spectrum_identity(p, q) - 1.0) <= 1e-12,
        )
    near_p = mixture(bern_p, bern_q, 1e-8)
    for fam in ("kl", "chi2", "hellinger:0.5", "triangular", "js"):
        f = parse_generator(fam)
        fc = conjugate(f)
        d_pq = float(f_divergence(f, bern_p, bern_q))
        d_conj = float(f_divergence(fc, bern_q, bern_p))
        check(f"conjugate duality ({fam})", d_pq == d_conj)
        near = float(f_divergence(f, near_p, bern_q))
        near_conj = float(f_divergence(fc, bern_q, near_p))
        check(f"conjugate duality, near-equal ({fam})", near == near_conj)
        rep = represent_general(f, bern_p, bern_q, c=1.0)
        check(
            f"representation vs direct ({fam})",
            abs(rep - d_pq) <= 1e-8 * max(1.0, d_pq),
        )
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divkit",
        description="f-divergences, spectral integral representations, "
        "inequality certification, and the Poisson testing example.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("div", help="compute a named divergence")
    p_div.add_argument("--kind", required=True, help="e.g. kl, tv, hellinger:0.5")
    p_div.add_argument("--p", required=True, help="path to P (JSON or CSV)")
    p_div.add_argument("--q", required=True, help="path to Q (JSON or CSV)")
    p_div.set_defaults(func=_cmd_div)

    p_rep = sub.add_parser("represent", help="integral representation vs direct value")
    p_rep.add_argument("--kind", required=True)
    p_rep.add_argument("--p", required=True)
    p_rep.add_argument("--q", required=True)
    p_rep.add_argument("--c", type=float, default=0.0, help="kernel shift constant")
    p_rep.add_argument(
        "--engine",
        choices=("general", "inverse-g", "named", "degroot-weight"),
        default="named",
    )
    p_rep.set_defaults(func=_cmd_represent)

    p_spec = sub.add_parser("spectrum", help="relative information spectrum of (P,Q)")
    p_spec.add_argument("--p", required=True)
    p_spec.add_argument("--q", required=True)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_bounds = sub.add_parser("bounds", help="evaluate a named scalar bound")
    p_bounds.add_argument("--list", action="store_true")
    p_bounds.add_argument("--name")
    p_bounds.add_argument(
        "--args", help="comma-separated k=v inputs, e.g. tv=0.4 or gamma=2,kl=1"
    )
    p_bounds.set_defaults(func=_cmd_bounds)

    p_fig = sub.add_parser(
        "figure1", help="CSV of straight-line vs curved E_gamma bounds"
    )
    p_fig.add_argument("--gammas", default="1.1,2,3,4")
    p_fig.add_argument("--d-max", dest="d_max", type=float, default=5.0)
    p_fig.add_argument("--steps", type=int, default=500)
    p_fig.set_defaults(func=_cmd_figure1)

    p_poi = sub.add_parser("poisson", help="Poisson hypothesis-testing report")
    p_poi.add_argument("--mu", type=float, required=True)
    p_poi.add_argument("--lambda", dest="lam", type=float, required=True)
    p_poi.add_argument("--omega", type=float, required=True)
    p_poi.set_defaults(func=_cmd_poisson)

    p_loc = sub.add_parser("local", help="mixture-path local-limit estimate")
    p_loc.add_argument("--f", required=True, help="generator, e.g. kl")
    p_loc.add_argument("--p", required=True)
    p_loc.add_argument("--q", required=True)
    p_loc.add_argument(
        "--direction",
        choices=("mixture_first", "mixture_second"),
        default="mixture_first",
    )
    p_loc.set_defaults(func=_cmd_local)

    p_self = sub.add_parser("selftest", help="run built-in consistency checks")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args, args.format)
    except DivkitError as exc:
        print(f"divkit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"divkit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"divkit: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
