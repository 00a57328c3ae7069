"""The four benchmark workloads.

Each workload turns a seed into an endless stream of items.  An item holds
its raw inputs (``data``, hashed into the run's input digest), a ``run``
function that makes the divkit calls and returns their outputs, and a
``check(outputs, stats)`` function that inspects those outputs outside the
timed region, returns failure codes ``"<layer>.<what>"`` and records error
sizes in ``stats`` for the traced run's per-layer metrics.

``run`` receives ``call(name, fn, *args, **kwargs)``; ``name`` is
``<module>.<function>`` of the divkit function called, which the traced
run records as a span.  Functions are looked up on the ``divkit`` package
at call time, so a test can patch them.

Sizes (alphabet sizes, Poisson rates) follow a fixed schedule; the seed
chooses the masses, mixture weights and query points.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import divkit as dk

# Failures the seed program is known to produce, as failure codes or, ending
# in ".", code prefixes.  A run reports ``correct: false`` only for a failure
# outside this table.
KNOWN_FAILURES = {
    "divergences.negative.": "a non-negative divergence comes out below 0 on near-equal pairs",
    "bounds.slack.": "an inequality misses by more than 1e-10 on near-equal pairs, where "
    "the direct KL sum loses its relative accuracy",
    "bounds.raised.DomainError": "a bound refuses a negative KL or chi2 that the direct sums "
    "returned for a near-equal pair",
    "local.limit_off_target": "the Richardson estimate misses (1/2) f''(1) chi2 by more than "
    "1e-4 on near-equal pairs",
    "bayes_poisson.exact_negative": "head-sum DeGroot value below 0 (paper example: -1.62e-14)",
    "spectrum_repr.represent_inverse_g_error": "inverse-g quadrature misses its ~1e-6 contract",
    "spectrum_repr.raised.ZeroDivisionError": "represent_named at Hellinger/Renyi order 1 "
    "divides by alpha - 1",
    "spectrum_repr.raised.OverflowError": "spectrum_from_egamma overflows exp(|x|) for |x| > 709.78",
    "cli.exit1.hellinger_abc": "--kind hellinger:abc is an internal error (exit 1), not exit 2",
    "cli.exit1.gamma_abc": "bounds --args gamma=abc is an internal error (exit 1), not exit 2",
    "cli.exit1.pinsker_kl": "bounds --name pinsker_lb_kl --args kl=1 raises KeyError (exit 1)",
    "cli.exit0.hellinger_nan": '--kind hellinger:nan exits 0 and prints "nan"',
    "cli.exact_negative": "poisson prints exact_degroot below 0 (paper example: -1.62e-14)",
}


def is_known(code: str) -> bool:
    return any(code == k or (k.endswith(".") and code.startswith(k)) for k in KNOWN_FAILURES)


# Contract tolerances, as the acceptance suite states them.
TOL_REPRESENT = 1e-8  # named and general engines, relative to max(1, direct)
TOL_QUADRATURE = 1e-6  # inverse-g and DeGroot-weight engines
TOL_IDENTITY = 1e-12  # spectrum identity and CDF reconstruction, absolute
TOL_SLACK = -1e-10  # certified inequalities
TOL_LOCAL = 1e-4  # local limits, relative to the target
TOL_DIRECT = 1e-9  # closed form vs generic sum, relative to max(1, value)


@dataclass
class Item:
    label: str
    size: float
    data: Any
    run: Callable[[Callable], Any]
    check: Callable[[Any, "Stats"], list]
    ends_unit: bool = True  # end-to-end metrics count whole schedule units only


class Stats:
    """Extremes and counts that checks observe, keyed by metric name."""

    def __init__(self):
        self.values: dict[str, float] = {}

    def high(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, -math.inf), value)

    def low(self, name: str, value: float) -> None:
        self.values[name] = min(self.values.get(name, math.inf), value)

    def count(self, name: str, k: int = 1) -> None:
        self.values[name] = self.values.get(name, 0) + k


def _weights(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.01, 1.0) for _ in range(n)]


def _normalized(ws: list[float]) -> list[float]:
    total = math.fsum(ws)
    return [w / total for w in ws]


def _degroot_ref(omega: float, p: list, q: list) -> float:
    """DeGroot information as a sum of positive parts, free of cancellation."""
    if omega <= 0.5:
        return math.fsum(max(omega * pm - (1.0 - omega) * qm, 0.0) for pm, qm in zip(p, q))
    return math.fsum(max((1.0 - omega) * qm - omega * pm, 0.0) for pm, qm in zip(p, q))


def _rel_err(value: float, ref: float) -> float:
    if math.isnan(value):
        return math.inf
    return abs(value - ref) / max(1.0, abs(ref))


# -- certify-small ----------------------------------------------------------

DIV_KINDS = (
    [
        ("kl", {}),
        ("jeffreys", {}),
        ("hellinger", {"alpha": 0.5}),
        ("hellinger", {"alpha": 2.0}),
        ("chi2", {}),
        ("sq_hellinger", {}),
        ("bhattacharyya", {}),
        ("alpha", {"alpha": 0.5}),
        ("chi_s", {"s": 1.5}),
        ("chi_s", {"s": 3.0}),
        ("tv", {}),
        ("triangular", {}),
        ("lin", {"theta": 0.3}),
        ("js", {}),
        ("renyi", {"alpha": 0.5}),
        ("renyi", {"alpha": 2.0}),
    ]
    + [("e_gamma", {"gamma": g}) for g in (1.0, 1.2, 1.5, 2.0, 5.0)]
    + [("degroot", {"omega": w}) for w in (0.25, 0.3, 0.5, 0.75)]
)

# (divergence kind, generator family, parameters): criterion 07's catalog
BOUND_CATALOG = [
    ("kl", "kl", {}),
    ("jeffreys", "jeffreys", {}),
    ("hellinger", "hellinger", {"alpha": 0.5}),
    ("hellinger", "hellinger", {"alpha": 2.0}),
    ("chi2", "chi_squared", {}),
    ("chi_s", "chi_s", {"s": 3.0}),
    ("triangular", "triangular", {}),
    ("lin", "lin", {"theta": 0.3}),
    ("js", "jensen_shannon", {}),
    ("tv", "total_variation", {}),
    ("e_gamma", "e_gamma", {"gamma": 2.0}),
    ("degroot", "degroot", {"omega": 0.3}),
]

LOCAL_SPECS = ("kl", "chi2", "hellinger:0.5", "triangular", "js", "jeffreys")
POISSON_EVERY = 128  # one Poisson item per this many certify-small items
POISSON_RATES = (1e2, 1e3, 1e4, 1e5)
POISSON_OMEGAS = (0.1, 0.5, 0.9)
PAPER_EXAMPLE = (101.0, 99.0, 0.1)


def _key(kind: str, params: dict) -> str:
    return kind + "".join(f":{v:g}" for v in params.values())


def _certify_bounds(call, gens, d, d_rev):
    """Criterion 07's inequality catalog; returns (bound name, slack) pairs."""
    out = []
    b = "bounds."

    def lower(name, value, bound):
        out.append((name, value - bound))

    e = {g: d[f"e_gamma:{g:g}"] for g in (1.0, 1.2, 1.5, 2.0, 5.0)}
    for (kind, _, params), gen in zip(BOUND_CATALOG, gens):
        d_f = d[_key(kind, params)]
        for g in (1.0, 1.2, 2.0, 5.0):
            lower(
                "fdiv_lower_via_egamma",
                d_f,
                call(b + "fdiv_lower_via_egamma", dk.fdiv_lower_via_egamma, gen, e[g], g),
            )
    for alpha in (0.5, 2.0):
        for g in (1.0, 2.0):
            for kind in ("hellinger", "renyi"):
                lower(
                    "hellinger_renyi_lower",
                    d[f"{kind}:{alpha:g}"],
                    call(b + "hellinger_renyi_lower", dk.hellinger_renyi_lower, kind, alpha, g, e[g]),
                )
    for g in (1.0, 1.5):
        for kind, value in (("chi2", d["chi2"]), ("kl", d["kl"])):
            out.append(
                ("egamma_upper", call(b + "egamma_upper", dk.egamma_upper, kind, g, value) - e[g])
            )
    for omega in (0.25, 0.5, 0.75):
        i_val = d[f"degroot:{omega:g}"] if omega <= 0.5 else d_rev["degroot:0.75"]
        lower(
            "fdiv_lower_via_degroot",
            d["kl"],
            call(b + "fdiv_lower_via_degroot", dk.fdiv_lower_via_degroot, gens[0], omega, i_val),
        )
    kwargs = dict(d_pq=d["kl"], d_qp=d_rev["kl"], chi_pq=d["chi2"], chi_qp=d_rev["chi2"])
    for omega in (0.25, 0.5, 0.75):
        for kind in ("chi2", "kl_line", "kl_bh"):
            bound = call(b + "degroot_upper", dk.degroot_upper, kind, omega, **kwargs)
            out.append(("degroot_upper", bound - d[f"degroot:{omega:g}"]))
    for name in ("pinsker_lb_kl", "bh_lb_kl", "vajda_lb_kl"):
        lower("tv_kl_frontier", d["kl"], call(b + "tv_kl_frontier", dk.tv_kl_frontier, name, d["tv"]))
    for name in ("bh_ub_tv", "vajda_ub_tv"):
        out.append(("tv_kl_frontier", call(b + "tv_kl_frontier", dk.tv_kl_frontier, name, d["kl"]) - d["tv"]))
    out.append(("kl_upper_log_chi2", call(b + "kl_upper_log_chi2", dk.kl_upper_log_chi2, d["chi2"]) - d["kl"]))
    for kind in ("tight", "jensen"):
        lower("chi2_lower_from_tv", d["chi2"], call(b + "chi2_lower_from_tv", dk.chi2_lower_from_tv, kind, d["tv"]))
    return out


def _pair_item(rng: random.Random, index: int) -> Item:
    n = rng.randint(2, 8)
    wp, wq = _weights(rng, n), _weights(rng, n)
    lam = None
    if index % 4 == 0:
        # near-equal: the mixture path lam P + (1 - lam) Q against Q
        lam = 10.0 ** rng.uniform(-6.0, -2.0)
        p, q = _normalized(wp), _normalized(wq)
        wp, wq = [lam * pm + (1.0 - lam) * qm for pm, qm in zip(p, q)], q
    spec = LOCAL_SPECS[(index // 4) % len(LOCAL_SPECS)]

    def run(call):
        p = call("distributions.make_distribution", dk.make_distribution, wp)
        q = call("distributions.make_distribution", dk.make_distribution, wq)
        div = dk.divergence
        d = {
            _key(kind, params): call("divergences.divergence", div, kind, p, q, **params).value
            for kind, params in DIV_KINDS
        }
        d_rev = {
            "kl": call("divergences.divergence", div, "kl", q, p).value,
            "chi2": call("divergences.divergence", div, "chi2", q, p).value,
            "degroot:0.75": call("divergences.divergence", div, "degroot", q, p, omega=0.75).value,
        }
        renyi = {a: call("divergences.renyi", dk.renyi, a, p, q).value for a in (0.5, 2.0)}
        gens = [call("generators.generator", dk.generator, fam, **pr) for _, fam, pr in BOUND_CATALOG]
        fdiv = [call("divergences.f_divergence", dk.f_divergence, g, p, q).value for g in gens]
        slacks = _certify_bounds(call, gens, d, d_rev)
        f_loc = call("generators.parse_generator", dk.parse_generator, spec)
        est = call("local.local_limit_estimate", dk.local_limit_estimate, f_loc, p, q)
        return d, d_rev, renyi, fdiv, slacks, est

    def check(out, stats):
        d, d_rev, renyi, fdiv, slacks, est = out
        fails = []
        for key, value in list(d.items()) + list(d_rev.items()):
            kind = key.split(":")[0]
            if math.isnan(value):
                fails.append(f"divergences.nan.{kind}")
            elif value < 0.0:
                fails.append(f"divergences.negative.{kind}")
                stats.count("divergences.negative_results")
        for alpha, value in renyi.items():
            if not _rel_err(value, d[f"renyi:{alpha:g}"]) <= TOL_DIRECT:
                fails.append("divergences.renyi_mismatch")
        for (kind, _, params), value in zip(BOUND_CATALOG, fdiv):
            if math.isnan(value):
                fails.append("divergences.nan.f_divergence")
            elif value < 0.0:
                fails.append("divergences.negative.f_divergence")
                stats.count("divergences.negative_results")
            if not _rel_err(value, d[_key(kind, params)]) <= TOL_DIRECT:
                fails.append(f"divergences.f_divergence_mismatch.{kind}")
        for name, slack in slacks:
            stats.low("bounds.min_slack", slack)
            if not slack >= TOL_SLACK:
                fails.append(f"bounds.slack.{name}")
        stats.high("local.max_residual", est.residual)
        if not abs(est.extrapolated - est.target) <= TOL_LOCAL * abs(est.target):
            fails.append("local.limit_off_target")
        return sorted(set(fails))

    return Item("pair", n, (wp, wq, spec), run, check)


def _poisson_item(rng: random.Random, index: int) -> Item:
    slot = index % (1 + len(POISSON_RATES) * len(POISSON_OMEGAS))
    if slot == 0:
        mu, lam, omega = PAPER_EXAMPLE
    else:
        # rate-minor order spreads the costly 1e5 items through the cycle
        rate = POISSON_RATES[(slot - 1) % len(POISSON_RATES)]
        omega = POISSON_OMEGAS[(slot - 1) // len(POISSON_RATES)]
        lam = rate
        mu = rate * (1.0 + 10.0 ** rng.uniform(-3.0, -1.0))
    size = max(mu, lam)

    def run(call):
        exact = call(
            "bayes_poisson.poisson_degroot_exact", dk.poisson_degroot_exact, mu, lam, omega
        )
        reports = call(
            "bayes_poisson.poisson_bound_report", dk.poisson_bound_report, mu, lam, omega
        )
        return exact, reports

    def check(out, stats):
        exact, reports = out
        fails = []
        if math.isnan(exact):
            fails.append("bayes_poisson.exact_nan")
        elif exact < 0.0:
            fails.append("bayes_poisson.exact_negative")
            stats.count("bayes_poisson.negative_results")
        for r in reports:
            if r.certified_quantity != exact:
                fails.append("bayes_poisson.report_mismatch")
            stats.low("bounds.min_slack", r.slack)
            if not r.slack >= TOL_SLACK:
                fails.append(f"bounds.slack.{r.name}")
        return fails

    return Item("poisson", size, (mu, lam, omega), run, check)


def certify_small(seed: int, tiny: bool) -> Iterator[Item]:
    rng = random.Random(seed)
    i = pairs = poissons = 0
    while True:
        if i % POISSON_EVERY == POISSON_EVERY - 1:
            item = _poisson_item(rng, poissons)
            if tiny and item.size > 2e3:
                item = _poisson_item(rng, 0)
            poissons += 1
        else:
            item = _pair_item(rng, pairs)
            pairs += 1
        i += 1
        yield item


# -- represent-small --------------------------------------------------------

NAMED_ENTRIES = [
    ("kl", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 1.0}),  # order 1: KL by analytic extension
    ("hellinger", {"alpha": 2.0}),
    ("chi2", {}),
    ("sq_hellinger", {}),
    ("bhattacharyya", {}),
    ("renyi", {"alpha": 0.5}),
    ("renyi", {"alpha": 1.0}),
    ("renyi", {"alpha": 2.0}),
    ("chi_s", {"s": 1.5}),
    ("chi_s", {"s": 3.0}),
    ("tv", {}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("js", {}),
    ("jeffreys", {}),
    ("e_gamma", {"gamma": 1.0}),
    ("e_gamma", {"gamma": 1.5}),
    ("e_gamma", {"gamma": 3.0}),
    ("degroot", {"omega": 0.2}),
    ("degroot", {"omega": 0.5}),
    ("degroot", {"omega": 0.8}),
]
GENERAL_FAMILIES = [
    ("kl", {}),
    ("jeffreys", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 2.0}),
    ("chi_s", {"s": 3.0}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("jensen_shannon", {}),
]
DEGROOT_WEIGHT_FAMILIES = [
    ("kl", {}),
    ("jeffreys", {}),
    ("hellinger", {"alpha": 0.5}),
    ("hellinger", {"alpha": 3.0}),
    ("triangular", {}),
    ("lin", {"theta": 0.3}),
    ("chi_squared", {}),
    ("jensen_shannon", {}),
]
INVERSE_G_FAMILIES = [("kl", {}), ("chi_squared", {})]
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# One cycle of represent-small; the counts set each engine's share of time.
REPRESENT_CYCLE = (
    ["represent_named"] * 8
    + ["represent_general"] * 4
    + ["represent_degroot_weight"] * 4
    + ["spectrum_identity"]
) * 2 + ["represent_inverse_g"]
REPRESENT_TOL = {
    "represent_named": TOL_REPRESENT,
    "represent_general": TOL_REPRESENT,
    "represent_degroot_weight": TOL_QUADRATURE,
    "represent_inverse_g": TOL_QUADRATURE,
}


def _represent_item(rng: random.Random, engine: str, turn: int, tiny: bool, offset: float) -> Item:
    # n follows a fixed schedule per engine, so that every run holds the same
    # mix of sizes: inverse-g cycles n = 2..8 for each family, the others
    # spread log n evenly over [log 2, log 64] by a golden-ratio sequence
    if engine == "represent_inverse_g":
        n = 2 + (turn // len(INVERSE_G_FAMILIES)) % 7
    else:
        u = (offset + turn * GOLDEN) % 1.0
        n = int(round(math.exp(math.log(2.0) + u * math.log((16.0 if tiny else 64.0) / 2.0))))
    wp, wq = _weights(rng, n), _weights(rng, n)
    name = "spectrum_repr." + engine
    if engine == "represent_named":
        kind, params = NAMED_ENTRIES[turn % len(NAMED_ENTRIES)]
    elif engine == "spectrum_identity":
        kind, params = "identity", {}
    else:
        families = {
            "represent_general": GENERAL_FAMILIES,
            "represent_degroot_weight": DEGROOT_WEIGHT_FAMILIES,
            "represent_inverse_g": INVERSE_G_FAMILIES,
        }[engine]
        kind, params = families[turn % len(families)]

    def run(call):
        p = call("distributions.make_distribution", dk.make_distribution, wp)
        q = call("distributions.make_distribution", dk.make_distribution, wq)
        if engine == "spectrum_identity":
            return call(name, dk.spectrum_identity, p, q), 1.0
        if engine == "represent_named":
            rep = call(name, dk.represent_named, kind, p, q, **params)
            direct = call("divergences.divergence", dk.divergence, kind, p, q, **params).value
            return rep, direct
        gen = call("generators.generator", dk.generator, kind, **params)
        if engine == "represent_general":
            rep = call(name, dk.represent_general, gen, p, q, c=1.0)
        elif engine == "represent_degroot_weight":
            rep = call(name, dk.represent_degroot_weight, gen, p, q)
        else:
            rep = call(name, dk.represent_inverse_g, gen, p, q)
        direct = call("divergences.f_divergence", dk.f_divergence, gen, p, q).value
        return rep, direct

    def check(out, stats):
        rep, direct = out
        if engine == "spectrum_identity":
            err = abs(rep - 1.0)
            stats.high("spectrum_repr.spectrum_identity.max_abs_err", err)
            ok = err <= TOL_IDENTITY
        else:
            err = _rel_err(rep, direct)
            stats.high(f"spectrum_repr.{engine}.max_rel_err", err)
            ok = err <= REPRESENT_TOL[engine]
        fails = [] if ok else [f"spectrum_repr.{engine}_error"]
        if direct < 0.0:
            fails.append(f"divergences.negative.{kind}")
            stats.count("divergences.negative_results")
        return fails

    return Item(engine, n, (engine, kind, wp, wq), run, check)


def represent_small(seed: int, tiny: bool) -> Iterator[Item]:
    rng = random.Random(seed)
    offset = rng.random()
    turns: dict[str, int] = {}
    while True:
        for engine in REPRESENT_CYCLE:
            turn = turns.get(engine, 0)
            turns[engine] = turn + 1
            yield _represent_item(rng, engine, turn, tiny, offset)


# -- reconstruct-large ------------------------------------------------------

RECONSTRUCT_QUERIES = (
    "spectrum",
    "spectrum_from_egamma",
    "spectrum_from_degroot",
    "g_big",
    "spectrum_identity",
    "represent_named.kl",
    "represent_named.e_gamma",
    "represent_named.degroot",
    "spectrum_from_egamma.far",  # |x| in [710, 800]: the CDF saturates at 0 or 1
)
# One unit of the schedule: one n=1e4 item, 69 n=1e3 items, three n=1e5 items.
RECONSTRUCT_UNIT = ("large",) + (("small",) * 23 + ("direct",)) * 3
# End-to-end metrics count the first five units (about 13 s on a 2-vCPU
# Xeon host), so that every run ranks the same number of n=1e4 and n=1e5
# items for item_tail_ms; the loop still runs, and is checked, to the end.
MEASURED_UNITS = {"reconstruct-large": 5}
DIRECT_LARGE_KINDS = ("kl", "tv", "chi2", "degroot")


class _Pair:
    """One (P, Q) pair of a reconstruct-large visit and its references.

    The references are computed here, by the benchmark, from the raw
    weights: the log ratios, the KL / E_gamma / DeGroot values by ``fsum``,
    and the query points with the spectrum CDF and tail at them.
    """

    def __init__(self, rng: random.Random, n: int):
        self.n = n
        self.wp, self.wq = _weights(rng, n), _weights(rng, n)
        p, q = _normalized(self.wp), _normalized(self.wq)
        self.atoms = sorted((math.log(pm) - math.log(qm), pm) for pm, qm in zip(p, q))
        ratios = [x for x, _ in self.atoms]
        self.x_egamma = self._query_point(rng, ratios)
        self.x_degroot = self._query_point(rng, ratios)
        self.x_beta = self._query_point(rng, ratios)
        self.x_far = rng.choice((-1.0, 1.0)) * rng.uniform(710.0, 800.0)
        self.gamma = rng.uniform(1.0, 3.0)
        self.omega = rng.uniform(0.1, 0.9)
        self.ref = {
            "kl": math.fsum(pm * math.log(pm / qm) for pm, qm in zip(p, q)),
            "e_gamma": math.fsum(max(pm - self.gamma * qm, 0.0) for pm, qm in zip(p, q)),
            "degroot": _degroot_ref(self.omega, p, q),
        }
        self.p = self.q = None

    @staticmethod
    def _query_point(rng: random.Random, ratios: list) -> float:
        # stay 1e-9 away from every breakpoint, where the CDF jumps
        lo, hi = ratios[0] - 0.5, ratios[-1] + 0.5
        while True:
            x = rng.uniform(lo, hi)
            k = bisect.bisect_left(ratios, x)
            if all(abs(ratios[i] - x) > 1e-9 for i in (k - 1, k) if 0 <= i < len(ratios)):
                return x

    def cdf(self, x: float) -> float:
        return math.fsum(pm for r, pm in self.atoms if r <= x)


def _make_item(pair: _Pair) -> Item:
    def run(call):
        pair.p = call("distributions.make_distribution", dk.make_distribution, pair.wp)
        pair.q = call("distributions.make_distribution", dk.make_distribution, pair.wq)
        return pair.p, pair.q

    def check(out, stats):
        return [] if len(out[0]) == pair.n == len(out[1]) else ["distributions.wrong_length"]

    return Item("make", pair.n, (pair.wp, pair.wq), run, check)


def _query_item(pair: _Pair, query: str) -> Item:
    x = {
        "spectrum_from_egamma": pair.x_egamma,
        "spectrum_from_degroot": pair.x_degroot,
        "spectrum_from_egamma.far": pair.x_far,
    }.get(query, pair.x_beta)

    def run(call):
        p, q = pair.p, pair.q
        if query == "spectrum":
            return call("distributions.spectrum", dk.spectrum, p, q)
        if query == "g_big":
            return call("distributions.g_big", dk.g_big, p, q, math.exp(x))
        if query.startswith("represent_named."):
            kind = query.split(".")[1]
            params = {"e_gamma": {"gamma": pair.gamma}, "degroot": {"omega": pair.omega}}
            return call("spectrum_repr.represent_named", dk.represent_named, kind, p, q, **params.get(kind, {}))
        name = query.removesuffix(".far")
        if query == "spectrum_identity":
            return call("spectrum_repr." + name, dk.spectrum_identity, p, q)
        return call("spectrum_repr." + name, getattr(dk, name), p, q, x)

    def check(out, stats):
        if query == "spectrum":
            return _check_spectrum(pair, out)
        if query.startswith("represent_named."):
            err = _rel_err(out, pair.ref[query.split(".")[1]])
            stats.high("spectrum_repr.represent_named.max_rel_err", err)
            return [] if err <= TOL_REPRESENT else [f"spectrum_repr.{query}_error"]
        if query == "spectrum_identity":
            stats.high("spectrum_repr.spectrum_identity.max_abs_err", abs(out - 1.0))
            ref = 1.0
        elif query == "g_big":
            ref = 1.0 - pair.cdf(x) if x >= 0.0 else pair.cdf(x)
        else:
            ref = pair.cdf(x)
        layer = "distributions" if query == "g_big" else "spectrum_repr"
        return [] if abs(out - ref) <= TOL_IDENTITY else [f"{layer}.{query}_error"]

    return Item(query, pair.n, (query, x), run, check)


def _check_spectrum(pair: _Pair, s) -> list:
    bps, cums = s.breakpoints, s.cum_masses
    if len(bps) != len(cums) or not all(a < b for a, b in zip(bps, bps[1:])):
        return ["distributions.spectrum_shape"]
    if abs(cums[-1] - 1.0) > TOL_IDENTITY or s.singular_mass_p or s.singular_mass_q:
        return ["distributions.spectrum_total"]
    for j in (0, len(bps) // 3, len(bps) // 2, len(bps) - 1):
        if abs(cums[j] - pair.cdf(bps[j])) > TOL_IDENTITY:
            return ["distributions.spectrum_cdf"]
    return []


def _direct_large_item(rng: random.Random, n: int) -> Item:
    wp, wq = _weights(rng, n), _weights(rng, n)
    omega = rng.uniform(0.1, 0.9)
    p, q = _normalized(wp), _normalized(wq)
    ref = {
        "kl": math.fsum(pm * math.log(pm / qm) for pm, qm in zip(p, q)),
        "tv": math.fsum(abs(pm - qm) for pm, qm in zip(p, q)),
        "chi2": math.fsum((pm - qm) ** 2 / qm for pm, qm in zip(p, q)),
        "degroot": _degroot_ref(omega, p, q),
    }

    def run(call):
        pd = call("distributions.make_distribution", dk.make_distribution, wp)
        qd = call("distributions.make_distribution", dk.make_distribution, wq)
        return {
            kind: call(
                "divergences.divergence", dk.divergence, kind, pd, qd,
                **({"omega": omega} if kind == "degroot" else {}),
            ).value
            for kind in DIRECT_LARGE_KINDS
        }

    def check(out, stats):
        fails = []
        for kind, value in out.items():
            if value < 0.0:
                fails.append(f"divergences.negative.{kind}")
                stats.count("divergences.negative_results")
            if not _rel_err(value, ref[kind]) <= TOL_DIRECT:
                fails.append(f"divergences.{kind}_error")
        return fails

    return Item("direct", n, (wp, wq, omega), run, check)


def reconstruct_large(seed: int, tiny: bool) -> Iterator[Item]:
    """n=1e4 queries interleaved with n=1e3 visits and n=1e5 direct items,
    in units of ``RECONSTRUCT_UNIT``; one n=1e4 query outweighs the rest of
    its unit, so end-to-end metrics count whole units only."""
    rng = random.Random(seed)
    sizes = {"small": 30, "large": 100, "direct": 1000} if tiny else {
        "small": 1000, "large": 10_000, "direct": 100_000}

    def visits(n, rotate):
        # ``spectrum`` always follows ``make``; a run reaches only the first
        # few n=1e4 queries, so the seed rotates the order of the rest
        while True:
            pair = _Pair(rng, n)
            rest = RECONSTRUCT_QUERIES[1:]
            k = seed % len(rest) if rotate else 0
            yield _make_item(pair)
            for query in RECONSTRUCT_QUERIES[:1] + rest[k:] + rest[:k]:
                yield _query_item(pair, query)

    streams = {"large": visits(sizes["large"], True), "small": visits(sizes["small"], False)}
    last = len(RECONSTRUCT_UNIT) - 1
    while True:
        for k, kind in enumerate(RECONSTRUCT_UNIT):
            item = _direct_large_item(rng, sizes["direct"]) if kind == "direct" else next(streams[kind])
            item.ends_unit = k == last
            yield item


# -- cli-calls --------------------------------------------------------------

CLI_SIZES = (100, 1000)
CLI_DIV_KINDS = ("kl", "tv", "chi2", "hellinger:0.5", "js", "degroot:0.3", "renyi:2", "e_gamma:1.5")
CLI_REPRESENT = (("kl", "named"), ("chi2", "named"), ("tv", "named"), ("js", "named"), ("kl", "general"))
CLI_LOCAL = ("kl", "chi2", "hellinger:0.5", "triangular")
CLI_BOUNDS = (
    ("pinsker_lb_kl", "tv=0.4"),
    ("bh_ub_tv", "kl=0.3"),
    ("egamma_ub_kl", "gamma=2,kl=1"),
    ("straight_line_egamma_ub", "gamma=2,kl=0.5"),
    ("chi2_lb_tv_tight", "tv=1.2"),
    ("crossover_d", "gamma=2"),
)
# (failure code if the call is not refused with exit 2, arguments); the two
# cases the seed program refuses correctly sit apart, so that known failures
# are spread evenly over the rotation
CLI_MALFORMED = (
    ("hellinger_abc", ["div", "--kind", "hellinger:abc", "--p", "{p_json}", "--q", "{q_json}"]),
    ("bad_json", ["div", "--kind", "kl", "--p", "{bad_json}", "--q", "{q_json}"]),
    ("hellinger_nan", ["div", "--kind", "hellinger:nan", "--p", "{p_json}", "--q", "{q_json}"]),
    ("gamma_abc", ["bounds", "--name", "egamma_ub_kl", "--args", "gamma=abc,kl=1"]),
    ("missing_file", ["div", "--kind", "kl", "--p", "{missing}", "--q", "{q_json}"]),
    ("pinsker_kl", ["bounds", "--name", "pinsker_lb_kl", "--args", "kl=1"]),
)
CLI_VALID = (
    "poisson_paper", "poisson_grid", "div", "div", "represent", "represent",
    "spectrum", "local", "bounds", "figure1", "selftest",
)


class CliInputs:
    """Input files for cli-calls, written under ``root`` during set-up."""

    def __init__(self, seed: int, root: str, sizes=CLI_SIZES):
        rng = random.Random(seed)
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.files = {}
        self.weights = {}
        for n in sizes:
            for who in ("p", "q"):
                ws = _weights(rng, n)
                self.weights[(who, n)] = ws
                for fmt in ("json", "csv"):
                    path = os.path.join(root, f"{who}{n}.{fmt}")
                    with open(path, "w", encoding="utf-8") as fh:
                        if fmt == "json":
                            json.dump({"masses": ws}, fh)
                        else:
                            fh.write("\n".join(repr(w) for w in ws) + "\n")
                    self.files[(who, n, fmt)] = path
        self.bad_json = os.path.join(root, "bad.json")
        with open(self.bad_json, "w", encoding="utf-8") as fh:
            fh.write('{"masses": [0.2, 0.3,')
        self.missing = os.path.join(root, "missing.json")
        self.files_by_name = {
            "p_json": self.files[("p", sizes[0], "json")],
            "q_json": self.files[("q", sizes[0], "json")],
            "bad_json": self.bad_json,
            "missing": self.missing,
        }

    def remove(self) -> None:
        for path in list(self.files.values()) + [self.bad_json]:
            if os.path.exists(path):
                os.remove(path)
        if os.path.isdir(self.root) and not os.listdir(self.root):
            os.rmdir(self.root)


def run_cli(args: list, src: str):
    """Run ``python -m divkit.cli`` with the checkout's src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DIVKIT_FORMAT", None)
    return subprocess.run(
        [sys.executable, "-m", "divkit.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def _cli_item(sub: str, args: list, check_out, size: float, src: str) -> Item:
    def run(call):
        return call("cli." + sub, run_cli, args, src)

    def check(proc, stats):
        stats.count(f"cli.exit{proc.returncode}_count")
        return check_out(proc)

    # a cycle of calls ends with its malformed call
    return Item(sub, size, tuple(args), run, check, ends_unit=sub == "malformed")


def _exit0(check_out):
    """Check of a valid call: exit 0, then ``check_out`` on the process."""

    def check(proc):
        return check_out(proc) if proc.returncode == 0 else [f"cli.exit{proc.returncode}"]

    return check


def _json(check_out):
    """Check of a valid call: exit 0, JSON on stdout, then ``check_out`` on it."""

    def check(proc):
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return ["cli.bad_output"]
        return check_out(out)

    return _exit0(check)


def _nonnegative(key):
    def check(out):
        v = float(out[key])
        if math.isnan(v):
            return ["cli.nan_output"]
        return ["cli.negative_output"] if v < 0.0 else []

    return check


def _check_poisson(out):
    exact = float(out["exact_degroot"])
    if math.isnan(exact):
        return ["cli.nan_output"]
    fails = ["cli.exact_negative"] if exact < 0.0 else []
    if any(float(b["slack"]) < TOL_SLACK for b in out["bounds"]):
        fails.append("cli.bound_violated")
    return fails


def _check_represent(out):
    tol = TOL_REPRESENT * max(1.0, abs(float(out["direct_value"])))
    return [] if float(out["abs_diff"]) <= tol else ["cli.represent_error"]


def _check_spectrum_out(out):
    bps = [float(b) for b in out["breakpoints"]]
    ordered = all(a < b for a, b in zip(bps, bps[1:]))
    total = float(out["cum_masses"][-1]) if out["cum_masses"] else math.nan
    return [] if ordered and abs(total - 1.0) <= 1e-11 else ["cli.spectrum_error"]


def _check_local(out):
    target, got = float(out["target"]), float(out["extrapolated"])
    return [] if abs(got - target) <= TOL_LOCAL * abs(target) else ["cli.local_off_target"]


def _check_figure1(proc):
    lines = proc.stdout.splitlines()
    if len(lines) != 1 + 4 * 500:  # header, then the default 4 gammas x 500 steps
        return ["cli.figure1_rows"]
    values = [float(v) for line in lines[1:] for v in line.split(",")]
    return [] if all(v >= 0.0 for v in values) else ["cli.negative_output"]


def _check_selftest(proc):
    return [] if "selftest: 0 failure(s)" in proc.stdout else ["cli.selftest_failed"]


def _refused(code):
    """Check of a malformed call: refused with exit 2 and a message."""

    def check(proc):
        if proc.returncode == 2 and proc.stderr.startswith("divkit:"):
            return []
        return [f"cli.exit{proc.returncode}.{code}"]

    return check


def cli_calls(seed: int, tiny: bool, inputs: CliInputs, src: str) -> Iterator[Item]:
    rng = random.Random(seed + 1)
    sizes = [n for n in CLI_SIZES if not tiny or n <= 100]
    turns: dict[str, int] = {}
    cycle = 0

    def turn(name):
        t = turns.get(name, 0)
        turns[name] = t + 1
        return t

    def pq(n, fmt):
        return ["--p", inputs.files[("p", n, fmt)], "--q", inputs.files[("q", n, fmt)]]

    while True:
        for sub in CLI_VALID:
            n = sizes[turn("size") % len(sizes)]
            fmt = ("json", "csv")[turn("fmt") % 2]
            if sub == "poisson_paper":
                mu, lam, omega = PAPER_EXAMPLE
                args = ["poisson", "--mu", repr(mu), "--lambda", repr(lam), "--omega", repr(omega)]
                yield _cli_item("poisson", args, _json(_check_poisson), max(mu, lam), src)
            elif sub == "poisson_grid":
                t = turn("poisson") % (len(POISSON_RATES) * len(POISSON_OMEGAS))
                rate = min(POISSON_RATES[t % len(POISSON_RATES)], 1e3 if tiny else math.inf)
                omega = POISSON_OMEGAS[t // len(POISSON_RATES)]
                lam, mu = rate, rate * (1.0 + 10.0 ** rng.uniform(-3.0, -1.0))
                args = ["poisson", "--mu", repr(mu), "--lambda", repr(lam), "--omega", repr(omega)]
                yield _cli_item("poisson", args, _json(_check_poisson), max(mu, lam), src)
            elif sub == "div":
                kind = CLI_DIV_KINDS[turn("div") % len(CLI_DIV_KINDS)]
                args = ["div", "--kind", kind, *pq(n, fmt)]
                yield _cli_item("div", args, _json(_nonnegative("value_nats")), n, src)
            elif sub == "represent":
                kind, engine = CLI_REPRESENT[turn("represent") % len(CLI_REPRESENT)]
                rep_n = n if engine == "named" else sizes[0]
                args = ["represent", "--kind", kind, "--engine", engine, *pq(rep_n, fmt)]
                yield _cli_item("represent", args, _json(_check_represent), rep_n, src)
            elif sub == "spectrum":
                yield _cli_item("spectrum", ["spectrum", *pq(n, fmt)], _json(_check_spectrum_out), n, src)
            elif sub == "local":
                spec = CLI_LOCAL[turn("local") % len(CLI_LOCAL)]
                args = ["local", "--f", spec, *pq(n, fmt)]
                yield _cli_item("local", args, _json(_check_local), n, src)
            elif sub == "bounds":
                name, kv = CLI_BOUNDS[turn("bounds") % len(CLI_BOUNDS)]
                args = ["bounds", "--name", name, "--args", kv]
                yield _cli_item("bounds", args, _json(_nonnegative("bound_value")), 1, src)
            elif sub == "figure1":
                yield _cli_item("figure1", ["figure1"], _exit0(_check_figure1), 1, src)
            else:
                yield _cli_item("selftest", ["selftest"], _exit0(_check_selftest), 1, src)

        code, template = CLI_MALFORMED[cycle % len(CLI_MALFORMED)]
        cycle += 1
        args = [a.format(**inputs.files_by_name) for a in template]
        yield _cli_item("malformed", args, _refused(code), 1, src)
