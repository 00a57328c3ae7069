"""Every divergence kind against a 40-digit mpmath oracle on seeded pairs.

The oracle works from the stored float masses and the textbook generator
of each family, independently of the shifted terms the package sums.  It
takes every sum in the shift-invariant form sum q f(p/q) - c (sum P - sum Q),
c a subgradient of f at 1, which is the divergence the package computes: on
stored masses, which sum to 1 only to rounding, the two forms differ by a
rounding-sized amount that would swamp the ~1e-18 value of a near-equal
pair.
"""

from __future__ import annotations

import math
import random

import mpmath
import pytest

from divkit import (
    DiscreteDistribution,
    GeneratorFunction,
    affine_shift,
    divergence,
    f_divergence,
    generator,
    local_limit_estimate,
    make_distribution,
)
from divkit.generators import KINDS
from helpers import ORACLE_KINDS, mp_family

mp = mpmath.mp
INF = mpmath.inf

REL_TOL = 1e-10


def _oracle_sum(family: str, a, ps, qs):
    f, f0, fs0, c = mp_family(family, a)
    total = mpmath.mpf(0)
    for pm, qm in zip(ps, qs):
        p, q = mpmath.mpf(pm), mpmath.mpf(qm)
        if p > 0 and q > 0:
            total += q * f(p / q) - c * (p - q)
        elif q > 0:
            total += q * (f0 + c)
        elif p > 0:
            total += p * (fs0 - c)
    return total


def oracle(kind: str, params: dict, ps, qs):
    """The kind's value in 40-digit arithmetic from the stored masses."""
    with mp.workdps(40):
        if kind in ("hellinger", "alpha", "renyi", "sq_hellinger", "bhattacharyya"):
            a = params.get("alpha", 0.5)
            h = _oracle_sum("kl" if a == 1.0 else "hellinger", a, ps, qs)
            if kind == "hellinger":
                return h
            if kind == "sq_hellinger":
                return h / 2
            if kind == "alpha":
                return h / a
            if a == 1.0 or h == INF:
                return h
            # ln S, S = sum q (p/q)^a: from the masses where S < 1/2, which
            # makes it -inf exactly on disjoint supports; elsewhere from
            # 1 + (a - 1) h, which keeps the S - 1 of a near-equal pair that
            # the masses' rounding would swamp
            s = mpmath.fsum(
                q * (p / q) ** a
                for p, q in zip(map(mpmath.mpf, ps), map(mpmath.mpf, qs))
                if p > 0 and q > 0
            )
            if s < 0.5:
                log_s = mpmath.log(s) if s > 0 else -INF
            else:
                log_s = mpmath.log(1 + (a - 1) * h)
            value = log_s / (a - 1)
            return value / 2 if kind == "bhattacharyya" else value  # B = D_1/2 / 2
        family, pname = KINDS[kind]
        return _oracle_sum(family, params.get(pname) if pname else None, ps, qs)


def _weights(rng: random.Random, n: int) -> list[float]:
    return [10.0 ** rng.uniform(-3.0, 0.0) for _ in range(n)]


def _pairs(seed: int):
    """Seeded pairs, n 2-64: plain pairs, near-equal mixtures
    lam P + (1-lam) Q against Q with lam 1e-9 to 1e-2, pairs with masses
    down to 1e-300 (and a few zeros) on either side, and pairs on disjoint
    supports."""
    rng = random.Random(seed)
    pairs = []
    for i in range(90):
        n = rng.randint(2, 64)
        wp, wq = _weights(rng, n), _weights(rng, n)
        case = i % 3
        if case == 1:
            p, q = make_distribution(wp), make_distribution(wq)
            lam = 10.0 ** rng.uniform(-9.0, -2.0)
            wp = [lam * pm + (1.0 - lam) * qm for pm, qm in zip(p.masses, q.masses)]
            wq = list(q.masses)
        elif case == 2:
            for w in (wp, wq):
                for j in rng.sample(range(n), rng.randint(1, max(1, n // 3))):
                    w[j] = 10.0 ** rng.uniform(-300.0, -20.0) if rng.random() < 0.9 else 0.0
        if sum(wp) > 0.0 and sum(wq) > 0.0:
            pairs.append((make_distribution(wp), make_distribution(wq)))
    for _ in range(6):  # disjoint supports
        n = rng.randint(2, 64)
        cut = rng.randint(1, n - 1)
        w = _weights(rng, n)
        p = make_distribution(w[:cut] + [0.0] * (n - cut))
        pairs.append((p, make_distribution([0.0] * cut + w[cut:])))
    return pairs


PAIRS = _pairs(1009)


def _agrees(value: float, expected) -> bool:
    """Within REL_TOL of the oracle, which may pass the float range; the
    1e-30 floor sits far below the ~1e-20 least value of a near-equal pair
    here and far above the oracle's own 40-digit rounding of an exact 0."""
    if float(expected) == math.inf:
        return value == math.inf
    return abs(mpmath.mpf(value) - expected) <= REL_TOL * abs(expected) + 1e-30


def _generator_for(kind: str, params: dict) -> GeneratorFunction | None:
    family, pname = KINDS[kind]
    if family is None or (kind == "hellinger" and params["alpha"] == 1.0):
        return None
    return generator(family, **({pname: params[pname]} if pname else {}))


@pytest.mark.parametrize(
    "kind,params",
    ORACLE_KINDS,
    ids=[k + "".join(f"-{v:g}" for v in p.values()) for k, p in ORACLE_KINDS],
)
def test_agrees_with_oracle(kind, params):
    f = _generator_for(kind, params)
    misses, negatives = [], []
    for p, q in PAIRS:
        expected = oracle(kind, params, p.masses, q.masses)
        got = divergence(kind, p, q, **params).value
        values = [got]
        if f is not None:
            # on the same records f_divergence would read the sum that
            # divergence() left in the pair slot; fresh copies take it anew
            fresh = DiscreteDistribution(p.masses), DiscreteDistribution(q.masses)
            values += [f_divergence(f, p, q).value, f_divergence(f, *fresh).value]
        for value in values:
            if value < 0.0:
                negatives.append((value, p.masses, q.masses))
            if not _agrees(value, expected):
                misses.append((value, float(expected), p.masses, q.masses))
    assert not negatives, negatives[:2]
    assert not misses, (len(misses), misses[:2])


def test_every_kind_has_an_oracle_case():
    assert {kind for kind, _ in ORACLE_KINDS} == set(KINDS)


def test_pairs_reach_every_case():
    near = [p for p, q in PAIRS if max(abs(a - b) for a, b in zip(p.masses, q.masses)) < 1e-2]
    tiny = [p for p, q in PAIRS if min(p.masses + q.masses) < 1e-200]
    assert len(near) >= 25 and len(tiny) >= 20


def test_kl_local_limit_on_near_equal_pairs():
    # the mixture path of a pair that is itself near-equal, where D(lam) is
    # as small as lam^2 1e-18, far below the rounding of the mixture's masses
    rng = random.Random(1013)
    f = generator("kl")
    misses = 0
    for _ in range(300):
        n = rng.randint(2, 64)
        p0, q = make_distribution(_weights(rng, n)), make_distribution(_weights(rng, n))
        lam = 10.0 ** rng.uniform(-9.0, -2.0)
        p = make_distribution(
            [lam * pm + (1.0 - lam) * qm for pm, qm in zip(p0.masses, q.masses)]
        )
        est = local_limit_estimate(f, p, q)
        if not abs(est.extrapolated - est.target) <= 1e-4 * abs(est.target):
            misses += 1
    assert misses == 0


def test_sweep_builds_no_generator(monkeypatch):
    built = [0]
    init = GeneratorFunction.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GeneratorFunction, "__init__", counting_init)
    affine_shift(generator("kl"), 1.0)
    assert built[0] == 1  # the counter sees every construction
    built[0] = 0
    p, q = PAIRS[0]
    for kind, params in ORACLE_KINDS:
        divergence(kind, p, q, **params)
    assert built[0] == 0
