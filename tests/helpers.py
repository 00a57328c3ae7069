"""Shared test helpers: seeded random distribution pairs and oracles."""

from __future__ import annotations

import math

import numpy as np

from divkit import DiscreteDistribution, make_distribution


def random_pair(
    rng: np.random.Generator, n: int, low: float = 0.01
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Fully supported pair on n atoms; normalized masses stay >= low/n."""
    w1 = rng.uniform(low, 1.0, size=n)
    w2 = rng.uniform(low, 1.0, size=n)
    return make_distribution(w1.tolist()), make_distribution(w2.tolist())


def random_triple(rng: np.random.Generator, n: int):
    p, q = random_pair(rng, n)
    (r,) = (make_distribution(rng.uniform(0.01, 1.0, size=n).tolist()),)
    return p, q, r


def brute_force_e_gamma(
    p: DiscreteDistribution, q: DiscreteDistribution, gamma: float
) -> float:
    """Set-maximization oracle: max over all subsets of P(U) - gamma Q(U)."""
    n = len(p)
    best = 0.0
    for mask in range(1 << n):
        terms = [
            p.masses[i] - gamma * q.masses[i] for i in range(n) if mask & (1 << i)
        ]
        val = math.fsum(terms)
        if val > best:
            best = val
    return best


def prefix_fsum_cum_masses(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> tuple[float, ...]:
    """Reference spectrum CDF: fsum over the whole P-mass prefix at every
    breakpoint, ties merged on bit-equal log-ratios (quadratic in n)."""
    groups: dict[float, list[float]] = {}
    for pm, qm in zip(p.masses, q.masses):
        if pm > 0.0 and qm > 0.0:
            groups.setdefault(math.log(pm) - math.log(qm), []).append(pm)
    seen: list[float] = []
    cums = []
    for x in sorted(groups):
        seen.extend(groups[x])
        cums.append(math.fsum(seen))
    return tuple(cums)


def assert_close(actual: float, expected: float, tol: float, label: str = "") -> None:
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} vs expected {expected!r} (tol {tol})"
    )
