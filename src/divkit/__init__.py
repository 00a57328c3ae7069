"""divkit: f-divergences between finite discrete distributions, their
integral representations via the relative information spectrum, a certified
inequality catalog, Poisson Bayesian hypothesis testing, and local
(chi-squared-like) behavior.

All information quantities are in nats.
"""

from .distributions import (
    DiscreteDistribution,
    SpectrumFunction,
    g_big,
    make_distribution,
    mixture,
    relative_information,
    spectrum,
    spectrum_eval,
)
from .divergences import (
    DivergenceValue,
    degroot_from_egamma,
    divergence,
    f_divergence,
    renyi,
)
from .errors import (
    AbsoluteContinuityError,
    CapabilityError,
    DivkitError,
    DomainError,
    KinkError,
    RangeError,
    RootError,
    UndefinedAtomError,
    UnknownKindError,
    ValidationError,
)
from .generators import (
    GeneratorFunction,
    affine_shift,
    conjugate,
    g_eval,
    generator,
    parse_generator,
)
from .bounds import (
    BoundReport,
    c_gamma,
    chi2_lower_from_tv,
    crossover_d,
    degroot_upper,
    egamma_upper,
    fdiv_lower_via_degroot,
    fdiv_lower_via_egamma,
    hellinger_renyi_lower,
    kl_upper_log_chi2,
    lambert_w,
    make_report,
    pinsker_bh_switch,
    straight_line_egamma_ub,
    tv_kl_frontier,
)
from .bayes_poisson import (
    PoissonModel,
    poisson_bound_report,
    poisson_degroot_exact,
    poisson_degroot_minsum,
    poisson_divergences,
    poisson_k0,
    poisson_pmf,
)
from .local import (
    LocalLimitEstimate,
    chi2_mixture_scaling,
    chi2_mixture_three,
    chis_mixture_scaling,
    local_limit_estimate,
    ratio_limit_pair,
    renyi_local_estimate,
)
from .spectrum_repr import (
    represent_degroot_weight,
    represent_general,
    represent_inverse_g,
    represent_named,
    spectrum_from_degroot,
    spectrum_from_egamma,
    spectrum_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "DiscreteDistribution",
    "SpectrumFunction",
    "make_distribution",
    "relative_information",
    "spectrum",
    "spectrum_eval",
    "g_big",
    "mixture",
    # generators
    "GeneratorFunction",
    "generator",
    "parse_generator",
    "conjugate",
    "affine_shift",
    "g_eval",
    # divergences
    "DivergenceValue",
    "f_divergence",
    "divergence",
    "renyi",
    "degroot_from_egamma",
    # spectrum representations
    "represent_general",
    "represent_inverse_g",
    "represent_named",
    "spectrum_identity",
    "spectrum_from_egamma",
    "spectrum_from_degroot",
    "represent_degroot_weight",
    # bounds
    "BoundReport",
    "lambert_w",
    "c_gamma",
    "straight_line_egamma_ub",
    "fdiv_lower_via_egamma",
    "fdiv_lower_via_degroot",
    "egamma_upper",
    "hellinger_renyi_lower",
    "tv_kl_frontier",
    "degroot_upper",
    "chi2_lower_from_tv",
    "kl_upper_log_chi2",
    "crossover_d",
    "pinsker_bh_switch",
    "make_report",
    # Poisson hypothesis testing
    "PoissonModel",
    "poisson_pmf",
    "poisson_divergences",
    "poisson_k0",
    "poisson_degroot_exact",
    "poisson_degroot_minsum",
    "poisson_bound_report",
    # local behavior
    "LocalLimitEstimate",
    "chi2_mixture_scaling",
    "chis_mixture_scaling",
    "chi2_mixture_three",
    "local_limit_estimate",
    "renyi_local_estimate",
    "ratio_limit_pair",
    # errors
    "DivkitError",
    "ValidationError",
    "DomainError",
    "UndefinedAtomError",
    "KinkError",
    "AbsoluteContinuityError",
    "CapabilityError",
    "RangeError",
    "UnknownKindError",
    "RootError",
]
