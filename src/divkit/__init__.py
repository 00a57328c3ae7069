"""divkit: f-divergences between finite discrete distributions, their
integral representations via the relative information spectrum, a certified
inequality catalog, Poisson Bayesian hypothesis testing, and local
(chi-squared-like) behavior.

All information quantities are in nats.

``import divkit`` loads no submodule: each export below loads its module on
first access (PEP 562) and is then an ordinary attribute of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "distributions": "DiscreteDistribution SpectrumFunction make_distribution "
        "relative_information spectrum spectrum_eval g_big mixture",
        "generators": "GeneratorFunction generator parse_generator conjugate "
        "affine_shift g_eval",
        "divergences": "DivergenceValue f_divergence divergence renyi degroot_from_egamma",
        "spectrum_repr": "represent_general represent_inverse_g represent_named "
        "spectrum_identity spectrum_from_egamma spectrum_from_degroot "
        "represent_degroot_weight",
        "bounds": "BoundReport lambert_w c_gamma straight_line_egamma_ub "
        "fdiv_lower_via_egamma fdiv_lower_via_degroot egamma_upper "
        "hellinger_renyi_lower tv_kl_frontier degroot_upper chi2_lower_from_tv "
        "kl_upper_log_chi2 crossover_d pinsker_bh_switch make_report",
        "bayes_poisson": "PoissonModel poisson_pmf poisson_divergences poisson_k0 "
        "poisson_degroot_exact poisson_bound_report",
        "local": "LocalLimitEstimate chi2_mixture_scaling chis_mixture_scaling "
        "chi2_mixture_three local_limit_estimate renyi_local_estimate ratio_limit_pair",
        "errors": "DivkitError ValidationError DomainError UndefinedAtomError "
        "AbsoluteContinuityError CapabilityError UnknownKindError RootError",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    # later lookups find it here and no longer call this function
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
