"""modelkit: composable statistical models with automatic element fill-in.

A model bundles a data space, a parameter space, and four mappings --
likelihood, estimator, sampler, CDF -- any of which may be omitted and
derived from the others.  Transforms (fix, cross, mix, truncate, jacobian,
swap, the three compositions) build new models out of old ones, and every
derived model still estimates, samples, and integrates through the same
interface.
"""

from .data import (DataSet, KdeSettings, McmcSettings, MleSettings,
                   ModelError, Params, RandomStream, StackedParams,
                   UnresolvableElementError)
from .model import (FittedModel, Model, cdf, check_ml_consistency, draw,
                    estimate, log_likelihood, row_log_likelihood, stackable)
from .distributions import (beta_model, builtin, exponential_model,
                            mvn_model, normal_model, ols_model, pmf_model,
                            poisson_model, uniform_model, weibull_model)
from .transforms import (cross, d_compose, dp_compose, fix, jacobian, mix,
                         mix_cdf, pd_compose, posterior_draws, swap, truncate)
from .inference import (CovarianceEstimate, bin_to_pmf, bootstrap_cov,
                        entropy, fisher_info_cov, jackknife_cov, kl_divergence,
                        ks_stat, predict, replication_cov, rmse)
from .sims import (DemandConfig, NetworkSimConfig, SearchConfig, demand_model,
                   fuzz_weibull_posterior, network_sim_model, search_model)
from .expr import (ExprError, eval_model_expr, parse_model_expr,
                   print_model_expr)

__version__ = "0.1.0"

__all__ = [
    "DataSet", "Params", "StackedParams", "RandomStream", "ModelError",
    "UnresolvableElementError", "MleSettings", "McmcSettings", "KdeSettings",
    "Model", "FittedModel", "estimate", "draw", "cdf", "log_likelihood",
    "row_log_likelihood", "check_ml_consistency", "stackable",
    "normal_model", "mvn_model", "pmf_model", "ols_model", "weibull_model",
    "exponential_model", "poisson_model", "beta_model", "uniform_model",
    "builtin",
    "fix", "cross", "mix", "mix_cdf", "truncate", "jacobian", "swap",
    "d_compose", "dp_compose", "pd_compose", "posterior_draws",
    "CovarianceEstimate", "predict", "bootstrap_cov", "jackknife_cov",
    "replication_cov", "fisher_info_cov", "bin_to_pmf", "ks_stat",
    "kl_divergence", "rmse", "entropy",
    "NetworkSimConfig", "DemandConfig", "SearchConfig", "network_sim_model",
    "demand_model", "search_model", "fuzz_weibull_posterior",
    "ExprError", "parse_model_expr", "print_model_expr", "eval_model_expr",
    "__version__",
]
