"""Closed-form links between protocol and physical interference models
in Poisson wireless networks, with an independent Monte Carlo validator.
"""

from .correlation import (chi_star, chi_star_from_coeff,
                          chi_star_low_density_limit, rho, rho_curve)
from .multi_obs import (AlohaParams, DecisionRuleTable, enumerate_rules,
                        f_d, p_K, p_d_given_K, p_h_given_K,
                        posterior_given_K_d, rule_errors)
from .nofading import (IltConvergenceError, levy_prior, posterior_nofade,
                       rho_nofade)
from .params import ModelParams, chi_of_radius, derive, load_scenario, radius_of_chi
from .risk import (CostMatrix, bayes_risk, operating_points, optimal_radius,
                   roc_curve, sensitivities, type_errors)
from .single_obs import (abc_terms, evidence_success, posterior,
                         prior_success)

__version__ = "1.0.0"

__all__ = [
    "AlohaParams", "CostMatrix", "DecisionRuleTable", "IltConvergenceError",
    "ModelParams", "abc_terms",
    "bayes_risk", "chi_of_radius", "chi_star", "chi_star_from_coeff",
    "chi_star_low_density_limit", "derive", "enumerate_rules",
    "evidence_success", "f_d", "levy_prior", "load_scenario",
    "operating_points", "optimal_radius", "p_K", "p_d_given_K",
    "p_h_given_K", "posterior", "posterior_given_K_d", "posterior_nofade",
    "prior_success", "radius_of_chi", "rho", "rho_curve", "rho_nofade",
    "roc_curve", "rule_errors", "sensitivities", "type_errors",
    "__version__",
]
