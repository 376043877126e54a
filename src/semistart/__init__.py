"""Semiparametric density estimation: parametric start times kernel correction."""

from .bandwidth import (BandwidthChoice, amise_h, bcv, h_oversmoothed,
                        plugin_roughness, rule_delta, rule_gamma, rule_plugin, select, ucv)
from .densities import (L1Report, NormalMixture, RoughnessReport, bias_factors,
                        l1_measures, marron_wand, mixture_from_json, mixture_moments,
                        mixture_pdf, mixture_sample, roughness)
from .estimator import (CorrectionCurve, DensityEstimate, correction_curve,
                        estimate_kernel, estimate_semiparametric, integral_of_estimate)
from .exact_mise import (MiseDomainError, MiseReport, benchmark_table, h_domain_cap,
                         mise_kernel, mise_new, optimal_h, r_f, reports_to_csv)
from .hermite import (HermiteCoeffs, classic_coeffs, hermite_poly, robust_coeffs,
                      roughness_from_coeffs)
from .kernels import KernelSpec, eval_scaled, kernel_props
from .multivariate import MvEstimate, mv_bandwidth, mv_estimate, sphere
from .regression import MeanStart, RegressionFit, fit_mean_start, gnw_estimate, nw_estimate
from .starts import FittedStart, em_fit_mixture, eval_start, fit_start

__version__ = "0.1.0"
