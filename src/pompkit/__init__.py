"""pomp-kit: simulation-based inference for partially observed Markov processes.

Build a model from plain vectorized callbacks (or pick a built-in), then run
any of the plug-and-play methods against it: particle filtering, iterated
filtering, particle MCMC, synthetic likelihood and probe matching, ABC-MCMC,
or nonlinear-forecasting quasi-likelihood.  An exact Kalman oracle for the
log-linear Gompertz model makes the Monte Carlo output verifiable.
"""

from .core import (
    CovariateTable,
    ModelSpec,
    ParamVector,
    SimulationRecord,
    TimeSeriesData,
    attach_data,
    discrete_time_process,
    euler_process,
    log_exp_transforms,
    simulate,
    simulate_paths,
    transform_params,
)
from .distributions import (
    deulermultinom,
    dlnorm,
    dnbinom_mu,
    dpois,
    reulermultinom,
    rnbinom_mu,
)
from .exceptions import (
    ConfigError,
    DomainError,
    FilteringFailureError,
    ModelComponentError,
    PompKitError,
    SimulationDivergedError,
    SingularCovarianceError,
    TransformDomainError,
)
from .mif import MifResult, MifSettings, mif, perturbation_sd
from .models import (
    BUILTIN_MODELS,
    build_model,
    gompertz_model,
    ricker_model,
    sir_model,
    sir_seasonal_model,
)
from .nlf import NlfSettings, nlf_fit, nlf_quasi_loglik, rbf_centers
from .oracle import (
    LinearGaussianSSM,
    gompertz_ssm,
    kalman_exact_mle,
    kalman_loglik,
    nelder_mead,
)
from .pmcmc import (
    Chain,
    Proposal,
    effective_sample_size,
    mvn_diag_rw,
    pmcmc,
    uniform_box_prior,
)
from .probes import (
    Probe,
    ProbeResult,
    probe,
    probe_acf,
    probe_marginal,
    probe_match,
    probe_mean,
    probe_nlar,
    synth_loglik,
)
from .smc import FilterResult, ess, logmeanexp, pfilter, systematic_resample
from .abc import AbcSettings, abc, compute_probe_scales
from .rng import child_seeds, stream

__version__ = "0.1.0"
