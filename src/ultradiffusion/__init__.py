"""Relaxation dynamics on hierarchically organized state spaces.

The library turns event traces (who responded when) into hierarchical
distance matrices, builds the symmetric rate matrix whose hopping rates decay
exponentially in that distance, and solves the resulting linear dynamics in
closed form: eigenvalues, eigenvectors, autocorrelation, survival, and
expected response counts. A fitting layer goes the other way, from observed
saturation curves back to the two model parameters, and baseline models
(memoryless arrivals, self-similar trees with power-law relaxation) provide
the contrast classes. See the command-line entry point `ultradiffusion` for
the batch workflow, and `ultradiffusion.checks` for the pinned self-check
suite.
"""

from .baselines import (
    PoissonModel,
    PowerLawCurve,
    PowerLawModel,
    fit_linear,
    loglog_slope,
    poisson_event_probability,
    poisson_expected,
    poisson_pmf,
    power_law_curve,
)
from .checks import CheckResult, run_all
from .fitting import (
    ExponentialFit,
    FitError,
    UltradiffusionParams,
    decay_rate,
    exponential_model,
    fit_exponential,
    infer_params,
    r_squared,
    sample_events,
    simulate_curve,
)
from .generator import Generator, build_generator, check_rate_ultrametricity
from .oracle import ProbabilityVector, integrate_master_equation, numeric_spectrum
from .spectral import (
    ChainSpectrum,
    TreeModel,
    autocorrelation_chain,
    caterpillar_tree,
    chain_spectrum,
    expected_rebroadcasts,
    space_from_tree,
    survival_probability,
    tree_autocorrelation,
)
from .traces import (
    EventTrace,
    PopularityCurve,
    TraceFormatError,
    aggregate_mean,
    empirical_curve,
    parse_trace_csv,
    uniform_grid,
)
from .ultrametric import (
    TripleReport,
    UltrametricSpace,
    build_from_trace,
    rescale_distances,
    uniform_chain,
    verify_ultrametric,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpectrum",
    "CheckResult",
    "EventTrace",
    "ExponentialFit",
    "FitError",
    "Generator",
    "PoissonModel",
    "PopularityCurve",
    "PowerLawCurve",
    "PowerLawModel",
    "ProbabilityVector",
    "TraceFormatError",
    "TreeModel",
    "TripleReport",
    "UltradiffusionParams",
    "UltrametricSpace",
    "__version__",
    "aggregate_mean",
    "autocorrelation_chain",
    "build_from_trace",
    "build_generator",
    "caterpillar_tree",
    "chain_spectrum",
    "check_rate_ultrametricity",
    "decay_rate",
    "empirical_curve",
    "expected_rebroadcasts",
    "exponential_model",
    "fit_exponential",
    "fit_linear",
    "infer_params",
    "integrate_master_equation",
    "loglog_slope",
    "numeric_spectrum",
    "parse_trace_csv",
    "poisson_event_probability",
    "poisson_expected",
    "poisson_pmf",
    "power_law_curve",
    "r_squared",
    "rescale_distances",
    "run_all",
    "sample_events",
    "simulate_curve",
    "space_from_tree",
    "survival_probability",
    "tree_autocorrelation",
    "uniform_chain",
    "uniform_grid",
    "verify_ultrametric",
]
