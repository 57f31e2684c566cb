"""Relaxation dynamics on hierarchically organized state spaces.

The library turns event traces (who responded when) into hierarchical
distance matrices, builds the symmetric rate matrix whose hopping rates decay
exponentially in that distance, and solves the resulting linear dynamics in
closed form: eigenvalues, eigenvectors, autocorrelation and survival. A
fitting layer goes the other way, from observed saturation curves back to
the two model parameters, and baseline models (memoryless arrivals,
self-similar trees with power-law relaxation) provide the contrast classes. Each public name is imported from its module, such as
`ultradiffusion.traces.parse_trace_csv`; the package root exports only
`__version__`. See the command-line entry point `ultradiffusion` for the
batch workflow, and `ultradiffusion.checks` for the pinned self-check suite.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
