"""Finite-grid Gaussian white-noise calculus.

Chaos expansions over a uniform time grid with the full operator toolbox:
stochastic derivative, Skorohod integral, Wick and pointwise products,
exponential-vector transform, Volterra kernel action, and the volatility
modulated stochastic integrals built from them, plus a Monte Carlo
evaluation layer for independent cross-checks.
"""

from .chaos import (
    ChaosProcess,
    ChaosVector,
    gnorm,
    linear_combine,
    pairing,
    truncate,
)
from .errors import (
    IndependenceError,
    IntegrabilityError,
    RepresentationLimitError,
    StabilityLawError,
    TruncationOverflowError,
)
from .grid import GridSpec, make_grid
from .kernels import LayeredKernel, SymKernel, TimeSlotSymKernel, inner_product, sym_store
from .montecarlo import NoiseVector, evaluate, ito_oracle, mc_moments, sample_noise
from .operators import (
    IndependenceSupportReport,
    TestFunctionXi,
    derivative_at,
    derivative_process,
    pettis_time_integral,
    pointwise,
    s_transform,
    s_transform_frechet,
    skorohod,
    strongly_independent,
    wick,
)
from .volterra import (
    AssumptionReport,
    FbmKernel,
    MeasureWeights,
    OuKernel,
    TableKernel,
    TurbulenceKernel,
    VolterraKernel,
    assumption_report,
    kernel_eval,
    kernel_from_config,
    kernel_measure,
    kg_apply,
)
from .vmbv import (
    VmbvResult,
    chaos_formula_oracle,
    integrate_plain,
    integrate_sigma,
    integrate_strongind,
    integrate_wick,
    s_transform_oracle,
    stability_suite,
)
from .donsker import (
    DonskerSpec,
    donsker_delta,
    donsker_norm_series,
    donsker_process,
    donsker_vmbv_experiment,
)

__all__ = [
    "ChaosProcess",
    "ChaosVector",
    "GridSpec",
    "SymKernel",
    "LayeredKernel",
    "TimeSlotSymKernel",
    "TestFunctionXi",
    "IndependenceSupportReport",
    "NoiseVector",
    "VolterraKernel",
    "OuKernel",
    "TurbulenceKernel",
    "FbmKernel",
    "TableKernel",
    "MeasureWeights",
    "AssumptionReport",
    "VmbvResult",
    "DonskerSpec",
    "IntegrabilityError",
    "IndependenceError",
    "TruncationOverflowError",
    "RepresentationLimitError",
    "StabilityLawError",
    "make_grid",
    "sym_store",
    "inner_product",
    "gnorm",
    "pairing",
    "truncate",
    "linear_combine",
    "derivative_at",
    "derivative_process",
    "skorohod",
    "wick",
    "pointwise",
    "s_transform",
    "s_transform_frechet",
    "pettis_time_integral",
    "strongly_independent",
    "kernel_eval",
    "kernel_measure",
    "kernel_from_config",
    "kg_apply",
    "assumption_report",
    "integrate_plain",
    "integrate_sigma",
    "integrate_wick",
    "integrate_strongind",
    "chaos_formula_oracle",
    "s_transform_oracle",
    "stability_suite",
    "donsker_delta",
    "donsker_norm_series",
    "donsker_process",
    "donsker_vmbv_experiment",
    "sample_noise",
    "evaluate",
    "ito_oracle",
    "mc_moments",
]

__version__ = "0.1.0"
