"""gradkick: a quantum gradient-estimation simulator and its verification lab.

The estimator reads a p-dimensional objective through a quantized oracle
exactly twice (once forward, once inverted) and returns a state whose
measurement decodes to the gradient at x. The package simulates that
pipeline sparsely, plans parameters from accuracy targets, and audits the
success guarantee numerically.
"""

from .algorithm import decode_gradient, run_pipeline
from .analysis import (AccuracySpec, ErrorDecomposition, InequalityReport,
                       LeakageReport, TheoremReport, check_inequalities,
                       classical_baseline, decompose_state, leakage_check,
                       select_parameters, success_projection, verify_theorem)
from .models import (DomainBox, FunctionModel, linear_model, quadratic_model,
                     sinusoidal_model)
from .oracle import FixedPointFormat
from .params import AlgorithmParams
from .states import GridState

__version__ = "0.1.0"

# The README's Library section: its functions, the types they take or
# return, and the version. Everything else is imported from its submodule.
__all__ = [
    "AccuracySpec",
    "AlgorithmParams",
    "DomainBox",
    "ErrorDecomposition",
    "FixedPointFormat",
    "FunctionModel",
    "GridState",
    "InequalityReport",
    "LeakageReport",
    "TheoremReport",
    "__version__",
    "check_inequalities",
    "classical_baseline",
    "decode_gradient",
    "decompose_state",
    "leakage_check",
    "linear_model",
    "quadratic_model",
    "run_pipeline",
    "select_parameters",
    "sinusoidal_model",
    "success_projection",
    "verify_theorem",
]
