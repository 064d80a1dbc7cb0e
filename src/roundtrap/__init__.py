"""roundtrap: a laboratory for watching round-off error break the classical
convergence of stable, consistent difference schemes.

A conservative linear oscillator is integrated under emulated
reduced-precision arithmetic; comparing against a wide-precision reference
of the same scheme and step size splits the total error into truncation and
round-off parts, locates the optimal step size, and measures the effective
computation time.
"""

__version__ = "0.1.0"

from .fpcore import (
    DOUBLE,
    QUAD,
    SINGLE,
    ParameterError,
    PrecisionConfig,
    RValue,
    op_add,
    op_div,
    op_mul,
    op_sqrt,
    op_sub,
    round_to,
)
from .oscillator import (
    INITIAL_STATE,
    OscillatorParams,
    State,
    analytic_solution,
    invariant_value,
    rhs,
)
from .schemes import (
    SamplingPlan,
    Scheme,
    StepLimitError,
    Trajectory,
    UpdateMatrix,
    integrate,
    integrate_pair,
    num_steps,
    step,
    update_matrix,
)
from .analysis import (
    BoundMode,
    ErrorBoundModel,
    ErrorTriple,
    ErrorVec,
    SpectralInfo,
    consistency_residual,
    conservation_drift,
    effective_computation_time,
    error_separation,
    optimal_step_size,
    predict_error_bound,
    spectral_analysis,
)
from .experiments import (
    DESK_DT_LIST,
    SweepConfig,
    SweepRecord,
    TimeSeriesRecord,
    longtime_run,
    stepsize_sweep,
)

__all__ = [
    "__version__",
    "ParameterError", "PrecisionConfig", "RValue", "SINGLE", "DOUBLE", "QUAD",
    "round_to", "op_add", "op_sub", "op_mul", "op_div", "op_sqrt",
    "OscillatorParams", "State", "INITIAL_STATE", "rhs", "analytic_solution", "invariant_value",
    "Scheme", "SamplingPlan", "Trajectory", "UpdateMatrix", "StepLimitError",
    "step", "update_matrix",
    "integrate", "integrate_pair", "num_steps",
    "ErrorVec", "ErrorTriple", "ErrorBoundModel", "BoundMode", "SpectralInfo",
    "error_separation", "consistency_residual", "predict_error_bound",
    "spectral_analysis", "effective_computation_time", "optimal_step_size",
    "conservation_drift",
    "SweepConfig", "SweepRecord", "TimeSeriesRecord", "DESK_DT_LIST",
    "stepsize_sweep", "longtime_run",
]
