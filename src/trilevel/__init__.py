"""Trilevel stochastic-gradient optimization.

A three-level nested stochastic gradient method with interchangeable
adjoint-gradient backends (dense reference, CG + finite differences,
truncated Neumann series), synthetic benchmark problems with closed-form
solutions, an adversarial hyperparameter-tuning problem on tabular data,
independent finite-difference referees, and a CSV-emitting experiment
runner.
"""

from .adjoint import (
    AdjointConfig,
    auto_scale_bilevel,
    auto_scales,
    bilevel_adjoint_gradient,
    ml_adjoint_gradient,
    neumann_inverse_apply,
    ul_adjoint_gradient,
)
from .driver import (
    BudgetState,
    Decaying,
    DeterministicSamples,
    IterationBudget,
    MinibatchSamples,
    NoiseSamples,
    NonFiniteError,
    RunTrace,
    TheoremConstant,
    TraceRecord,
    adaptive_update,
    ll_sg,
    ml_bsg,
    run_bsg,
    run_tsg,
)
from .linalg import (
    CgReport,
    SingularMatrixError,
    cg_solve,
    solve_dense,
    tensor_contract_vec,
)
from .oracle import (
    DETERMINISTIC,
    Deterministic,
    MinibatchIndices,
    NoiseDraw,
    OracleCapabilities,
    Point,
    ProblemOracle,
    fd_hvp,
    wrap_gaussian_noise,
)
from .synthetic import (
    LyapunovDiag,
    QuadraticSpec,
    QuarticSpec,
    closed_form_y,
    closed_form_z,
    default_init_point,
    default_quadratic,
    default_quartic,
    lyapunov_diag,
    make_oracle,
    reduced_gradient,
    reduced_minimizer,
    reduced_objective,
)
from .verify import engine_agreement_report, fd_grad_f

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
