"""Spectral solver and a-posteriori verifier for invariant tori.

The package computes invariant tori of Hamiltonian flows by a Newton
iteration on the embedding's Fourier coefficients, certifies frequency
vectors by finite-horizon Diophantine scans, and extends the solver to
finitely differentiable Hamiltonians through analytic smoothing (de la
Vallee-Poussin means V_N on every axis of the cut-off rough part) with a
quantified approximation ladder.
"""

from .cohomology import CohomologySolution, DivisorReport, solve_cohomological
from .diophantine import (
    DiophantineReport,
    FrequencyVector,
    check_diophantine,
    estimate_gamma,
)
from .driver import (
    DEFAULT_LAMBDA,
    KamSchedule,
    RunParams,
    RunResult,
    check_conditions,
    eval_lambda,
    lemma4_check,
    run_scheme,
    select_k0,
)
from .fourier import (
    FourierMap,
    StripNormEstimate,
    TorusEmbedding,
    analyze,
)
from .hamiltonian import (
    Box,
    BSplineProfile,
    CompositeHamiltonian,
    HamiltonianModel,
    RoughTerm,
    SinPowerProfile,
    SumModel,
    symplectic_matrix,
)
from .smoothing import (
    BernsteinApproximant,
    CutoffHamiltonian,
    PlateauBump,
    SmoothingSequence,
    bernstein_1d,
    bernstein_derivative,
    bernstein_nd,
    bernstein_tensor,
    build_smoothing_sequence,
    cl_gap,
    cl_norm,
    cutoff_extend,
)
from .solver import (
    ErrorField,
    Iterate,
    NondegeneracyData,
    SolveResult,
    StepDiagnostics,
    flow,
    invariance_error,
    newton_step,
    nondegeneracy,
    solve_torus,
)

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "bernstein_1d",
    "bernstein_derivative",
    "bernstein_nd",
    "bernstein_tensor",
    "build_smoothing_sequence",
    "check_conditions",
    "check_diophantine",
    "cl_gap",
    "cl_norm",
    "cutoff_extend",
    "estimate_gamma",
    "eval_lambda",
    "flow",
    "invariance_error",
    "lemma4_check",
    "newton_step",
    "nondegeneracy",
    "run_scheme",
    "select_k0",
    "solve_cohomological",
    "solve_torus",
    "symplectic_matrix",
    "BernsteinApproximant",
    "Box",
    "BSplineProfile",
    "CohomologySolution",
    "CompositeHamiltonian",
    "CutoffHamiltonian",
    "DEFAULT_LAMBDA",
    "DiophantineReport",
    "DivisorReport",
    "ErrorField",
    "FourierMap",
    "FrequencyVector",
    "HamiltonianModel",
    "Iterate",
    "KamSchedule",
    "NondegeneracyData",
    "PlateauBump",
    "RoughTerm",
    "RunParams",
    "RunResult",
    "SinPowerProfile",
    "SmoothingSequence",
    "SolveResult",
    "StepDiagnostics",
    "StripNormEstimate",
    "SumModel",
    "TorusEmbedding",
]
