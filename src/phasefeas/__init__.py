"""Phase retrieval by semidefinite feasibility.

Recovers a vector from phaseless quadratic measurements |<x, z_i>|^2 by
finding a positive semidefinite matrix consistent with the lifted linear
measurements; no objective is minimized.  The package provides the lifted
measurement operators, the two projectors, Douglas-Rachford / alternating /
accelerated-gradient solvers, a dual-certificate verifier, and a
reproducible experiment harness with a CLI.
"""

from .certificate import (
    CertificateParams,
    CertificateReport,
    build_certificate,
    check_certificate,
)
from .harness import (
    GridResult,
    GridSpec,
    TrialRow,
    cell_means,
    emit_heatmap,
    run_certify_study,
    run_convergence_study,
    run_grid,
    run_trial,
    sample_unit_sphere,
    write_grid_csv,
)
from .linalg import (
    COMPLEX,
    REAL,
    eig,
    hermitize,
    hs_inner,
    project_T,
    project_Tperp,
    schatten_norm,
)
from .projections import (
    AffineProjector,
    build_affine_projector,
    leading_eigenvector,
    project_affine,
    project_psd,
    recovery_error,
    vector_error_up_to_phase,
)
from .sensing import (
    MeasurementVector,
    SensingEnsemble,
    add_noise,
    apply_adjoint,
    apply_lifted,
    apply_lifted_factor,
    derive_seed,
    measure,
    s_apply,
    s_inverse,
    sample_ensemble,
)
from .solvers import (
    SolverConfig,
    SolverTrace,
    TracePoint,
    round_to_vector,
    solve,
    solve_dr,
    solve_nesterov,
    solve_pocs,
    write_trace_csv,
)

__version__ = "0.1.0"
