"""Liouvillian reconstruction for d-level open quantum systems.

The package covers the full desk-scale pipeline: operator bases and Bloch
vectorization (:mod:`liouvlab.basis`), superoperator construction
(:mod:`liouvlab.superop`), propagation and generator extraction
(:mod:`liouvlab.dynamics`), linear-inversion process tomography
(:mod:`liouvlab.tomography`), direct and maximum-likelihood model fitting
with bootstrap uncertainties (:mod:`liouvlab.estimation`), a synthetic
experiment generator (:mod:`liouvlab.synthlab`), and a reproducible CLI
(:mod:`liouvlab.cli`).
"""

from .basis import BlochVector, DensityMatrix, OperatorBasis, build_basis, devectorize, vectorize
from .dynamics import (
    ProcessMatrix,
    TimeGrid,
    piecewise_propagator,
    principal_log,
    propagator,
)
from .estimation import (
    BootstrapResult,
    FitReport,
    RelaxationModel,
    bootstrap,
    direct_hamiltonian,
    estimate_fields,
    fit_relaxation_model,
    frobenius_distance,
    mle_liouvillian,
)
from .exceptions import (
    BootstrapError,
    BranchCutError,
    CompletenessError,
    DimensionError,
    IllConditionedError,
    LiouvlabError,
    NonHermitianError,
    PhysicalityWarning,
    SingularProcessError,
    ZeroReferenceError,
)
from .superop import (
    HermitianParams,
    KossakowskiMatrix,
    LindbladModel,
    SpinOperators,
    Superoperator,
    assemble_liouvillian,
    dissipator_superop,
    explicit_qutrit_superop,
    hamiltonian_superop,
    kossakowski_generator,
    kossakowski_shift,
    params_from_superop,
    spin1_operators,
    zeeman_hamiltonian,
)
from .synthlab import (
    DEFAULT_RELAXATION,
    NoiseSpec,
    Scenario,
    calibrate_bloch_sigma,
    generate_dataset,
    make_scenario,
    state_fidelity,
)
from .tomography import (
    TomographySet,
    canonical_input_states,
    direct_liouvillian,
    mean_log_liouvillian,
    reconstruct_process,
    reconstruct_processes,
    stepwise_processes,
)

__version__ = "0.1.0"
