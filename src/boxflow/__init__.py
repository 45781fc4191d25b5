"""Pseudo-spectral incompressible Navier-Stokes on expanding periodic boxes.

The package revolves around one question: how faithfully does the flow on a
periodic box Q_alpha = (-alpha, alpha)^3 stand in for the whole-space flow,
and how fast does the gap close as the box grows?  The building blocks are

* `spectral_core` -- grids, fields, transforms, spectral operators;
* `vorticity`    -- periodic and free-space velocity-from-vorticity inversion;
* `extension`    -- smooth cutoff extension of a box field to a larger box;
* `norms`        -- Lebesgue/Sobolev norms, tail masses, inequality reports;
* `solver`       -- integrating-factor RK4 march with energy audits;
* `initial_data` -- compactly supported divergence-free vorticity families;
* `experiments`  -- convergence/tail/transfer studies and the CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    BoxflowError,
    ConfigurationError,
    DataError,
    DomainTooSmallError,
    GridCompatibilityError,
    StepSizeError,
    SupportError,
    UsageError,
)
from .spectral_core import (
    BoxGrid,
    Field,
    curl,
    divergence,
    gradient,
    laplacian,
    leray_project,
    set_default_workers,
)
from .norms import (
    DiagnosticsRecord,
    NormReport,
    inequality_report,
    l2_norm,
    lebesgue_norm,
    relative_divergence,
    sobolev_norm,
    tail_mass,
)
from .extension import (
    CUTOFF_GRAD_BOUND,
    CUTOFF_HESS_BOUND,
    EXTENSION_GRAD_BOUND,
    EXTENSION_H2_BOUND,
    EXTENSION_L2_BOUND,
    extend_field,
)
from .vorticity import (
    BiotSavartResult,
    VorticityField,
    biot_savart_r3,
    curl_inv_periodic,
)
from .initial_data import (
    BumpSpec,
    TrefoilSpec,
    bump_vorticity,
    mollifier,
    trefoil_vorticity,
)
from .solver import (
    ExistenceEstimate,
    SolverConfig,
    Trajectory,
    energy_audit,
    enstrophy_audit,
    existence_time,
    nse_march,
    nse_solve,
    pressure_solve,
)
from .experiments import (
    CheckRecord,
    StudyConfig,
    StudyResult,
    emit_report,
    load_config,
    measure_constants,
    parse_config,
    run_study,
)
