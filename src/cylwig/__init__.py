"""cylwig: Wigner functions on the discrete cylinder (angle x OAM).

A library plus CLI to build truncated OAM states, map them to and from
Wigner quasiprobability grids on S1 x Z, analyze negativity, and certify
numerically that the only pure states with non-negative Wigner functions
are the OAM eigenstates.
"""

from .analysis import (
    AutocorrelationCheck,
    FlatnessCheck,
    NegativityReport,
    autocorrelation_check,
    covariance_residual,
    flatness_check,
    hudson_certify,
    negativity,
    report_to_json,
)
from .errors import (
    BandLimitError,
    CylwigError,
    MemoryBudgetError,
    RealnessError,
    ReconstructionError,
    TruncationError,
)
from .numerics import (
    AngleGrid,
    PeriodicSamples,
    bessel_i0,
    circle_quadrature,
    theta3,
)
from .phasespace import (
    KernelMatrix,
    ReconstructionResult,
    WignerGrid,
    angle_marginal_tail,
    default_angle_grid,
    default_pad,
    kernel_matrix,
    marginal_angle,
    marginal_oam,
    overlap,
    read_wigner,
    reconstruct_density,
    star_product,
    wigner_from_angle,
    wigner_from_oam,
    write_wigner,
)
from .states import (
    DensityMatrix,
    OamWindow,
    PureState,
    angle_wavefunction,
    angle_wavefunction_at,
    apply_phase_function,
    coherent_state,
    density_from_json,
    density_to_json,
    displace,
    inner_product,
    lower_charge,
    mix,
    oam_eigenstate,
    random_pure_state,
    read_payload,
    state_from_json,
    state_to_json,
    to_density,
    von_mises_state,
    write_density,
    write_state,
)

__version__ = "0.1.0"
