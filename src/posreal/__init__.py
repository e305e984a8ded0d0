"""Realizations of homogeneous positive-real operator-valued functions.

Library layout:

- ``core``:        tolerance policy, Hermitian/PSD matrix substrate
- ``pencil``:      PSD linear pencils and Schur-complement evaluation
- ``kernels``:     kernel decompositions and pencil reconstruction
- ``cayley``:      variable/value/double Cayley maps and kernel transforms
- ``colligation``: selfadjoint unitary colligations, transfer functions
- ``calculus``:    functional calculus on commuting tuples, the hunt
- ``geometry``:    domain predicates, de-homogenization, involutions
- ``netlist``:     conductance networks as rank-one pencils
- ``serialize``:   JSON formats
- ``sampling``:    seeded grids and random test objects
- ``verify``:      the verification battery as one declared table
- ``cli``:         command-line entry point
"""

from .core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    PosrealError,
    PsdSpectrum,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    hermitian_part,
    is_psd,
    operator_norm,
    psd_sqrt,
)
from .pencil import (
    PsdPencil,
    RealizedFunction,
    compress,
    compress_realization,
    eval_long_resolvent,
    eval_pencil,
    eval_schur,
    realize,
    sum_realization,
)
from .kernels import (
    KernelEvaluator,
    KernelSampleSet,
    check_psd_kernel,
    kernel_identity_residual,
    pencil_from_kernel_samples,
    plus_minus_residuals,
    psi,
    sample_kernels,
)
from .cayley import (
    DiskFunctionView,
    DiskKernelEvaluator,
    disk_to_halfplane,
    inv_double_cayley,
    inv_value_cayley,
    value_cayley,
)
from .colligation import (
    AglerColligation,
    ColligationSynthesis,
    agler_identity_residual,
    build_colligation,
    colligation_from_kernel_samples,
    colligation_from_pencil,
    spectrum_condition,
    transfer_eval,
)
from .calculus import (
    CommutingTuple,
    HuntConfig,
    TaylorCoefficients,
    accretive_positivity_check,
    calc_realized,
    calc_series,
    herglotz_taylor_from_schur,
    hunt,
    inverse_operator_cayley,
    make_tuple,
    operator_cayley,
    pointwise_diagonal_oracle,
    taylor_from_colligation,
    taylor_from_function,
    von_neumann_check,
)
from .geometry import (
    AntiUnitaryInvolution,
    DehomogenizedView,
    check_real_colligation,
    check_real_pencil,
    dehomogenize,
    four_quadrant_check,
    homogenize,
    in_omega,
    in_omega_oracle,
    in_omega_plus,
    is_iota_real_function,
    is_iota_real_operator,
    taylor_realness_residual,
)
from .netlist import Network, network_pencil, parse_netlist
from .sampling import disk_grid, halfplane_grid, random_pencil

__version__ = "0.1.0"
