"""Lattice invariants, hyperkahler period maps, and equivariant spectral
zeta continuations for involutions, with a JSON command line front end."""

from .errors import (
    AccuracyError,
    ConsistencyError,
    DegenerateLatticeError,
    GeometryError,
    InputError,
    K3ZetaError,
    MarkingError,
)
from .frames import (
    FlatModel,
    HKFrame,
    RotationSO3,
    check_antiholomorphic_sign,
    compatible_frames,
    involution_eigenframe,
    is_compatible,
    recover_compatible_parameters,
    recover_rotation,
    restricted_action,
    rotate_frame,
    standard_flat_model,
    two_form_of,
    unit_sphere_structure,
)
from .lattices import (
    DiscriminantInfo,
    Lattice,
    LatticeIsometry,
    SublatticeBasis,
    build_standard_lattice,
    direct_sum,
    discriminant_info,
    eigenlattice,
    enriques_involution,
    is_hyperbolic_type,
    is_saturated,
    orthogonal_complement,
    same_sublattice,
)
from .mellin import ContinuationResult, TraceModel, continue_trace
from .models import (
    build_model_spectrum,
    flat_torus_curve,
    flat_torus_spectrum,
    round_sphere_curve,
    round_sphere_spectrum,
    sphere_heat_coefficients,
)
from .periods import (
    PeriodPair,
    PeriodPoint,
    component_label,
    conjugate_period,
    omega_contains,
    period_of,
    projectively_equal,
    same_period_pair,
)
from .spectral import (
    BorcherdsReport,
    CurveComponent,
    DeterminantReport,
    EquivariantSpectrum,
    HeatTail,
    TauReport,
    TorsionReport,
    ZetaReport,
    borcherds_report,
    curve_determinant_report,
    dolbeault_zeta,
    dolbeault_zetas,
    equivariant_determinant_report,
    equivariant_torsion_report,
    tau_iota,
    truncate_entries,
    zeta_signed,
)

__version__ = "0.1.0"
