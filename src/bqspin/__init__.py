"""Exact biquaternion spin algebra and wave-equation verification library."""

from .biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    Frame,
    classify,
    conjugations,
    make_frame,
    minkowski_product,
    peirce_compose,
    peirce_decompose,
    unitary_product,
)
from .errors import (
    BqspinError,
    ConfigError,
    DegenerateMass,
    InvalidAxis,
    InvalidFrame,
    MixedBackend,
    NoConsistentConvention,
    NotAPlaneWave,
    OffShell,
    SingularOperand,
    UnknownSuite,
)
from .fields import (
    ExternalField,
    Field,
    Momentum,
    NablaSpec,
    Poly,
    build_doublet,
    current,
    dirac_lanczos_residual,
    divergence_scalar,
    lanczos_plane_wave,
    lanczos_residual,
    nabla,
    nabla_bar,
    plane_wave_field,
    plane_wave_solutions,
    proca_residual,
    select_nabla_convention,
)
from .linops import RealLinearOp, monomial, op_exp
from .lorentz import (
    act,
    boost_counterexample,
    invariance_report,
    make_lorentz,
    rotation_closure,
    subspace_closure,
)
from .spin import SpinLabel, boost, eigenstates, generators, rotate
from .bilinears import amplitude, covariants, lagrangian_density
from .rs import (
    commutator_identity,
    constraint_counting,
    coupled_equation,
    dual_tensor,
    extra_constraint,
    g1_chain,
    rs_current,
    rs_free_system,
)

__version__ = "0.1.0"
