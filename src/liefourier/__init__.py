"""Fourier analysis on compact Lie groups (torus and SU(2)): matrix-valued
transforms, difference calculus on the unitary dual, Littlewood-Paley theory,
Triebel-Lizorkin norms, and empirical probes of Fourier-multiplier
boundedness."""

__version__ = "0.1.0"

from .errors import ConfigurationError, MarginError, PreconditionError
from .groups import (
    GroupDescriptor,
    QuadratureGrid,
    build_grid,
    identity,
    inverse,
    make_group,
    multiply,
    random_point,
)
from .dual import DualSlice, enumerate_dual, spin_cutoff
from .transform import (
    FourierCoefficients,
    GridFunction,
    default_grid,
    forward_transform,
    inverse_evaluate,
    inverse_on_grid,
    plancherel_norm,
    random_coefficients,
)
from .spaces import (
    NormSpec,
    eta,
    lp_project,
    psi,
    tl_norms,
    windows,
)
from .symbols import (
    CheckReport,
    Symbol,
    apply_difference,
    build_spectral_symbol,
    check_hormander_mihlin,
    check_marcinkiewicz,
    check_weak_marcinkiewicz,
    dual_sobolev_norm,
    identity_symbol,
)
from .multipliers import (
    BoundednessSweep,
    EnsembleConfig,
    apply_multiplier,
    boundedness_sweep,
    kernel_difference_integrals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
