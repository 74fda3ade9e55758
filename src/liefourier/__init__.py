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
    convolve,
    default_grid,
    forward_transform,
    inner_product,
    inverse_evaluate,
    inverse_on_grid,
    plancherel_norm,
    random_coefficients,
    translate_coefficients,
)
from .spaces import (
    NormSpec,
    eta,
    lebesgue_norm,
    lp_project,
    psi,
    tl_norms,
    triebel_lizorkin_norm,
    weak_tl_norm,
    window_levels,
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
    symbol_from_config,
)
from .multipliers import (
    BoundednessSweep,
    EnsembleConfig,
    apply_multiplier,
    boundedness_sweep,
    exact_l2_operator_norm,
    kernel_difference_integral,
)

__all__ = [name for name in dir() if not name.startswith("_")]
