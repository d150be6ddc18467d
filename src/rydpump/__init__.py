"""rydpump: dissipative Rydberg-pumping entanglement simulator.

Builds the two-atom Bell scheme (9 levels) and the two-qutrit scheme
(20 levels), assembles their Lindblad master equations, propagates or
solves for steady states, and evaluates fidelity, CHSH correlation and
negativity, at one operating point or over a parameter grid (sweep).
"""

from .linalg import (
    BipartiteDims,
    hermitian_eigvals,
    hermiticity_defect,
    partial_transpose,
)
from .models import (
    ModelParams,
    Preset,
    SchemeVariant,
    SystemModel,
    angular_mhz,
    build_model,
    caption_params,
    decay_rate_khz,
    figure_preset,
)
from .dynamics import (
    ConvergenceError,
    Liouvillian,
    NonUniqueSteadyStateError,
    Trajectory,
    build_liouvillian,
    evolve,
    liouvillian_gap,
    steady_state,
    unvec,
    vec,
)
from .measures import (
    chsh_correlation,
    chsh_operator,
    fidelity,
    negativity,
    populations,
)
from .grid import sweep

__version__ = "0.1.0"

__all__ = [
    "BipartiteDims", "hermitian_eigvals", "hermiticity_defect", "partial_transpose",
    "ModelParams", "Preset", "SchemeVariant", "SystemModel", "angular_mhz", "build_model",
    "caption_params", "decay_rate_khz", "figure_preset",
    "ConvergenceError", "Liouvillian", "NonUniqueSteadyStateError", "Trajectory",
    "build_liouvillian", "evolve", "liouvillian_gap", "steady_state", "unvec", "vec",
    "chsh_correlation", "chsh_operator", "fidelity", "negativity", "populations", "sweep",
    "__version__",
]
